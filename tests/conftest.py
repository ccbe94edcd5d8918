import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for the test and returns
    the list that collects one entry per call."""
    def install(module, name):
        calls = []
        fn = getattr(module, name)

        def wrapper(*args, **kw):
            calls.append(1)
            return fn(*args, **kw)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return install
