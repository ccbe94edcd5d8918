"""Outside-in tracer: wraps the package's public functions at each module
boundary from the benchmark's own files, leaving ``src/`` untouched.

Every module-level binding of a listed function is replaced, including
by-name imports (``transport.thompson_arrays``, ``means.thompson_arrays``,
``measure.frobenius``), and restored on ``uninstall``.  Calls are aggregated
into per-function counts and times rather than stored as spans.  Self time
is inclusive time minus the inclusive time of traced calls made inside it.
A listed function that no longer exists is reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# module -> public functions traced at its boundary
TARGETS = {
    "matfun": ("frobenius",),
    "cone": ("thompson_arrays", "loewner_leq"),
    "measure": ("from_atoms",),
    "order": ("dominates_by_coupling", "dominates_by_upper_sets"),
    "transport": ("cost_matrix", "wasserstein", "wasserstein_inf"),
    "_flow": ("transportation_min_cost", "bipartite_max_flow"),
    "means": ("measure_mean", "tuple_mean", "karcher_mean", "power_mean"),
    "experiments": ("run_experiment",),
    "cli": ("main", "load_dataset"),
}
# metric names must start with a letter or digit
METRIC_MODULE = {"_flow": "flow"}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    by_binding: Counter = field(default_factory=Counter)


PACKAGE = "stochcone"


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.counters: Counter = Counter()
        self._depth: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        for mod, names in TARGETS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod}")
            except ImportError:
                module = None
            for name in names:
                key = f"{mod}.{name}"
                fn = getattr(module, name, None)
                if callable(fn):
                    self._originals[key] = fn
                    self.stats[key] = Stat()
                else:
                    self.absent.append(key)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        by_id = {id(fn): key for key, fn in self._originals.items()}
        modules = [(n, m) for n, m in list(sys.modules.items())
                   if m is not None and n.split(".")[0] == PACKAGE]
        for mod_name, module in modules:
            binding = mod_name.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                key = by_id.get(id(value))
                if key is not None and value is self._originals[key]:
                    setattr(module, attr, self._wrap(key, value, binding))
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # --------------------------------------------------------------- calls

    def _wrap(self, key, fn, binding):
        stat = self.stats[key]
        before, after = _HOOKS.get(key, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            stat.calls += 1
            stat.by_binding[binding] += 1
            self._depth[key] += 1
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                stat.self_s += elapsed - frame[0]
                self._depth[key] -= 1
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def active(self, key: str) -> bool:
        return self._depth[key] > 0

    # ------------------------------------------------------------- metrics

    def metrics(self, passes: int, traced_s: float) -> dict[str, float]:
        """Per-pass values of every per-layer metric; absent functions read 0."""
        def stat(key):
            return self.stats.get(key, Stat())

        def per(x):
            return x / passes

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        shares: Counter = Counter()
        for mod, names in TARGETS.items():
            m = METRIC_MODULE.get(mod, mod)
            for name in names:
                s = stat(f"{mod}.{name}")
                out[f"{m}.{name}.calls"] = per(s.calls)
                out[f"{m}.{name}.self_s"] = per(s.self_s)
                shares[m] += s.self_s
        for m in shares:
            out[f"{m}.self_share"] = ratio(shares[m], traced_s)
        c = self.counters
        atoms_in = c["atoms_in"]
        out["measure.atoms_in"] = per(atoms_in)
        out["measure.atoms_out"] = per(c["atoms_out"])
        out["measure.compares_per_atom"] = ratio(c["frobenius_in_from_atoms"], atoms_in)
        dominance = (stat("order.dominates_by_coupling").calls
                     + stat("order.dominates_by_upper_sets").calls)
        out["order.negative_share"] = ratio(c["negative_verdicts"], dominance)
        out["transport.cost_entries"] = per(c["cost_entries"])
        out["flow.max_flows_per_winf"] = ratio(c["max_flows_in_winf"],
                                               stat("transport.wasserstein_inf").calls)
        steps = stat("cone.thompson_arrays").by_binding["means"]
        out["means.power_steps"] = per(steps)
        out["means.steps_per_power_solve"] = ratio(steps, stat("means.power_mean").calls)
        out["trace.absent"] = float(len(self.absent))
        return out


# Counters measured where the work happens: key -> (before(tracer, args) ->
# args, after(tracer, result)).  They read results defensively, so a later
# change of a return type zeroes a counter instead of failing the run.


def _from_atoms_before(tracer, args):
    if not args:
        return args
    pairs = list(args[0])  # from_atoms accepts any iterable; count it once
    tracer.counters["atoms_in"] += len(pairs)
    return (pairs,) + tuple(args[1:])


def _from_atoms_after(tracer, result):
    tracer.counters["atoms_out"] += getattr(result, "size", 0)


def _frobenius_after(tracer, _result):
    if tracer.active("measure.from_atoms"):
        tracer.counters["frobenius_in_from_atoms"] += 1


def _verdict_after(tracer, result):
    if not getattr(result, "holds", True):
        tracer.counters["negative_verdicts"] += 1


def _cost_after(tracer, result):
    tracer.counters["cost_entries"] += getattr(getattr(result, "entries", result), "size", 0)


def _max_flow_after(tracer, _result):
    if tracer.active("transport.wasserstein_inf"):
        tracer.counters["max_flows_in_winf"] += 1


_HOOKS = {
    "measure.from_atoms": (_from_atoms_before, _from_atoms_after),
    "matfun.frobenius": (None, _frobenius_after),
    "order.dominates_by_coupling": (None, _verdict_after),
    "order.dominates_by_upper_sets": (None, _verdict_after),
    "transport.cost_matrix": (None, _cost_after),
    "_flow.bipartite_max_flow": (None, _max_flow_after),
}
