"""stochcone benchmark: seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client replays a fixed, seed-generated list of operations through the
public API, pass after pass, until the operations have run for --seconds.
Each pass's outputs are checked after the pass, outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones plus
trace.overhead_ratio, the traced over the untraced pass time.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
`failed` counts operations that raised or returned a wrong answer; `correct`
is false when any returned a wrong answer.

Times are reported at reference host speed.  The shared 2-core hosts this
runs on drift by +-15% over tens of seconds, in CPU time as well as wall
time, which no run length averages away.  So a fixed calibration kernel is
timed before every operation, and each time is scaled by CAL_REF_S over the
median kernel time around it; CAL_REF_S is the kernel's median time on the
reference host (2 cores, Python 3.11.7, numpy 2.4.6).  On repeated runs of
one seed this cut the spread of the timings three- to fourfold.  Raw values
are printed beside the scaled ones.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("transport", "measure-means", "power-ladder", "cli")
SETUP_REPEATS = 7
CAL_REF_S = 2.2e-3
CAL_WINDOW = 5  # kernel timings around an operation that set its local speed
# Runs in a fresh interpreter with numpy loaded: imports the package
# SETUP_REPEATS times, each after a calibration, and prints (scaled, raw)
# medians.  Deleting the modules between imports re-executes them.
_IMPORT_PROBE = """
import statistics, sys, time
from run import CAL_REF_S, SETUP_REPEATS, _calibration_s
scaled, raw = [], []
for _ in range(SETUP_REPEATS):
    for name in [m for m in sys.modules if m.split(".")[0] == "stochcone"]:
        del sys.modules[name]
    slowness = _calibration_s(3) / CAL_REF_S
    t0 = time.perf_counter()
    import stochcone
    raw.append(time.perf_counter() - t0)
    scaled.append(raw[-1] / slowness)
print(statistics.median(scaled), statistics.median(raw))
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package():
    """Import stochcone from this checkout's src/ and nowhere else."""
    if not (SRC / "stochcone" / "__init__.py").is_file():
        raise SystemExit(f"error: no stochcone sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stochcone

    if Path(stochcone.__file__).resolve().parent != SRC / "stochcone":
        raise SystemExit(f"error: imported stochcone from {stochcone.__file__}")


_CAL_MATRIX = [[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]]


def _calibration_kernel():
    """Fixed work shaped like the package's: pure-Python float arithmetic on
    nested lists, then small numpy calls.  Host contention slows this mix
    much as it slows the package; a plain integer loop tracks it worse."""
    a = _CAL_MATRIX
    for _ in range(120):
        b = [[sum(a[i][k] * a[k][j] for k in range(3)) * 0.5 for j in range(3)]
             for i in range(3)]
    m = np.array(a)
    for _ in range(60):
        np.linalg.eigvalsh(m)
        float(np.sqrt((m * m).sum()))
    return b


def _calibration_s(repeats: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Run:
    """Latencies, calibration timings and outcomes over every timed pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.cal_s: list[float] = []
        self.passes: list[tuple[int, int, bool]] = []  # (first op, end, traced)
        self.attempted = 0
        self.raised: list[str] = []
        self.wrong: list[str] = []

    def run_pass(self, ops, traced: bool = False) -> dict:
        """Time every op in order, each after one calibration kernel."""
        outs = {}
        gc.collect()
        first = len(self.latencies)
        for op in ops:
            self.cal_s.append(_calibration_s())
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation, counted and reported
                out = exc
            self.latencies.append(time.perf_counter() - t0)
            outs[op.name] = out
        self.passes.append((first, len(self.latencies), traced))
        self.attempted += len(ops)
        return outs

    def check_pass(self, ops, outs) -> None:
        for op in ops:
            out = outs[op.name]
            if isinstance(out, Exception):
                self.raised.append(f"{op.name}: {type(out).__name__}: {out}")
                continue
            try:
                err = op.check(out, outs)
            except Exception:
                err = "check raised\n" + traceback.format_exc()
            if err:
                self.wrong.append(f"{op.name}: {err}")

    @property
    def failed(self) -> int:
        return len(self.raised) + len(self.wrong)

    @property
    def raw_s(self) -> float:
        return sum(self.latencies)

    @property
    def slowness(self) -> float:
        """Median host slowness over the run, against the reference."""
        return statistics.median(self.cal_s) / CAL_REF_S

    def scaled(self) -> list[float]:
        """Latencies at reference speed, each scaled by the median of the
        calibration timings around it."""
        h = CAL_WINDOW // 2
        return [lat * CAL_REF_S / statistics.median(self.cal_s[max(0, i - h):i + h + 1])
                for i, lat in enumerate(self.latencies)]

    def pass_seconds(self, traced: bool, scaled: bool = True) -> list[float]:
        lat = self.scaled() if scaled else self.latencies
        return [sum(lat[a:b]) for a, b, t in self.passes if t == traced]


def _setup_once(name, seed, workdir):
    """Input generation, dataset write and warm-up; returns the workload and
    its raw time.  The warm-up outputs are checked untimed."""
    import workloads

    t0 = time.perf_counter()
    wl = workloads.BUILDERS[name](seed, workdir)
    outs = {}
    for op in wl.warmup:
        try:
            outs[op.name] = op.call()
        except Exception as exc:  # reported below
            outs[op.name] = exc
    elapsed = time.perf_counter() - t0
    warm = Run()
    warm.check_pass(wl.warmup, outs)
    if warm.failed:
        raise SystemExit("error: warm-up failed:\n" + "\n".join(warm.raised + warm.wrong))
    return wl, elapsed


def _import_s() -> tuple[float, float]:
    """Package import time in a fresh interpreter, scaled and raw."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    scaled, raw = map(float, out.stdout.split())
    return scaled, raw


def _setup(name, seed, workdir):
    """Set up SETUP_REPEATS times.  Returns the workload and the set-up time,
    scaled and raw: the median package import plus the median of input
    generation, dataset write and warm-up."""
    import_scaled, import_raw = _import_s()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = _calibration_s(3)
        wl, build_s = _setup_once(name, seed, workdir)
        slowness = (before + _calibration_s(3)) / 2 / CAL_REF_S
        raw.append(build_s)
        scaled.append(build_s / slowness)
    return wl, import_scaled + statistics.median(scaled), import_raw + statistics.median(raw)


def _measure_untraced(name, seed, seconds, workdir):
    wl, setup_s, setup_raw = _setup(name, seed, workdir)
    run = Run()
    # whole passes, ending within half a pass of the requested time
    while not run.passes or run.raw_s * (1 + 0.5 / len(run.passes)) < seconds:
        run.check_pass(wl.ops, run.run_pass(wl.ops))
    lat_ms = [x * 1e3 for x in run.scaled()]
    raw_ms = [x * 1e3 for x in run.latencies]
    metrics = {
        "throughput_ops_s": (run.attempted / sum(lat_ms) * 1e3, run.attempted / run.raw_s),
        "latency_p50_ms": (_percentile(lat_ms, 0.50), _percentile(raw_ms, 0.50)),
        "latency_p90_ms": (_percentile(lat_ms, 0.90), _percentile(raw_ms, 0.90)),
        "ok_share": (1.0 - run.failed / run.attempted, None),
        "setup_s": (setup_s, setup_raw),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None),
    }
    units = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "ok_share": "share", "setup_s": "s", "peak_rss_mb": "MB"}
    samples = {"throughput_ops_s": len(lat_ms), "latency_p50_ms": len(lat_ms),
               "latency_p90_ms": len(lat_ms), "ok_share": run.attempted,
               "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    notes = [f"fail_share {run.failed / run.attempted:.4f} "
             f"({run.failed} of {run.attempted} operations)"]
    return run, metrics, units, samples, notes


def _measure_traced(name, seed, seconds, workdir):
    """Alternate untraced and traced passes, so both meet the same host."""
    from tracer import Tracer

    wl, _ = _setup_once(name, seed, workdir)
    run = Run()
    tracer = Tracer()
    while not run.passes or run.raw_s < seconds:
        run.check_pass(wl.ops, run.run_pass(wl.ops))
        tracer.install()
        try:
            outs = run.run_pass(wl.ops, traced=True)
        finally:
            tracer.uninstall()
        run.check_pass(wl.ops, outs)
    traced, untraced = run.pass_seconds(True), run.pass_seconds(False)
    # shares of traced time: the tracer's times and this sum are both raw
    layers = tracer.metrics(len(traced), sum(run.pass_seconds(True, scaled=False)))
    layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics = {k: ((v / run.slowness, v) if k.endswith(".self_s") else (v, None))
               for k, v in layers.items()}
    units = {k: _layer_unit(k) for k in metrics}
    samples = {k: len(traced) for k in metrics}
    notes = [f"absent: {', '.join(tracer.absent)}"] if tracer.absent else []
    return run, metrics, units, samples, notes


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".calls", "atoms_in", "atoms_out", "cost_entries", "power_steps",
                      "trace.absent")):
        return "count"
    return "ratio"


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload, print its report and return the result object."""
    run, metrics, units, samples, notes = (
        (_measure_traced if trace else _measure_untraced)(name, seed, seconds, workdir))
    print(f"# workload {name}: {len(run.passes)} passes, host slowness {run.slowness:.4f} "
          f"(calibration kernel {CAL_REF_S * 1e3:g} ms at reference speed)")
    for k, (v, raw) in metrics.items():
        raw_note = "" if raw is None else f"  (raw {raw:.6g})"
        print(f"# {k:<40} {v:>12.6g} {units[k]:<6} n={samples[k]}{raw_note}")
    for note in notes:
        print(f"# {note}")
    for line in sorted(set(run.raised)) + sorted(set(run.wrong)):
        print(f"# FAILED {line.splitlines()[0]}")
    return {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }


def _run_all(args) -> int:
    """Each workload in its own process, so memory and set-up stay apart."""
    results = {}
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_package()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
