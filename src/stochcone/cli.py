"""Command-line surface: dataset ingestion, metric/order/mean subcommands,
and reproducible experiment runs.

Input is a JSON dataset file of named matrices and measures sharing one
dimension.  Scalar outputs print with 17 significant digits; JSON outputs use
shortest round-trip floats.  Experiment CSVs are UTF-8 with LF line endings
and start with a `# manifest:` comment that pins the command, seed,
tolerances, input hashes, and package version, so equal manifests mean
byte-identical files.

Exit codes: 0 success (or property holds), 1 property fails, 2 usage or
input error, 3 cross-check disagreement between the two dominance deciders,
4 internal failure (a failed certificate or a solver that did not converge).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cone import (
    NotPositiveDefinite,
    OrderTolerance,
    PosDefMatrix,
    posdef,
    thompson_distance,
)
from .experiments import EXPERIMENT_NAMES, default_count, run_experiment
from .matfun import DimensionMismatch
from .means import MEAN_KINDS, MeanConfig, karcher_residual, measure_mean, tuple_mean
from .measure import FinMeasure, measure_from_json, measure_to_json
from .order import (
    DominanceVerdict,
    dominates_by_coupling,
    dominates_by_upper_sets,
    verdict_to_json_dict,
)
from .transport import wasserstein, wasserstein_inf

__all__ = ["Dataset", "RunManifest", "load_dataset", "main"]

_SEED_ENV = "STOCHCONE_SEED"


class CliError(Exception):
    """Input or usage failure; maps to exit code 2."""


@dataclass(frozen=True)
class Dataset:
    """Named matrices and measures sharing one dimension."""

    dim: int
    matrices: dict[str, PosDefMatrix]
    measures: dict[str, FinMeasure]

    def matrix(self, name: str) -> PosDefMatrix:
        if name not in self.matrices:
            raise CliError(f"no matrix named {name!r} in the dataset "
                           f"(available: {sorted(self.matrices) or 'none'})")
        return self.matrices[name]

    def measure(self, name: str) -> FinMeasure:
        if name not in self.measures:
            raise CliError(f"no measure named {name!r} in the dataset "
                           f"(available: {sorted(self.measures) or 'none'})")
        return self.measures[name]


@dataclass(frozen=True)
class RunManifest:
    """Everything that determines an experiment's output bytes."""

    command: str
    seed: int
    tolerances: dict
    input_hashes: dict
    version: str

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "input_hashes": self.input_hashes,
            "version": self.version,
        }
        return json.dumps(doc, sort_keys=True)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def load_dataset(path: str) -> Dataset:
    """Parse the dataset JSON schema:
    {"dim": d, "matrices": {name: [d*d entries]}, "measures": {name: {"atoms": [...]}}}.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise CliError(f"cannot read dataset {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc:
        raise CliError(f"dataset {path!r} needs a top-level 'dim'")
    try:
        dim = int(doc["dim"])
        matrices = {}
        for name, flat in (doc.get("matrices") or {}).items():
            if len(flat) != dim * dim:
                raise CliError(f"matrix {name!r}: expected {dim * dim} entries, "
                               f"got {len(flat)}")
            matrices[name] = posdef(np.asarray(flat, dtype=float).reshape(dim, dim))
        measures = {}
        for name, sub in (doc.get("measures") or {}).items():
            measures[name] = measure_from_json({"dim": dim, "atoms": sub["atoms"]})
    except CliError:
        raise
    except (NotPositiveDefinite, DimensionMismatch, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"invalid dataset {path!r}: {exc}") from exc
    return Dataset(dim, matrices, measures)


def _fmt(x: float) -> str:
    return "%.17g" % x


def _csv_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(_SEED_ENV)
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise CliError(f"{_SEED_ENV} must be an integer, got {env!r}") from None
    if seed < 0:
        raise CliError(f"{_SEED_ENV} must be nonnegative, got {seed}")
    return seed


# ----------------------------------------------------------------- subcommands


def _cmd_thompson(args) -> int:
    ds = load_dataset(args.dataset)
    d = thompson_distance(ds.matrix(args.x), ds.matrix(args.y))
    print(_fmt(d))
    return 0


def _parse_method(verdicts: dict[str, DominanceVerdict]) -> tuple[int, DominanceVerdict]:
    if len(verdicts) == 2:
        flow, enum = verdicts["flow"], verdicts["enum"]
        if flow.holds != enum.holds:
            return 3, flow
        return (0 if flow.holds else 1), flow
    (verdict,) = verdicts.values()
    return (0 if verdict.holds else 1), verdict


def _cmd_dominates(args) -> int:
    ds = load_dataset(args.dataset)
    mu, nu = ds.measure(args.mu), ds.measure(args.nu)
    order_tol = OrderTolerance(args.order_eps)
    verdicts: dict[str, DominanceVerdict] = {}
    if args.method in ("flow", "both"):
        verdicts["flow"] = dominates_by_coupling(mu, nu, args.tol, order_tol)
    if args.method in ("enum", "both"):
        verdicts["enum"] = dominates_by_upper_sets(mu, nu, args.tol, order_tol)
    code, primary = _parse_method(verdicts)
    doc = verdict_to_json_dict(primary)
    doc["method"] = args.method
    if code == 3:
        doc["disagreement"] = {m: v.holds for m, v in verdicts.items()}
        print(json.dumps(doc))
        print("error: deciders disagree; this indicates a bug", file=sys.stderr)
        return 3
    print(json.dumps(doc))
    return code


def _cmd_wasserstein(args) -> int:
    ds = load_dataset(args.dataset)
    mu, nu = ds.measure(args.mu), ds.measure(args.nu)
    if args.p == "inf":
        dist, plan = wasserstein_inf(mu, nu)
        p_doc = "inf"
    else:
        try:
            p = float(args.p)
        except ValueError:
            raise CliError(f"--p must be a real >= 1 or 'inf', got {args.p!r}") from None
        if not (p >= 1.0 and math.isfinite(p)):
            raise CliError(f"--p must be a real >= 1 or 'inf', got {args.p!r}")
        dist, plan = wasserstein(mu, nu, p)
        p_doc = p
    print(_fmt(dist))
    if args.plan:
        doc = {
            "p": p_doc,
            "distance": dist,
            "weights": [[float(v) for v in row] for row in plan.weights],
        }
        with open(args.plan, "w", encoding="utf-8", newline="\n") as f:
            json.dump(doc, f)
            f.write("\n")
    return 0


def _parse_kind(kind: str) -> tuple[str, float | None]:
    if kind.startswith("power:"):
        try:
            t = float(kind.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad power order in {kind!r}") from None
        return "power", t
    if kind in ("karcher", "arith", "harm"):
        return kind, None
    raise CliError(f"unknown mean kind {kind!r}; expected karcher, arith, harm, "
                   f"or power:T")


def _cmd_mean(args) -> int:
    kind, power_t = _parse_kind(args.kind)
    ds = load_dataset(args.dataset)
    cfg_kwargs = {"seed": _default_seed(args.seed)}
    if power_t is not None:
        cfg_kwargs["power_t"] = power_t
    if args.mc_samples is not None:
        cfg_kwargs["mc_samples"] = args.mc_samples
    try:
        cfg = MeanConfig(**cfg_kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.measures:
        mus = [ds.measure(n) for n in args.names]
        out = measure_mean(kind, mus, cfg)
        print(measure_to_json(out))
        return 0
    mats = [ds.matrix(n) for n in args.names]
    out = tuple_mean(kind, mats, cfg)
    doc = {
        "kind": args.kind,
        "dim": out.dim,
        "matrix": [float(v) for v in out.a.reshape(-1)],
    }
    if kind == "karcher":
        doc["residual"] = karcher_residual(out, mats)
    print(json.dumps(doc))
    return 0


def _cmd_experiment(args) -> int:
    seed = _default_seed(args.seed)
    count = args.count if args.count is not None else default_count(args.name)
    try:
        result = run_experiment(args.name, seed, count, jobs=args.jobs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    manifest = RunManifest(
        command=f"experiment {args.name} --seed {seed} --count {count}",
        seed=seed,
        tolerances={"mass_tol": 1e-9, "order_eps": 1e-10, "karcher_tol": 1e-10},
        input_hashes={},
        version=__version__,
    )
    lines = [f"# manifest: {manifest.to_json()}", ",".join(result.columns)]
    lines += [",".join(_csv_value(v) for v in row) for row in result.rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0 if result.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochcone",
        description="Stochastic order, Thompson/Wasserstein metrics, and "
                    "matrix means on the positive-definite cone.",
    )
    parser.add_argument("--version", action="version", version=f"stochcone {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("thompson", help="Thompson distance between two named matrices")
    p.add_argument("dataset")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=_cmd_thompson)

    p = subs.add_parser("dominates",
                        help="stochastic dominance test between two named measures")
    p.add_argument("dataset")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--method", choices=("flow", "enum", "both"), default="flow")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="mass tolerance (default 1e-9)")
    p.add_argument("--order-eps", type=float, default=1e-10,
                   help="Loewner comparison tolerance (default 1e-10)")
    p.set_defaults(fn=_cmd_dominates)

    p = subs.add_parser("wasserstein",
                        help="p-Wasserstein distance between two named measures")
    p.add_argument("dataset")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--p", default="1", help="order p >= 1, or 'inf' (default 1)")
    p.add_argument("--plan", metavar="OUT.json",
                   help="write the optimal coupling to this file")
    p.set_defaults(fn=_cmd_wasserstein)

    p = subs.add_parser("mean", help="matrix or measure mean")
    p.add_argument("kind", help="karcher | arith | harm | power:T")
    p.add_argument("dataset")
    p.add_argument("names", nargs="+", help="matrix names (or measure names with -m)")
    p.add_argument("-m", "--measures", action="store_true",
                   help="treat names as measures and compute the measure mean")
    p.add_argument("--seed", type=int, default=None,
                   help=f"sampling seed (default ${_SEED_ENV} or 0)")
    p.add_argument("--mc-samples", type=int, default=None,
                   help="Monte Carlo sample count for oversized products")
    p.set_defaults(fn=_cmd_mean)

    p = subs.add_parser("experiment", help="run a seeded validation experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.add_argument("--seed", type=int, default=None,
                   help=f"instance seed (default ${_SEED_ENV} or 0)")
    p.add_argument("--count", type=int, default=None,
                   help="number of instances (per-experiment default)")
    p.add_argument("--out", metavar="CSV", help="output file (default stdout)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; output is identical for any value")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:
        # NotPositiveDefinite, DimensionMismatch, SupportTooLarge, and
        # ProductCapExceeded all subclass ValueError: input errors, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # EigenConvergenceError, MaxIterationsExceeded and failed optimality
        # certificates: the package could not produce a checked answer.
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
