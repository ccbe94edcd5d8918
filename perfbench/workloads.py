"""The benchmark's workloads: fixed, seeded lists of operations on the public
API, each with an output check that runs outside the timed region.

Every operation calls the package through a module attribute looked up at
call time (``transport.wasserstein(...)``), so the tracer's wrappers see it.
Only matrices and weights generated by ``gen`` cross into the package.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import stochcone
from stochcone import cli, cone, means, order, transport

import gen

Check = Callable[[Any, dict], "str | None"]


@dataclass(frozen=True)
class Op:
    """One operation: `call` is timed, `check(output, outputs_of_pass)` is
    not and returns an error message or None."""

    name: str
    call: Callable[[], Any]
    check: Check


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    warmup: list[Op]


def _measure(pairs):
    return stochcone.from_atoms([(stochcone.posdef(a), w) for a, w in pairs])


def _points(mu) -> np.ndarray:
    return gen.stack([p.a for p in mu.points])


# ---------------------------------------------------------------- transport

# Support sizes per side, in a fixed interleaved order so any stretch of the
# list mixes small and large solves.
_TRANSPORT_SIZES = (30, 10, 45, 20, 50, 15, 40, 25, 35)
_DIRAC_ORDERS = (1.0, 2.0, 3.0, math.inf)
_WIDE = dict(d=2, atoms=6, radius=12.0, p=6.0, count=6)


def _oracle_costs(mu, nu):
    return gen.thompson(_points(mu), _points(nu))


def _package_costs(mu, nu):
    return transport.cost_matrix(mu, nu, math.inf).entries


def _plan_error(dist, w, mu, nu, p, ground=_oracle_costs):
    """The plan is a coupling and its cost, recomputed from `ground`
    distances, is the reported distance."""
    err = gen.check_marginals(w, mu.weights, nu.weights, 1e-9)
    if err:
        return err
    costs = ground(mu, nu)
    if math.isinf(p):
        got = float(costs[w > 0.0].max())
    else:
        got = float((costs ** p * w).sum()) ** (1.0 / p)
    if not gen.close(dist, got, 1e-8):
        return f"reported distance {dist!r}; plan recomputes to {got!r}"
    return None


def _check_wp(mu, nu, p, ground=_oracle_costs):
    def check(out, _outs):
        dist, plan = out
        return _plan_error(dist, np.asarray(plan.weights), mu, nu, p, ground)
    return check


def _check_dirac(x, y):
    def check(out, _outs):
        dist, plan = out
        want = cone.thompson_distance(x, y)
        if dist != want:
            return f"Dirac distance {dist!r} is not the Thompson distance {want!r}"
        if np.asarray(plan.weights).tolist() != [[1.0]]:
            return "Dirac plan is not the unit coupling"
        return None
    return check


def _verdict_error(holds, cert, mu, nu):
    """Positive verdicts carry an order-compatible coupling, negative ones an
    upper set with a mass violation; `cert` is the JSON form of either."""
    if holds:
        # the coupling decider's own marginal slack: one grid unit per atom
        tol = order.DEFAULT_MASS_TOL + (mu.size + nu.size) * 1e-9
        w = np.asarray(cert["weights"], dtype=float)
        return (gen.check_marginals(w, mu.weights, nu.weights, tol)
                or gen.check_coupling_order(w, _points(mu), _points(nu)))
    return gen.check_upper_set(cert["member_indices"], cert["n_points"], cert["mu_mass"],
                               cert["nu_mass"], _points(mu), mu.weights,
                               _points(nu), nu.weights, order.DEFAULT_MASS_TOL)


def _check_verdict(mu, nu):
    def check(verdict, _outs):
        doc = order.verdict_to_json_dict(verdict)
        return _verdict_error(doc["holds"], doc["certificate"], mu, nu)
    return check


def _dominance_op(name, mu, nu):
    return Op(name, lambda: order.dominates_by_coupling(mu, nu), _check_verdict(mu, nu))


def _transport_group(rng, n, tag):
    """W1, W2 and W-inf on an independent pair, then one dominating and one
    independent dominance query; d = 3."""
    mu = _measure(gen.rand_atoms(rng, 3, n))
    nu = _measure(gen.rand_atoms(rng, 3, n))
    shift = gen.rand_shift(rng, 3, 0.5)
    up = _measure([(p.a + shift, w) for p, w in mu.atoms])
    return [
        Op(f"{tag}-w1", lambda: transport.wasserstein(mu, nu, 1.0), _check_wp(mu, nu, 1.0)),
        Op(f"{tag}-w2", lambda: transport.wasserstein(mu, nu, 2.0), _check_wp(mu, nu, 2.0)),
        Op(f"{tag}-winf", lambda: transport.wasserstein_inf(mu, nu),
           _check_wp(mu, nu, math.inf)),
        _dominance_op(f"{tag}-dom-up", mu, up),
        _dominance_op(f"{tag}-dom-indep", mu, nu),
    ]


def _dirac_op(rng, p, tag):
    x = stochcone.posdef(gen.rand_pd(rng, 3, 0.8))
    y = stochcone.posdef(gen.rand_pd(rng, 3, 0.8))
    mu, nu = stochcone.dirac(x), stochcone.dirac(y)
    if math.isinf(p):
        call = lambda: transport.wasserstein_inf(mu, nu)  # noqa: E731
    else:
        call = lambda: transport.wasserstein(mu, nu, p)  # noqa: E731
    return Op(tag, call, _check_dirac(x, y))


def _wide_op(rng, tag):
    """ROADMAP item 4's defect: costs d_T^6 near 1e7 defeat the absolute
    certificate tolerance, so most of these raise at the seed commit.

    At radius 12 the whitened spectra span more than 1e16, beyond what the
    package's Jacobi solver resolves: its distances differ from a 60-digit
    reference by up to 1.5e-4 relative, where LAPACK's stay near 1e-11.  So
    the plan is checked against the package's own ground costs: the check
    covers the transport solve, not the metric.
    """
    k = _WIDE
    mu = _measure(gen.rand_atoms(rng, k["d"], k["atoms"], k["radius"]))
    nu = _measure(gen.rand_atoms(rng, k["d"], k["atoms"], k["radius"]))
    return Op(tag, lambda: transport.wasserstein(mu, nu, k["p"]),
              _check_wp(mu, nu, k["p"], _package_costs))


def build_transport(seed: int, _workdir: Path) -> Workload:
    ops: list[Op] = []
    for g, n in enumerate(_TRANSPORT_SIZES):
        ops += _transport_group(gen.stream(seed, 100 + g), n, f"n{n}")
        rng = gen.stream(seed, 200 + g)
        if g < 2 * len(_DIRAC_ORDERS):
            ops.append(_dirac_op(rng, _DIRAC_ORDERS[g % len(_DIRAC_ORDERS)], f"dirac{g}"))
        if g < _WIDE["count"]:
            ops.append(_wide_op(rng, f"wide{g}"))
    warm = _transport_group(gen.stream(seed, 1), 6, "warm")
    warm.append(_dirac_op(gen.stream(seed, 2), 1.0, "warm-dirac"))
    return Workload(ops, warm)


# ------------------------------------------------------------ measure-means

# Factor sizes of each product (d = 2).  Product supports climb from 10 to
# 500 atoms in steps of about 15%, so the quadratic atom merge shows against
# the linear tuple solves and neighbouring operations have similar latency.
_PRODUCT_SHAPES = ((2, 5), (3, 4), (2, 3, 2), (4, 4), (3, 3, 2), (4, 5), (2, 3, 4), (5, 5),
                   (3, 3, 3), (5, 6), (4, 4, 2), (6, 6), (5, 8), (5, 9), (4, 4, 3), (6, 9),
                   (6, 10), (4, 4, 4), (8, 9), (8, 10), (9, 10), (5, 5, 4), (10, 12), (12, 12),
                   (10, 16), (10, 20), (16, 16), (16, 20), (20, 20), (20, 25))
_AGH_SHAPES = ((2, 3), (1, 2, 2), (3, 3), (2, 2, 2))
_MEAN_KINDS = ("arith", "harm", "karcher")


def _tuples(mus):
    """Product atoms in the package's lexicographic order."""
    pts = [()]
    wts = [1.0]
    for mu in mus:
        pts = [t + (p,) for t in pts for p in mu.points]
        wts = [a * float(b) for a in wts for b in mu.weights]
    return pts, np.asarray(wts)


def _check_measure_mean(kind, mus, cfg):
    def check(out, _outs):
        tuples, wts = _tuples(mus)
        if out.size != len(tuples):
            return f"{out.size} atoms for a product of {len(tuples)} distinct tuples"
        if np.abs(np.asarray(out.weights) - wts).max() > 1e-12:
            return "atom weights are not the product weights"
        for k, (x, tup) in enumerate(zip(out.points, tuples)):
            err = _check_tuple_mean(kind, x, tup, cfg)
            if err:
                return f"atom {k}: {err}"
        return None
    return check


def _check_tuple_mean(kind, x, tup, cfg):
    arrs = gen.stack([p.a for p in tup])
    if kind == "karcher":
        res = means.karcher_residual(x, list(tup))
        return None if res <= cfg.karcher_tol * len(tup) else f"Karcher residual {res:.3e}"
    if kind == "arith":
        want = arrs.mean(axis=0)
    elif kind == "harm":
        want = np.linalg.inv(np.linalg.inv(arrs).mean(axis=0))
    else:  # power: the fixed point of x = mean_j x #_t a_j
        want = np.mean([gen.geo_t(x.a, a, cfg.power_t) for a in arrs], axis=0)
    err = np.linalg.norm(x.a - want)
    return None if err <= 1e-9 * (1.0 + np.linalg.norm(want)) else f"{kind} mean off by {err:.3e}"


def _check_agh(report, _outs):
    if not report.harm_vs_karcher.holds:
        return "harmonic mean measure not below the Karcher mean measure"
    if not report.karcher_vs_arith.holds:
        return "Karcher mean measure not below the arithmetic mean measure"
    return None


def _factors(rng, shape):
    return [_measure(gen.rand_atoms(rng, 2, k)) for k in shape]


def _mean_op(rng, shape, kind, tag):
    mus = _factors(rng, shape)
    cfg = means.MeanConfig()
    return Op(tag, lambda: means.measure_mean(kind, mus, cfg), _check_measure_mean(kind, mus, cfg))


def _agh_op(rng, shape, tag):
    mus = _factors(rng, shape)
    return Op(tag, lambda: means.agh_check(mus), _check_agh)


def build_measure_means(seed: int, _workdir: Path) -> Workload:
    n = len(_PRODUCT_SHAPES)
    order = [k for pair in zip(range(n // 2), range(n - 1, n // 2 - 1, -1)) for k in pair]
    ops: list[Op] = []
    for g, k in enumerate(order):  # small and large products alternate
        shape, kind = _PRODUCT_SHAPES[k], _MEAN_KINDS[k % len(_MEAN_KINDS)]
        tag = "x".join(map(str, shape))
        ops.append(_mean_op(gen.stream(seed, 100 + k), shape, kind, f"{tag}-{kind}"))
        if g % 7 == 6:
            a = g // 7
            ops.append(_agh_op(gen.stream(seed, 200 + a), _AGH_SHAPES[a], f"agh{a}"))
    warm = [_mean_op(gen.stream(seed, 1), (2, 2), kind, f"warm-{kind}") for kind in _MEAN_KINDS]
    warm.append(_agh_op(gen.stream(seed, 2), (1, 2), "warm-agh"))
    return Workload(ops, warm)


# ------------------------------------------------------------- power-ladder

_LADDER = (0.5, 0.25, 0.1, 0.05, 0.01)
_LADDER_FAMILIES = ((2, 2), (3, 3), (2, 3), (3, 2), (3, 3), (2, 2), (3, 2), (2, 3))
_LADDER_CFG = dict(max_iter=20000)
_MONOTONE_SLACK = 1e-9  # as in the package's pt-convergence experiment


def _check_karcher(mats, cfg):
    def check(x, _outs):
        res = means.karcher_residual(x, mats)
        return None if res <= cfg.karcher_tol * len(mats) else f"Karcher residual {res:.3e}"
    return check


def _check_ladder(tag, mats, t):
    """Distance to the Karcher mean must not grow as t falls; the power
    mean must also be the fixed point it claims to be."""
    def check(x, outs):
        err = _check_tuple_mean("power", x, mats, means.MeanConfig(power_t=t))
        if err:
            return err
        lam = outs.get(f"{tag}-karcher")
        if not hasattr(lam, "a"):
            return "no Karcher mean to compare against"
        dist = float(gen.thompson(x.a[None], lam.a[None])[0, 0])
        k = _LADDER.index(t)
        if k > 0:
            prev = outs.get(f"{tag}-t{_LADDER[k - 1]}")
            if not hasattr(prev, "a"):
                return "no previous rung to compare against"
            before = float(gen.thompson(prev.a[None], lam.a[None])[0, 0])
            if dist > before + _MONOTONE_SLACK:
                return f"distance to Karcher mean grew from {before!r} to {dist!r}"
        return None
    return check


def _ladder_ops(rng, n, d, tag):
    mats = [stochcone.posdef(gen.rand_pd(rng, d, 0.4)) for _ in range(n)]
    cfg = means.MeanConfig(**_LADDER_CFG)
    ops = [Op(f"{tag}-karcher", lambda: means.karcher_mean(mats, cfg), _check_karcher(mats, cfg))]
    ops += [Op(f"{tag}-t{t}", lambda t=t: means.power_mean(mats, t, cfg),
               _check_ladder(tag, mats, t)) for t in _LADDER]
    return ops


def build_power_ladder(seed: int, _workdir: Path) -> Workload:
    ops: list[Op] = []
    for g, (n, d) in enumerate(_LADDER_FAMILIES):
        ops += _ladder_ops(gen.stream(seed, 100 + g), n, d, f"f{g}")
    warm = _ladder_ops(gen.stream(seed, 1), 2, 2, "warm")[:2]
    return Workload(ops, warm)


# ---------------------------------------------------------------------- cli

_CLI_DIM = 2
# The experiment subcommands draw their instances with the package's own
# generators, and their cost varies by +-30% with the seed; a fixed seed keeps
# that out of the run-to-run spread.
_EXPERIMENT_SEED = "1"


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def _cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue())


def _doc_measure(pairs) -> dict:
    return {"atoms": [{"weight": w, "matrix": [float(v) for v in a.reshape(-1)]}
                      for a, w in pairs]}


def _cli_op(name, argv, expect_code, check=None):
    def full_check(res, outs):
        if res.code != expect_code:
            return f"exit code {res.code}, expected {expect_code}"
        return check(res, outs) if check else None
    return Op(name, lambda: _cli(argv), full_check)


def _verdict_check(mu, nu, holds):
    def check(res, _outs):
        doc = json.loads(res.stdout)
        if doc["holds"] is not holds:
            return f"verdict {doc['holds']}, expected {holds}"
        return _verdict_error(holds, doc["certificate"], mu, nu)
    return check


def _plan_check(mu, nu, p, plan_path):
    def check(res, _outs):
        doc = json.loads(Path(plan_path).read_text(encoding="utf-8"))
        dist = float(res.stdout.strip())
        if doc["distance"] != dist:
            return "plan file distance differs from the printed distance"
        return _plan_error(dist, np.asarray(doc["weights"], dtype=float), mu, nu, p)
    return check


def _thompson_check(x, y):
    def check(res, _outs):
        got = float(res.stdout.strip())
        want = float(gen.thompson(x[None], y[None])[0, 0])
        return None if gen.close(got, want, 1e-9) else f"Thompson {got!r}, LAPACK gives {want!r}"
    return check


def _mean_json_check(kind, mus, cfg):
    inner = _check_measure_mean(kind, mus, cfg)

    def check(res, outs):
        out = stochcone.measure_from_json(res.stdout)
        return inner(out, outs)
    return check


def _matrix_mean_check(kind, mats):
    cfg = means.MeanConfig(power_t=0.5)

    def check(res, _outs):
        doc = json.loads(res.stdout)
        d = mats[0].dim
        x = stochcone.posdef(np.asarray(doc["matrix"], dtype=float).reshape(d, d))
        return _check_tuple_mean(kind, x, mats, cfg)
    return check


def _bytes_equal(path_a, path_b):
    def check(_res, _outs):
        if Path(path_a).read_bytes() != Path(path_b).read_bytes():
            return f"{Path(path_b).name} differs from {Path(path_a).name}"
        return None
    return check


def build_cli(seed: int, workdir: Path) -> Workload:
    """Calls of the CLI entry point over one generated dataset file, which
    every call parses and validates again."""
    rng = gen.stream(seed, 100)
    d = _CLI_DIM
    mats = {f"m{k}": gen.rand_pd(rng, d, 0.6) for k in range(4)}
    raw = {}
    raw["e_lo"] = gen.rand_atoms(rng, d, 6)
    shift = gen.rand_shift(rng, d, 0.4)
    raw["e_hi"] = [(a + shift, w) for a, w in raw["e_lo"]]
    raw["b_lo"] = gen.rand_atoms(rng, d, 40)
    shift = gen.rand_shift(rng, d, 0.4)
    raw["b_hi"] = [(a + shift, w) for a, w in raw["b_lo"]]
    raw["b_alt"] = gen.rand_atoms(rng, d, 40)
    raw["f1"] = gen.rand_atoms(rng, d, 4)
    raw["f2"] = gen.rand_atoms(rng, d, 5)
    raw["f3"] = gen.rand_atoms(rng, d, 3)
    raw["f4"] = gen.rand_atoms(rng, d, 3)
    raw["g_lo"] = gen.rand_atoms(rng, d, 8)
    shift = gen.rand_shift(rng, d, 0.4)
    raw["g_hi"] = [(a + shift, w) for a, w in raw["g_lo"]]
    doc = {"dim": d,
           "matrices": {k: [float(v) for v in a.reshape(-1)] for k, a in mats.items()},
           "measures": {k: _doc_measure(v) for k, v in raw.items()}}
    data = workdir / "dataset.json"
    data.write_text(json.dumps(doc), encoding="utf-8")
    ds = cli.load_dataset(str(data))  # the measures as the CLI will see them
    m = ds.measures
    ds_path = str(data)

    def path(name):
        return str(workdir / name)

    def experiment(name, jobs, out):
        return ["experiment", name, "--seed", _EXPERIMENT_SEED, "--jobs", str(jobs),
                "--out", path(out)]

    cfg = means.MeanConfig()
    quick = [  # dominated by parsing the dataset
        _cli_op(f"thompson-{a}{b}", ["thompson", ds_path, f"m{a}", f"m{b}"], 0,
                _thompson_check(mats[f"m{a}"], mats[f"m{b}"]))
        for a, b in ((0, 1), (2, 3), (1, 2), (3, 0), (0, 2), (1, 3))
    ] + [
        _cli_op(f"mean-{kind}-{tag}", ["mean", kind, ds_path, *names, "-m"], 0,
                _mean_json_check(kind, [m[n] for n in names], cfg))
        for kind in ("arith", "harm", "karcher") for tag, names in (("f12", ("f1", "f2")),
                                                                   ("f34", ("f3", "f4")))
    ] + [
        _cli_op(f"dominates-both-{tag}", ["dominates", ds_path, lo, hi, "--method", "both"],
                code, _verdict_check(m[lo], m[hi], code == 0))
        for tag, lo, hi, code in (("up", "e_lo", "e_hi", 0), ("down", "e_hi", "e_lo", 1),
                                  ("up2", "g_lo", "g_hi", 0), ("down2", "g_hi", "g_lo", 1))
    ] + [
        _cli_op("mean-karcher-matrices", ["mean", "karcher", ds_path, "m0", "m1", "m2"], 0,
                _matrix_mean_check("karcher", [ds.matrices[k] for k in ("m0", "m1", "m2")])),
        _cli_op("mean-power-matrices", ["mean", "power:0.5", ds_path, "m1", "m2", "m3"], 0,
                _matrix_mean_check("power", [ds.matrices[k] for k in ("m1", "m2", "m3")])),
    ]
    heavy = [
        _cli_op("experiment-agh-j1", experiment("agh", 1, "agh1.csv"), 0),
        _cli_op("experiment-agh-j2", experiment("agh", 2, "agh2.csv"), 0,
                _bytes_equal(path("agh1.csv"), path("agh2.csv"))),
        _cli_op("experiment-closedness-j1", experiment("closedness", 1, "cl1.csv"), 0),
        _cli_op("experiment-closedness-j2", experiment("closedness", 2, "cl2.csv"), 0,
                _bytes_equal(path("cl1.csv"), path("cl2.csv"))),
        _cli_op("dominates-flow-up", ["dominates", ds_path, "b_lo", "b_hi"], 0,
                _verdict_check(m["b_lo"], m["b_hi"], True)),
        _cli_op("dominates-flow-down", ["dominates", ds_path, "b_hi", "b_lo"], 1,
                _verdict_check(m["b_hi"], m["b_lo"], False)),
        _cli_op("wasserstein-1", ["wasserstein", ds_path, "b_lo", "b_alt", "--plan",
                                  path("plan1.json")], 0,
                _plan_check(m["b_lo"], m["b_alt"], 1.0, path("plan1.json"))),
        _cli_op("wasserstein-2", ["wasserstein", ds_path, "b_lo", "b_alt", "--p", "2",
                                  "--plan", path("plan2.json")], 0,
                _plan_check(m["b_lo"], m["b_alt"], 2.0, path("plan2.json"))),
        _cli_op("mean-power-f12", ["mean", "power:0.5", ds_path, "f1", "f2", "-m"], 0,
                _mean_json_check("power", [m["f1"], m["f2"]], means.MeanConfig(power_t=0.5))),
    ]
    # Two quick calls for each heavy one, interleaved: the median lies inside
    # the quick cluster and the 90th percentile inside the heavy one.
    ops = [op for k, h in enumerate(heavy) for op in (quick[2 * k], quick[2 * k + 1], h)]
    ops += quick[2 * len(heavy):]
    return Workload(ops, quick[:2])


BUILDERS = {
    "transport": build_transport,
    "measure-means": build_measure_means,
    "power-ladder": build_power_ladder,
    "cli": build_cli,
}
