"""Seeded desk-scale experiments behind the CLI's `experiment` subcommand.

Each experiment generates independent instances keyed by (seed, instance
index) through the Philox scheme in make_rng, so a run is reproducible bit
for bit and instances can be farmed out to worker processes in any order.

Experiments and their CSV columns:

- agh: instance, dim, n_measures, product_atoms, h_le_g, g_le_a.
  Harmonic/geometric/arithmetic measure-mean chain in the stochastic order;
  both verdict columns are expected true on every row.
- pt-convergence: instance, dim, n, t, dt_pt_karcher.
  Distance from the power mean to the least-squares mean along the ladder
  t = 0.5, 0.25, 0.1, 0.05, 0.01; expected nonincreasing per instance.
- monotone-chain: chain, k, d1w_to_limit, probe_1, probe_2, probe_3.
  Increasing translation chains; the 1-Wasserstein distance to the limit
  drops (final <= 0.1 * first) and each monotone probe integral never drops.
- closedness: seq, k, d1w_mu, d1w_nu, pair_dominates, limit_dominates.
  Dominating pairs pushed along a vanishing translation; dominance holds at
  mass tolerance 0 along the sequence and at 1e-8 in the limit.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cone import PosDefMatrix, posdef, thompson_distance
from .matfun import SymMatrix, frobenius, matrix_fn, sym
from .means import MeanConfig, agh_check, karcher_mean, power_mean
from .measure import FinMeasure, from_atoms, make_rng, push_forward
from .order import _draw_hinge, dominates_by_coupling
from .transport import wasserstein

__all__ = [
    "EXPERIMENT_NAMES",
    "ExperimentResult",
    "run_experiment",
    "experiment_columns",
    "default_count",
]

_POWER_LADDER = (0.5, 0.25, 0.1, 0.05, 0.01)
_CHAIN_STEPS = 20
_CLOSEDNESS_STEPS = 8
_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    columns: tuple[str, ...]
    rows: list[list]
    ok: bool


# ----------------------------------------------------------------- generators


def rand_sym_arr(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((d, d))
    s = (g + g.T) / 2.0
    n = frobenius(s)
    return s * (radius / n) if n > 0.0 else s


def rand_pd(rng: np.random.Generator, d: int, radius: float = 0.6) -> PosDefMatrix:
    """exp of a symmetric matrix of bounded Frobenius norm."""
    s = rand_sym_arr(rng, d, radius * float(rng.uniform(0.3, 1.0)))
    return PosDefMatrix(matrix_fn(sym(s), "exp"))


def rand_psd_shift(rng: np.random.Generator, d: int, radius: float) -> SymMatrix:
    g = rng.standard_normal((d, d))
    s = g @ g.T
    return sym(s * (radius / frobenius(s)))


def rand_measure(rng: np.random.Generator, d: int, n_atoms: int,
                 radius: float = 0.6) -> FinMeasure:
    w = rng.random(n_atoms) + 0.1
    return from_atoms([(rand_pd(rng, d, radius), float(x)) for x in w])


def _translate_measure(mu: FinMeasure, shift: SymMatrix) -> FinMeasure:
    return push_forward(mu, lambda p: posdef(p.a + shift.entries, p.pd_floor))


# ---------------------------------------------------------------- experiments


def _agh_rows(seed: int, index: int) -> list[list]:
    rng = make_rng(seed, index)
    dim = int(rng.integers(2, 4))
    n_measures = int(rng.integers(2, 4))
    mus = [rand_measure(rng, dim, int(rng.integers(1, 3))) for _ in range(n_measures)]
    product_atoms = 1
    for m in mus:
        product_atoms *= m.size
    report = agh_check(mus)
    return [[index, dim, n_measures, product_atoms,
             bool(report.harm_vs_karcher.holds),
             bool(report.karcher_vs_arith.holds)]]


def _agh_verify(rows: list[list]) -> bool:
    return all(r[4] and r[5] for r in rows)


def _pt_rows(seed: int, index: int) -> list[list]:
    rng = make_rng(seed, index)
    dim = int(rng.integers(2, 4))
    n = int(rng.integers(2, 4))
    mats = [rand_pd(rng, dim, 0.4) for _ in range(n)]
    lam = karcher_mean(mats)
    cfg = MeanConfig(max_iter=20000)
    rows = []
    for t in _POWER_LADDER:
        dist = thompson_distance(power_mean(mats, t, cfg), lam)
        rows.append([index, dim, n, t, dist])
    return rows


def _pt_verify(rows: list[list]) -> bool:
    by_instance: dict[int, list[float]] = {}
    for r in rows:
        by_instance.setdefault(r[0], []).append(r[4])
    for dists in by_instance.values():
        for a, b in zip(dists, dists[1:]):
            if b > a + _MONOTONE_SLACK:
                return False
    return True


def _chain_rows(seed: int, index: int) -> list[list]:
    rng = make_rng(seed, index)
    dim = int(rng.integers(2, 4))
    mu = rand_measure(rng, dim, int(rng.integers(2, 4)), radius=1.0)
    shift = rand_psd_shift(rng, dim, 0.5)
    limit = _translate_measure(mu, shift)
    probes = [_draw_hinge(rng, dim, mu.points + limit.points)[0] for _ in range(3)]
    rows = []
    for k in range(1, _CHAIN_STEPS + 1):
        scale = 1.0 - 1.0 / k
        mu_k = _translate_measure(mu, sym(shift.entries * scale)) if scale > 0 else mu
        dist, _ = wasserstein(mu_k, limit, 1.0)
        rows.append([index, k, dist] + [p(mu_k) for p in probes])
    return rows


def _chain_verify(rows: list[list]) -> bool:
    by_chain: dict[int, list[list]] = {}
    for r in rows:
        by_chain.setdefault(r[0], []).append(r)
    for chain in by_chain.values():
        chain.sort(key=lambda r: r[1])
        dists = [r[2] for r in chain]
        for a, b in zip(dists, dists[1:]):
            if b > a + _MONOTONE_SLACK:
                return False
        if dists[-1] > max(0.1 * dists[0], 1e-12):
            return False
        for col in (3, 4, 5):
            vals = [r[col] for r in chain]
            for a, b in zip(vals, vals[1:]):
                if b < a - 1e-12:
                    return False
    return True


def _closedness_rows(seed: int, index: int) -> list[list]:
    rng = make_rng(seed, index)
    dim = int(rng.integers(2, 4))
    mu = rand_measure(rng, dim, int(rng.integers(2, 4)), radius=1.0)
    up = rand_psd_shift(rng, dim, 0.4)
    # strictly positive-definite lift keeps dominance robust along the way
    lift = sym(up.entries + 0.05 * np.eye(dim))
    nu = _translate_measure(mu, lift)
    drift = rand_psd_shift(rng, dim, 0.5)
    rows = []
    limit_holds = bool(dominates_by_coupling(mu, nu, tol=1e-8))
    for k in range(1, _CLOSEDNESS_STEPS + 1):
        step = sym(drift.entries / k)
        mu_k = _translate_measure(mu, step)
        nu_k = _translate_measure(nu, step)
        d_mu, _ = wasserstein(mu_k, mu, 1.0)
        d_nu, _ = wasserstein(nu_k, nu, 1.0)
        holds_k = bool(dominates_by_coupling(mu_k, nu_k, tol=0.0))
        rows.append([index, k, d_mu, d_nu, holds_k, limit_holds])
    return rows


def _closedness_verify(rows: list[list]) -> bool:
    by_seq: dict[int, list[list]] = {}
    for r in rows:
        by_seq.setdefault(r[0], []).append(r)
    for seq in by_seq.values():
        seq.sort(key=lambda r: r[1])
        if not all(r[4] for r in seq) or not all(r[5] for r in seq):
            return False
        for col in (2, 3):
            vals = [r[col] for r in seq]
            for a, b in zip(vals, vals[1:]):
                if b > a + _MONOTONE_SLACK:
                    return False
    return True


_REGISTRY: dict[str, tuple] = {
    # name -> (columns, row fn, verify fn, default instance count)
    "agh": (("instance", "dim", "n_measures", "product_atoms", "h_le_g", "g_le_a"),
            _agh_rows, _agh_verify, 10),
    "pt-convergence": (("instance", "dim", "n", "t", "dt_pt_karcher"),
                       _pt_rows, _pt_verify, 3),
    "monotone-chain": (("instance", "k", "d1w_to_limit", "probe_1", "probe_2",
                        "probe_3"),
                       _chain_rows, _chain_verify, 5),
    "closedness": (("instance", "k", "d1w_mu", "d1w_nu", "pair_dominates",
                    "limit_dominates"),
                   _closedness_rows, _closedness_verify, 5),
}

EXPERIMENT_NAMES = tuple(_REGISTRY)


def experiment_columns(name: str) -> tuple[str, ...]:
    return _REGISTRY[name][0]


def default_count(name: str) -> int:
    return _REGISTRY[name][3]


def _instance_rows(name: str, seed: int, index: int) -> list[list]:
    return _REGISTRY[name][1](seed, index)


def run_experiment(name: str, seed: int, count: int | None = None,
                   jobs: int = 1) -> ExperimentResult:
    """Run `count` independent instances and verify the expected property.

    Output is independent of `jobs`: instance index keys the generator and
    rows are assembled in index order.
    """
    if name not in _REGISTRY:
        raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}")
    columns, _, verify, default_n = _REGISTRY[name]
    n = default_n if count is None else count
    if n < 1:
        raise ValueError("count must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        chunks = [_instance_rows(name, seed, i) for i in range(n)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_instance_rows, name, seed, i) for i in range(n)]
            chunks = [f.result() for f in futures]
    rows = [row for chunk in chunks for row in chunk]
    return ExperimentResult(name, columns, rows, verify(rows))
