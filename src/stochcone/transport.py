"""Exact Wasserstein distances between finitely supported measures under the
Thompson ground metric.

The solver is a min-cost transportation flow on integer-scaled data (masses
on a 1e-9 grid, costs divided by their maximum and put on a 1e-12 grid), so
plans are exact optima of the quantized problem and optimality is certified
through the recovered dual prices, with a reduced-cost tolerance relative to
the largest cost.  The sup-distance uses a bottleneck threshold search instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _flow
from .cone import thompson_arrays, thompson_pairwise
from .matfun import DimensionMismatch
from .measure import FinMeasure

__all__ = [
    "Coupling",
    "CostMatrix",
    "cost_matrix",
    "wasserstein",
    "wasserstein_inf",
    "product_metric_distance",
]

_MARGINAL_TOL = 1e-9
_REDUCED_COST_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint weight matrix whose marginals match two given weight vectors."""

    weights: np.ndarray
    row_weights: np.ndarray
    col_weights: np.ndarray
    marginal_tol: float = _MARGINAL_TOL

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        r = np.asarray(self.row_weights, dtype=float)
        c = np.asarray(self.col_weights, dtype=float)
        if w.shape != (r.shape[0], c.shape[0]):
            raise DimensionMismatch("coupling shape does not match the marginals")
        if np.any(w < 0.0) or not np.isfinite(w).all():
            raise ValueError("coupling weights must be finite and nonnegative")
        row_err = float(np.abs(w.sum(axis=1) - r).max())
        col_err = float(np.abs(w.sum(axis=0) - c).max())
        if max(row_err, col_err) > self.marginal_tol:
            raise ValueError(
                f"coupling marginals off by {max(row_err, col_err):.3e} "
                f"(tolerance {self.marginal_tol:.1e})"
            )
        for arr in (w, r, c):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "row_weights", r)
        object.__setattr__(self, "col_weights", c)

    @property
    def support(self) -> list[tuple[int, int]]:
        idx = np.argwhere(self.weights > 0.0)
        return [(int(i), int(j)) for i, j in idx]


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Pairwise ground costs d_T(x_i, y_j)^p between two supports."""

    entries: np.ndarray
    p: float

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2:
            raise DimensionMismatch("cost matrix must be two-dimensional")
        if np.any(e < 0.0) or not np.isfinite(e).all():
            raise ValueError("costs must be finite and nonnegative")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)


def _check_pair(mu: FinMeasure, nu: FinMeasure):
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimension mismatch: {mu.dim} vs {nu.dim}")


def cost_matrix(mu: FinMeasure, nu: FinMeasure, p: float = 1.0) -> CostMatrix:
    """Thompson ground costs raised to the p-th power (p = inf keeps the
    plain distances)."""
    _check_pair(mu, nu)
    if not (p >= 1.0):
        raise ValueError(f"order p must satisfy p >= 1, got {p}")
    d = thompson_pairwise(mu.arrays, nu.arrays)
    return CostMatrix(d if math.isinf(p) else d ** p, p)


def _certify(costs: np.ndarray, flow: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Complementary-slackness check of the integer solution against the
    unquantized costs, normalized to a maximum of one; failures indicate an
    internal bug and name the first failing pair in row-major order."""
    reduced = costs - (u / _flow.COST_SCALE)[:, None] - v / _flow.COST_SCALE
    negative = reduced < -_REDUCED_COST_TOL
    bad = np.flatnonzero(negative | ((flow > 0) & (reduced > _REDUCED_COST_TOL)))
    if bad.size:
        i, j = divmod(int(bad[0]), costs.shape[1])
        if negative[i, j]:
            raise RuntimeError(
                f"optimality certificate failed: reduced cost {reduced[i, j]:.3e} "
                f"at ({i}, {j})"
            )
        raise RuntimeError(
            f"optimality certificate failed: slack {reduced[i, j]:.3e} on a "
            f"support pair ({i}, {j})"
        )


def wasserstein(mu: FinMeasure, nu: FinMeasure, p: float = 1.0) -> tuple[float, Coupling]:
    """Exact p-Wasserstein distance and an optimal coupling (finite p >= 1).

    Returns (distance, plan).  Costs are divided by their maximum before
    quantization.  The reported distance evaluates the optimal plan against
    unquantized costs, so quantization error is below 1e-12 of the largest
    cost per unit mass.
    """
    if math.isinf(p):
        raise ValueError("p must be finite; use wasserstein_inf for the sup distance")
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"order p must satisfy 1 <= p < inf, got {p}")
    _check_pair(mu, nu)
    if mu.size == 1 and nu.size == 1:
        # single-pair problem: the only coupling is the product
        d = thompson_arrays(mu.points[0].a, nu.points[0].a)
        plan = Coupling(np.array([[1.0]]), mu.weights, nu.weights)
        return d, plan
    costs = cost_matrix(mu, nu, p).entries
    a = _flow.apportion(mu.weights)
    b = _flow.apportion(nu.weights)
    # d_T^p spans many orders of magnitude; quantize and certify relative to
    # the largest cost so the grid and the tolerance scale with the data
    unit = costs / (costs.max() or 1.0)
    int_costs = np.rint(unit * _flow.COST_SCALE).astype(np.int64)
    flow, u, v = _flow.transportation_min_cost(a, b, int_costs)
    _certify(unit, flow, u, v)
    plan_w = flow / _flow.MASS_SCALE
    total = float((costs * plan_w).sum())
    plan = Coupling(plan_w, mu.weights, nu.weights)
    return total ** (1.0 / p), plan


def wasserstein_inf(mu: FinMeasure, nu: FinMeasure) -> tuple[float, Coupling]:
    """Sup-cost (bottleneck) Wasserstein distance with an attaining plan.

    Binary search over the sorted distinct ground costs; feasibility at a
    threshold is a bipartite max-flow question on the admissible pairs.
    """
    _check_pair(mu, nu)
    if mu.size == 1 and nu.size == 1:
        d = thompson_arrays(mu.points[0].a, nu.points[0].a)
        return d, Coupling(np.array([[1.0]]), mu.weights, nu.weights)
    costs = cost_matrix(mu, nu, math.inf).entries
    a = _flow.apportion(mu.weights)
    b = _flow.apportion(nu.weights)
    values = np.unique(costs).tolist()

    def feasible(thr: float):
        edges = (costs <= thr).tolist()
        value, flow, _ = _flow.bipartite_max_flow(a, b, edges)
        return value == _flow.MASS_SCALE, flow

    lo, hi = 0, len(values) - 1
    ok, best_flow = feasible(values[hi])
    if not ok:
        raise RuntimeError("full-support threshold infeasible; marginals corrupt")
    while lo < hi:
        mid = (lo + hi) // 2
        ok, flow = feasible(values[mid])
        if ok:
            hi = mid
            best_flow = flow
        else:
            lo = mid + 1
    plan_w = np.asarray(best_flow, dtype=float) / _flow.MASS_SCALE
    plan = Coupling(plan_w, mu.weights, nu.weights)
    return values[hi], plan


def product_metric_distance(xs, ys, mode: str = "mean") -> float:
    """Distance between tuples of positive-definite points: the averaged or
    the maximal coordinate-wise Thompson distance."""
    if len(xs) != len(ys) or not xs:
        raise DimensionMismatch("tuples must be nonempty and of equal length")
    dists = [thompson_arrays(x.a, y.a) for x, y in zip(xs, ys)]
    if mode == "mean":
        return sum(dists) / len(dists)
    if mode == "max":
        return max(dists)
    raise ValueError(f"unknown mode {mode!r}; expected 'mean' or 'max'")
