"""The cone of symmetric positive-definite matrices: Loewner order and
Thompson part metric.

Order checks are closed-cone tests: x <= y holds when the smallest
eigenvalue of y - x clears -eps * (1 + ||y - x||_F), so the answer is stable
under perturbations of the order of eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matfun import (
    DimensionMismatch,
    SpectralDomainError,
    SymMatrix,
    _cholesky,
    _eig,
    frobenius,
    sym,
)

__all__ = [
    "PosDefMatrix",
    "OrderTolerance",
    "OrderRelation",
    "NotPositiveDefinite",
    "posdef",
    "posdef_eye",
    "loewner_leq",
    "loewner_pairwise",
    "order_compare",
    "gauge",
    "thompson_distance",
    "thompson_arrays",
    "thompson_pairwise",
    "translate",
    "order_interval_contains",
    "dominating_transport",
]

DEFAULT_PD_FLOOR = 1e-12


class NotPositiveDefinite(ValueError):
    """Matrix is not positive definite to within the configured floor."""

    def __init__(self, min_eigenvalue: float, floor: float):
        self.min_eigenvalue = min_eigenvalue
        self.floor = floor
        super().__init__(
            f"smallest eigenvalue {min_eigenvalue:.6e} does not clear the "
            f"positive-definite floor {floor:.1e}"
        )


@dataclass(frozen=True)
class OrderTolerance:
    """Relative slack for closed-order membership tests."""

    eps: float = 1e-10

    def __post_init__(self):
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.eps}")


@dataclass(frozen=True, eq=False)
class PosDefMatrix:
    """Symmetric positive-definite matrix (spectrum above pd_floor)."""

    m: SymMatrix
    pd_floor: float = DEFAULT_PD_FLOOR

    def __post_init__(self):
        w, _ = _eig(self.m.entries, want_vectors=False)
        if w[0] <= self.pd_floor:
            raise NotPositiveDefinite(float(w[0]), self.pd_floor)

    @property
    def a(self) -> np.ndarray:
        return self.m.entries

    @property
    def dim(self) -> int:
        return self.m.dim

    def __repr__(self) -> str:
        return f"PosDefMatrix({self.a.tolist()!r})"


def posdef(entries, pd_floor: float = DEFAULT_PD_FLOOR) -> PosDefMatrix:
    """Build a PosDefMatrix from any square array-like."""
    return PosDefMatrix(sym(entries), pd_floor)


def posdef_eye(dim: int, scale: float = 1.0) -> PosDefMatrix:
    return posdef(np.eye(dim) * scale)


def _unwrap(x) -> np.ndarray:
    if isinstance(x, PosDefMatrix):
        return x.a
    if isinstance(x, SymMatrix):
        return x.entries
    return np.asarray(x, dtype=float)


def _stacks(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    ax = np.asarray(xs, dtype=float)
    ay = np.asarray(ys, dtype=float)
    if ax.ndim != 3 or ay.ndim != 3 or ax.shape[1:] != ay.shape[1:]:
        raise DimensionMismatch(f"dimension mismatch: {ax.shape} vs {ay.shape}")
    return ax, ay


def loewner_pairwise(xs, ys, tol: OrderTolerance = OrderTolerance()) -> np.ndarray:
    """Closed Loewner order tests x_i <= y_j for every pair of an (n, d, d)
    and an (m, d, d) stack, as an (n, m) boolean array from one batched
    eigvalsh call.

    Accepts the smallest eigenvalue of y_j - x_i down to
    -eps * (1 + ||y_j - x_i||_F).
    """
    ax, ay = _stacks(xs, ys)
    diff = ay[None, :] - ax[:, None]
    w, _ = _eig((diff + np.swapaxes(diff, -1, -2)) / 2.0, want_vectors=False)
    return w[..., 0] >= -tol.eps * (1.0 + np.sqrt((diff * diff).sum(axis=(-2, -1))))


def loewner_leq(x, y, tol: OrderTolerance = OrderTolerance()) -> bool:
    """Closed Loewner order test: is y - x positive semidefinite?

    Accepts sign of the smallest eigenvalue of y - x down to
    -eps * (1 + ||y - x||_F).
    """
    return bool(loewner_pairwise(_unwrap(x)[None], _unwrap(y)[None], tol)[0, 0])


class OrderRelation(Enum):
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


def order_compare(x, y, tol: OrderTolerance = OrderTolerance()) -> OrderRelation:
    """Classify the pair under the Loewner order; ties within tolerance in
    both directions report EQ."""
    le = loewner_leq(x, y, tol)
    ge = loewner_leq(y, x, tol)
    if le and ge:
        return OrderRelation.EQ
    if le:
        return OrderRelation.LT
    if ge:
        return OrderRelation.GT
    return OrderRelation.INCOMPARABLE


def _whitened_spectra(xs, ys) -> np.ndarray:
    """Eigenvalues of L_j^{-1} x_i L_j^{-T}, where y_j = L_j L_j^T, for every
    pair of two stacks, as an (n, m, d) array ascending along the last axis.

    Whitening by the Cholesky factor keeps the spectra accurate when they
    span many orders of magnitude; each y_j is factored once and all n*m
    spectra come from one eigvalsh call.
    """
    ax, ay = _stacks(xs, ys)
    li = np.linalg.inv(_cholesky(ay))
    m = li @ ax[:, None] @ np.swapaxes(li, -1, -2)
    w, _ = _eig((m + np.swapaxes(m, -1, -2)) / 2.0, want_vectors=False)
    return w


def thompson_pairwise(xs, ys) -> np.ndarray:
    """Thompson distances d_T(x_i, y_j) between every pair of an (n, d, d)
    and an (m, d, d) stack of positive-definite arrays, as an (n, m) array.

    Both gauges are read off one whitened spectrum: log of its top
    eigenvalue, and minus log of its bottom one.
    """
    w = _whitened_spectra(xs, ys)
    if not (w[..., 0] > 0.0).all():
        raise SpectralDomainError("log", float(w[..., 0].min()))
    return np.maximum(0.0, np.maximum(np.log(w[..., -1]), -np.log(w[..., 0])))


def thompson_arrays(ax: np.ndarray, ay: np.ndarray) -> float:
    """Thompson distance on raw arrays assumed positive definite."""
    return float(thompson_pairwise(np.asarray(ax)[None], np.asarray(ay)[None])[0, 0])


def gauge(x: PosDefMatrix, y: PosDefMatrix) -> float:
    """Least lambda with x <= lambda * y; equals the top eigenvalue of
    y^{-1/2} x y^{-1/2}."""
    return float(_whitened_spectra(x.a[None], y.a[None])[0, 0, -1])


def thompson_distance(x: PosDefMatrix, y: PosDefMatrix) -> float:
    """Thompson part metric max(log gauge(x, y), log gauge(y, x)).

    Both gauges are read off one whitened spectrum: the reverse gauge is the
    reciprocal of the smallest eigenvalue.
    """
    return thompson_arrays(x.a, y.a)


def translate(x: PosDefMatrix, a: SymMatrix, tol: OrderTolerance = OrderTolerance()) -> PosDefMatrix:
    """Shift x by a positive-semidefinite increment a."""
    if x.dim != a.dim:
        raise DimensionMismatch(f"dimension mismatch: {x.dim} vs {a.dim}")
    w, _ = _eig(a.entries, want_vectors=False)
    if w[0] < -tol.eps * (1.0 + frobenius(a)):
        raise ValueError(
            f"translation increment is not positive semidefinite "
            f"(min eigenvalue {w[0]:.6e})"
        )
    return PosDefMatrix(SymMatrix(x.a + a.entries), x.pd_floor)


def order_interval_contains(lo: PosDefMatrix, hi: PosDefMatrix, w,
                            tol: OrderTolerance = OrderTolerance()) -> bool:
    """Membership of w in the order interval [lo, hi]."""
    if not loewner_leq(lo, hi, tol):
        raise ValueError("empty order interval: lo is not below hi")
    return loewner_leq(lo, w, tol) and loewner_leq(w, hi, tol)


def dominating_transport(x: PosDefMatrix, y: PosDefMatrix, x1: PosDefMatrix,
                         tol: OrderTolerance = OrderTolerance()) -> PosDefMatrix:
    """Given x <= y, move y alongside a move x -> x1 without breaking
    dominance: returns y1 = x1 + (y - x), which satisfies x1 <= y1 and
    d_T(y, y1) <= d_T(x, x1)."""
    if not loewner_leq(x, y, tol):
        raise ValueError("dominating_transport needs x below y")
    return PosDefMatrix(SymMatrix(x1.a + (y.a - x.a)), x1.pd_floor)
