"""Matrix means on the positive-definite cone and their lifts to finitely
supported measures.

Every mean runs on (n, N, d, d) stacks of N tuples, one batched
eigendecomposition per spectral step; the one-tuple functions are their
N = 1 case.  Arithmetic and harmonic means are closed forms, the Karcher
mean is found by a damped fixed-point iteration on the matrix
exponential/logarithm, and power means by their defining fixed point, with
the negative orders obtained from the positive ones by inversion duality.
Measure-level means push the product measure forward through the matching
tuple mean, exactly when the product support fits under the configured cap
and by seeded Monte Carlo sampling otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cone import PosDefMatrix
from .matfun import DimensionMismatch, SpectralDomainError, SymMatrix, _eig
from .measure import FinMeasure, ProductCapExceeded, _draw, from_atoms, make_rng
from .order import DominanceVerdict, dominates_by_coupling

__all__ = [
    "MeanConfig",
    "MeanIterationInfo",
    "MaxIterationsExceeded",
    "AghReport",
    "MEAN_KINDS",
    "arith_mean",
    "harm_mean",
    "geo_t",
    "karcher_mean",
    "karcher_mean_info",
    "karcher_residual",
    "power_mean",
    "tuple_mean",
    "measure_mean",
    "agh_check",
]

MEAN_KINDS = ("arith", "harm", "karcher", "power")
_MIN_STEP = 1e-12


class MaxIterationsExceeded(RuntimeError):
    """Iteration cap hit, or step size collapsed, before the convergence
    criterion; `step` is the collapsed step, or None for the cap."""

    def __init__(self, what: str, residual: float, max_iter: int,
                 step: float | None = None):
        self.residual = residual
        self.step = step
        why = (f"did not converge within {max_iter} iterations" if step is None
               else f"stalled: step size collapsed to {step:.3e}, below {_MIN_STEP:.0e}")
        super().__init__(f"{what} {why}; last residual {residual:.6e}")


@dataclass(frozen=True)
class MeanConfig:
    """Iteration and lifting controls shared by the mean computations."""

    karcher_tol: float = 1e-10
    max_iter: int = 200
    step_shrink: float = 0.5
    power_t: float = 0.5
    product_cap: int = 4096
    mc_samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.karcher_tol > 0.0 and math.isfinite(self.karcher_tol)):
            raise ValueError("karcher_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.step_shrink < 1.0):
            raise ValueError("step_shrink must sit strictly between 0 and 1")
        if not (-1.0 <= self.power_t <= 1.0):
            raise ValueError("power_t must lie in [-1, 1]")
        if self.product_cap < 1:
            raise ValueError("product_cap must be >= 1")
        if self.mc_samples is not None and self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1 when set")


@dataclass(frozen=True)
class MeanIterationInfo:
    residual: float
    iterations: int
    step: float


def _collect(mats: Sequence[PosDefMatrix]) -> np.ndarray:
    if not mats:
        raise ValueError("mean of an empty family is undefined")
    d = mats[0].dim
    for m in mats:
        if m.dim != d:
            raise DimensionMismatch("mean inputs have mixed dimensions")
    return np.stack([m.a for m in mats])


def _wrap(arr: np.ndarray) -> PosDefMatrix:
    return PosDefMatrix(SymMatrix(arr))


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.swapaxes(-1, -2)) / 2.0


def _tuple_sum(a) -> np.ndarray:
    """a[0] + a[1] + ... in order: the sum of a list of matrices, or the
    tuple sums of an (n, N, d, d) stack of N tuples."""
    out = a[0]
    for x in a[1:]:
        out = out + x
    return out


def _arith(a) -> np.ndarray:
    return _tuple_sum(a) / len(a)


# numpy's vectorized log/exp may differ from the math module in the last
# bit, so matfun._fn keeps its per-eigenvalue maps for matrix_fn's outputs
# and the stacked kernels use these
_ARRAY_MAPS = {"log": np.log, "exp": np.exp, "inv": np.reciprocal}


def _assemble(q: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """Q diag(fw) Q^T for every matrix of a stack."""
    return _sym((q * fw[..., None, :]) @ q.swapaxes(-1, -2))


def _positive(fn: str, w: np.ndarray) -> None:
    low = w[..., 0].reshape(-1)
    if not (low > 0.0).all():
        raise SpectralDomainError(fn, float(low[~(low > 0.0)][0]))


def _spectral(a: np.ndarray, fn: str, t: float | None = None) -> np.ndarray:
    """Spectral map of every matrix of a (..., d, d) stack from one batched
    eigendecomposition: log, exp, inv, or pow with exponent t; all maps but
    exp need a positive spectrum."""
    w, q = _eig(a)
    if fn != "exp":
        _positive(fn, w)
    return _assemble(q, w ** t if fn == "pow" else _ARRAY_MAPS[fn](w))


def _harm(a: np.ndarray) -> np.ndarray:
    return _spectral(_arith(_spectral(a, "inv")), "inv")


def _roots(x: np.ndarray):
    """x^{1/2} and x^{-1/2} for every matrix of a stack, from one batched
    eigendecomposition."""
    w, q = _eig(x)
    _positive("inv_sqrt", w)
    root = np.sqrt(w)
    return _assemble(q, root), _assemble(q, 1.0 / root)


def _log_sum(x: np.ndarray, a: np.ndarray):
    """For an (N, d, d) stack x and an (n, N, d, d) stack of tuples: the sums
    of log(x^{-1/2} a_j x^{-1/2}) over each tuple, plus x^{1/2}."""
    sq, rs = _roots(x)
    logs = _spectral(_sym(rs @ a @ rs), "log")
    return _sym(_tuple_sum(logs)), sq


def _geo_mean(x: np.ndarray, a: np.ndarray, t: float):
    """For an (N, d, d) stack x and an (n, N, d, d) stack of tuples: the
    means (1/n) sum_j x #_t a_j, computed as
    x^{1/2} ((1/n) sum_j (x^{-1/2} a_j x^{-1/2})^t) x^{1/2}, plus x^{-1/2}."""
    sq, rs = _roots(x)
    mid = _arith(_spectral(_sym(rs @ a @ rs), "pow", t))
    return _sym(sq @ mid @ sq), rs


def _norms(g: np.ndarray) -> np.ndarray:
    return np.sqrt((g * g).sum(axis=(-2, -1)))


def _karcher(a: np.ndarray, cfg: MeanConfig):
    """Karcher means of an (n, N, d, d) stack of N tuples, as arrays of
    (means, residuals, iterations, steps).

    Each tuple keeps its own step size and stays active until its gradient
    norm reaches karcher_tol * n.  Batched operations act matrix by matrix,
    so a tuple's result is bitwise the same alone and in any batch.  Tuples
    that hit max_iter or whose step collapses stop; once the rest finish,
    the lowest one's MaxIterationsExceeded is raised.
    """
    n, count = a.shape[:2]
    x = _arith(a)
    grad, sq = _log_sum(x, a)
    res = _norms(grad)
    step = np.ones(count)
    iters = np.zeros(count, dtype=int)
    goal = cfg.karcher_tol * n
    where = "" if count == 1 else " on tuple {}"
    failed: dict[int, MaxIterationsExceeded] = {}
    live = np.flatnonzero(res > goal)
    while live.size:
        iters[live] += 1
        for k in live[iters[live] > cfg.max_iter].tolist():
            failed[k] = MaxIterationsExceeded("Karcher iteration" + where.format(k),
                                              float(res[k]), cfg.max_iter)
        live = live[iters[live] <= cfg.max_iter]
        move = _spectral(grad[live] * (step[live] / n)[:, None, None], "exp")
        cand = _sym(sq[live] @ move @ sq[live])
        grad_c, sq_c = _log_sum(cand, a[:, live])
        res_c = _norms(grad_c)
        better = res_c < res[live]
        won, lost = live[better], live[~better]
        x[won], grad[won] = cand[better], grad_c[better]
        sq[won], res[won] = sq_c[better], res_c[better]
        step[lost] *= cfg.step_shrink
        for k in lost[step[lost] < _MIN_STEP].tolist():
            failed[k] = MaxIterationsExceeded("Karcher step search" + where.format(k),
                                              float(res[k]), cfg.max_iter, float(step[k]))
        live = live[(res[live] > goal) & (step[live] >= _MIN_STEP)]
    if failed:
        raise failed[min(failed)]
    return x, res, iters, step


def _power(a: np.ndarray, t: float, cfg: MeanConfig):
    """Power means of order t of an (n, N, d, d) stack of N tuples, as arrays
    of (means, error bounds, iterations).

    Iterates x <- (1/n) sum_j x #_|t| a_j from the arithmetic mean, on the
    inverted tuples when t < 0.  The map contracts the Thompson metric by
    1 - |t| and inversion is a Thompson isometry, so the Banach bound
    (1 - |t|)/|t| * d_T(x_k, x_{k-1}) bounds the distance of x_k to the
    mean; a tuple stops once it is at most karcher_tol.  Batched operations
    act matrix by matrix, so a tuple's result is bitwise the same alone and
    in any batch.  Live tuples share their iteration count, so the lowest
    one left at max_iter raises MaxIterationsExceeded.
    """
    if t == 0.0:
        raise ValueError("t = 0 is the Karcher limit; call karcher_mean instead")
    if not (-1.0 <= t <= 1.0):
        raise ValueError(f"power mean order must lie in [-1, 1], got {t}")
    s = abs(t)
    if t < 0.0:
        a = _spectral(a, "inv")
    count = a.shape[1]
    x = _arith(a)
    bound = np.full(count, math.inf)
    iters = np.zeros(count, dtype=int)
    live = np.arange(count)
    for it in range(1, cfg.max_iter + 1):
        nxt, rs = _geo_mean(x[live], a[:, live], s)
        w, _ = _eig(_sym(rs @ nxt @ rs), want_vectors=False)
        _positive("log", w)
        x[live] = nxt
        bound[live] = (1.0 - s) / s * np.maximum(np.log(w[:, -1]), -np.log(w[:, 0]))
        iters[live] = it
        live = live[bound[live] > cfg.karcher_tol]
        if not live.size:
            return (_spectral(x, "inv") if t < 0.0 else x), bound, iters
    k = int(live[0])
    where = "" if count == 1 else f" on tuple {k}"
    raise MaxIterationsExceeded(f"power mean (t={t}){where}", float(bound[k]), cfg.max_iter)


def arith_mean(mats: Sequence[PosDefMatrix]) -> PosDefMatrix:
    """Arithmetic mean."""
    return _wrap(_arith(_collect(mats)))


def harm_mean(mats: Sequence[PosDefMatrix]) -> PosDefMatrix:
    """Harmonic mean: the inverse of the averaged inverses."""
    return _wrap(_harm(_collect(mats)[:, None])[0])


def geo_t(a: PosDefMatrix, b: PosDefMatrix, t: float) -> PosDefMatrix:
    """Weighted geometric mean a #_t b for t in [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"interpolation weight must lie in [0, 1], got {t}")
    arrs = _collect([a, b])
    return _wrap(_geo_mean(arrs[0][None], arrs[1][None, None], t)[0][0])


def karcher_mean(mats: Sequence[PosDefMatrix], cfg: MeanConfig = MeanConfig()) -> PosDefMatrix:
    """Least-squares (Karcher) mean of the family.

    Damped fixed-point iteration started at the arithmetic mean; the step is
    shrunk whenever the gradient norm fails to decrease, and the result
    satisfies ||sum_j log(x^{-1/2} a_j x^{-1/2})||_F <= karcher_tol * n.
    The one-tuple case of the stacked kernel that measure_mean runs.
    """
    return karcher_mean_info(mats, cfg)[0]


def karcher_mean_info(mats: Sequence[PosDefMatrix],
                      cfg: MeanConfig = MeanConfig()) -> tuple[PosDefMatrix, MeanIterationInfo]:
    x, res, iters, step = _karcher(_collect(mats)[:, None], cfg)
    return _wrap(x[0]), MeanIterationInfo(float(res[0]), int(iters[0]), float(step[0]))


def karcher_residual(x: PosDefMatrix, mats: Sequence[PosDefMatrix]) -> float:
    """Gradient norm of the least-squares objective at x, evaluated fresh."""
    arrs = _collect(mats)
    if x.dim != mats[0].dim:
        raise DimensionMismatch("dimension mismatch between candidate and family")
    grad, _ = _log_sum(x.a[None], arrs[:, None])
    return float(_norms(grad)[0])


def power_mean(mats: Sequence[PosDefMatrix], t: float,
               cfg: MeanConfig = MeanConfig()) -> PosDefMatrix:
    """Power mean of order t in [-1, 1] excluding 0.

    Positive orders solve the fixed point x = (1/n) sum_j x #_t a_j; negative
    orders are the inversion duals of the positive ones.  The order-0 limit
    is the Karcher mean; request it through karcher_mean.

    The iteration contracts the Thompson metric by 1 - |t| and stops on the
    Banach a-posteriori bound, so the result lies within karcher_tol of the
    exact power mean in the Thompson metric, up to rounding.  The one-tuple
    case of the stacked kernel that measure_mean runs.
    """
    return _wrap(_power(_collect(mats)[:, None], t, cfg)[0][0])


def _stacked_mean(kind: str, a: np.ndarray, cfg: MeanConfig) -> np.ndarray:
    """The named mean of every tuple of an (n, N, d, d) stack."""
    if kind == "arith":
        return _arith(a)
    if kind == "harm":
        return _harm(a)
    if kind == "karcher":
        return _karcher(a, cfg)[0]
    if kind == "power":
        return _power(a, cfg.power_t, cfg)[0]
    raise ValueError(f"unknown mean kind {kind!r}; expected one of {MEAN_KINDS}")


def tuple_mean(kind: str, mats: Sequence[PosDefMatrix],
               cfg: MeanConfig = MeanConfig()) -> PosDefMatrix:
    """Dispatch a named mean over a tuple of points: the one-tuple case of
    the stacked kernels."""
    return _wrap(_stacked_mean(kind, _collect(mats)[:, None], cfg)[0])


def measure_mean(kind: str, mus: Sequence[FinMeasure],
                 cfg: MeanConfig = MeanConfig()) -> FinMeasure:
    """Mean of measures: push the product measure through the tuple mean.

    Runs exactly when the product support holds at most cfg.product_cap
    atoms.  Beyond the cap, cfg.mc_samples independent draws from each factor
    are averaged instead (seeded, reproducible); the sample count is recorded
    under meta["mc_samples"].

    The tuples, in product or draw order, are gathered by index into one
    (n, N, d, d) stack.  Arithmetic and harmonic means are closed forms over
    the stack; Karcher and power means are one stacked iteration each, whose
    atoms equal karcher_mean and power_mean of their tuple bit for bit.
    from_atoms then pools coinciding means.
    """
    if kind not in MEAN_KINDS:
        raise ValueError(f"unknown mean kind {kind!r}; expected one of {MEAN_KINDS}")
    if not mus:
        raise ValueError("mean of an empty family of measures is undefined")
    d = mus[0].dim
    for m in mus:
        if m.dim != d:
            raise DimensionMismatch("measures have mixed dimensions")
    sizes = [m.size for m in mus]
    size = math.prod(sizes)
    if size <= cfg.product_cap:
        idx = np.indices(sizes).reshape(len(mus), -1)
        weights = np.ones(size)
        for m, col in zip(mus, idx):
            weights = weights * m.weights[col]
        meta = {"mode": "exact"}
    elif cfg.mc_samples is None:
        raise ProductCapExceeded(size, cfg.product_cap)
    else:
        k = cfg.mc_samples
        rng = make_rng(cfg.seed)
        idx = np.stack([_draw(m, k, rng) for m in mus])
        weights = np.full(k, 1.0 / k)
        meta = {"mode": "sampled", "mc_samples": k}
    a = np.stack([m.arrays[col] for m, col in zip(mus, idx)])
    points = [_wrap(x) for x in _stacked_mean(kind, a, cfg)]
    return from_atoms(zip(points, weights), meta=meta)


@dataclass(frozen=True)
class AghReport:
    """Dominance verdicts for the harmonic <= Karcher <= arithmetic chain of
    measure means."""

    harm_vs_karcher: DominanceVerdict
    karcher_vs_arith: DominanceVerdict

    @property
    def holds(self) -> bool:
        return self.harm_vs_karcher.holds and self.karcher_vs_arith.holds


def agh_check(mus: Sequence[FinMeasure], cfg: MeanConfig = MeanConfig(),
              tol: float = 1e-8) -> AghReport:
    """Verify the arithmetic-geometric-harmonic chain in the stochastic
    order for the given family of measures."""
    harm = measure_mean("harm", mus, cfg)
    karcher = measure_mean("karcher", mus, cfg)
    arith = measure_mean("arith", mus, cfg)
    return AghReport(
        harm_vs_karcher=dominates_by_coupling(harm, karcher, tol),
        karcher_vs_arith=dominates_by_coupling(karcher, arith, tol),
    )
