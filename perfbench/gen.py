"""Seeded input generators and independent numpy oracles for the benchmark.

The generators are the benchmark's own, so a later change to the package's
generators or eigensolver does not change a workload: every draw comes from
a Philox stream keyed by (seed, stream), and positive-definite matrices are
built as Q exp(diag(w)) Q^T from numpy's eigh.  The oracles recompute
answers with LAPACK (numpy.linalg) rather than the package's Jacobi solver.
"""
from __future__ import annotations

import math

import numpy as np

ORDER_EPS = 1e-10  # the package's default closed-cone slack (OrderTolerance)
MERGE_TOL = 1e-10  # the package's atom-merge distance (ATOM_MERGE_TOL)


def stream(seed: int, key: int) -> np.random.Generator:
    """Independent Philox stream number `key` under the run seed."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | key))


def rand_sym(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """Symmetric matrix of Frobenius norm `radius` in a uniform direction."""
    g = rng.standard_normal((d, d))
    s = (g + g.T) / 2.0
    return s * (radius / np.linalg.norm(s))


def rand_pd(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """exp of a symmetric matrix of norm `radius`, via numpy's eigh."""
    w, q = np.linalg.eigh(rand_sym(rng, d, radius))
    m = (q * np.exp(w)) @ q.T
    return (m + m.T) / 2.0


def rand_shift(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """Strictly positive-definite increment, so translated atoms dominate
    their sources with a margin far above the order tolerance."""
    g = rng.standard_normal((d, d))
    s = g @ g.T
    return s * (radius / np.linalg.norm(s)) + 0.05 * np.eye(d)


def rand_atoms(rng: np.random.Generator, d: int, n: int, radius: float = 0.6):
    """n (matrix, weight) pairs; weights are unnormalized in [0.1, 1.1)."""
    return [(rand_pd(rng, d, radius), float(rng.random() + 0.1)) for _ in range(n)]


# ------------------------------------------------------------------ oracles


def stack(points) -> np.ndarray:
    return np.stack([np.asarray(p, dtype=float) for p in points])


def thompson(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Thompson distances d_T(xs[i], ys[j]) for stacks of PD matrices."""
    li = np.linalg.inv(np.linalg.cholesky(ys))  # (m, d, d)
    m = np.einsum("jab,ibc,jdc->ijad", li, xs, li)
    w = np.linalg.eigvalsh((m + np.swapaxes(m, -1, -2)) / 2.0)
    return np.maximum(0.0, np.maximum(np.log(w[..., -1]), -np.log(w[..., 0])))


def _psd(diff: np.ndarray) -> np.ndarray:
    """Closed-cone test diff >= 0 with the package's relative slack."""
    w = np.linalg.eigvalsh(diff)
    return w[..., 0] >= -ORDER_EPS * (1.0 + np.linalg.norm(diff, axis=(-2, -1)))


def loewner_leq(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """xs[i] <= ys[j] for all pairs."""
    return _psd(ys[None, :] - xs[:, None])


def geo_t(x: np.ndarray, a: np.ndarray, t: float) -> np.ndarray:
    """Weighted geometric mean x #_t a."""
    w, q = np.linalg.eigh(x)
    sq = (q * np.sqrt(w)) @ q.T
    rs = (q / np.sqrt(w)) @ q.T
    wi, qi = np.linalg.eigh(rs @ a @ rs)
    return sq @ ((qi * wi ** t) @ qi.T) @ sq


def merged_support(mu_points: np.ndarray, nu_points: np.ndarray) -> np.ndarray:
    """Atoms of mu then the atoms of nu not within the merge distance of an
    earlier one: the point order of the package's upper-set certificates."""
    pts = list(mu_points)
    for y in nu_points:
        if all(np.linalg.norm(y - p) > MERGE_TOL for p in pts):
            pts.append(y)
    return stack(pts)


def check_marginals(plan: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> str | None:
    if plan.shape != (a.size, b.size):
        return f"plan shape {plan.shape} for marginals {a.size}x{b.size}"
    if not np.isfinite(plan).all() or plan.min() < 0.0:
        return "plan has negative or non-finite weights"
    err = max(np.abs(plan.sum(axis=1) - a).max(), np.abs(plan.sum(axis=0) - b).max())
    if err > tol:
        return f"plan marginals off by {err:.3e} (tolerance {tol:.1e})"
    return None


def check_coupling_order(plan: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> str | None:
    """Every pair the plan moves mass along must be Loewner-compatible."""
    i, j = np.nonzero(plan > 0.0)
    if i.size == 0:
        return "empty coupling"
    ok = _psd(ys[j] - xs[i])
    if not ok.all():
        k = int(np.argmin(ok))
        return f"coupled pair ({i[k]}, {j[k]}) is not Loewner-ordered"
    return None


def check_upper_set(members, n_points: int, mu_mass: float, nu_mass: float,
                    mu_points, mu_w, nu_points, nu_w, tol: float) -> str | None:
    """A negative verdict's certificate: an upward-closed set of the merged
    support carrying more mu-mass than nu-mass, by more than tol."""
    pts = merged_support(mu_points, nu_points)
    if n_points != len(pts):
        return f"certificate over {n_points} points; merged support has {len(pts)}"
    inside = np.zeros(len(pts), dtype=bool)
    inside[list(members)] = True
    if inside.all() or not inside.any():
        return "upper set is empty or the whole support"
    up = loewner_leq(pts[inside], pts[~inside])
    if up.any():
        return "upper set is not upward closed"
    mu_u = float(sum(w for p, w in zip(mu_points, mu_w) if _in(p, pts[inside])))
    nu_u = float(sum(w for p, w in zip(nu_points, nu_w) if _in(p, pts[inside])))
    if not mu_u > nu_u + tol:
        return f"no mass violation on the upper set: mu {mu_u!r} vs nu {nu_u!r}"
    if abs(mu_u - mu_mass) > 1e-9 or abs(nu_u - nu_mass) > 1e-9:
        return "reported upper-set masses disagree with the recomputed ones"
    return None


def _in(p: np.ndarray, pts: np.ndarray) -> bool:
    return bool((np.linalg.norm(pts - p, axis=(-2, -1)) <= MERGE_TOL).any())


def close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(1.0, abs(b))
