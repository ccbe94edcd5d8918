"""Finitely supported probability measures on the positive-definite cone.

Atoms closer than ATOM_MERGE_TOL in Frobenius distance are considered the
same point and their weights are merged, so every FinMeasure has a separated
support.  One atom index, sorted by projection onto a fixed direction, finds
close atoms in O(N log N + window hits).  All randomness flows through an
explicitly keyed Philox generator (see make_rng) so sampling is
reproducible bit for bit.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .cone import PosDefMatrix, posdef
from .matfun import DimensionMismatch

__all__ = [
    "FinMeasure",
    "ATOM_MERGE_TOL",
    "ProductCapExceeded",
    "PushForwardError",
    "make_rng",
    "dirac",
    "from_atoms",
    "push_forward",
    "invert",
    "sample",
    "measure_to_json",
    "measure_from_json",
    "measures_allclose",
]

ATOM_MERGE_TOL = 1e-10
_WEIGHT_SUM_TOL = 1e-12
_GOLDEN = 0.6180339887498949


class ProductCapExceeded(ValueError):
    """Materializing the product would exceed the atom-count cap."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(
            f"product support has {size} atoms, above the cap {cap}; "
            f"use sampled evaluation instead"
        )


class PushForwardError(RuntimeError):
    """The map failed on one of the atoms."""

    def __init__(self, index: int, cause: BaseException):
        self.index = index
        super().__init__(f"push-forward map failed on atom {index}: {cause}")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox4x64 generator keyed by (seed, stream).

    The key is the 128-bit integer seed * 2^64 + stream, so distinct streams
    under one seed are independent and every draw is reproducible across
    platforms and processes.
    """
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(stream)))


# ----------------------------------------------------------------- atom index


@functools.lru_cache(maxsize=None)
def _direction(dd: int) -> np.ndarray:
    """Fixed unit vector in R^(d*d): the centred golden-ratio sequence."""
    u = (np.arange(1, dd + 1) * _GOLDEN) % 1.0 - 0.5
    u /= np.sqrt((u * u).sum())
    u.flags.writeable = False  # shared by every caller through the cache
    return u


def _near_pairs(xs: np.ndarray, ys: np.ndarray | None, tol: float):
    """All pairs (i, j) with ||xs[i] - ys[j]||_F <= tol between two stacks of
    d x d arrays, sorted by (i, j), with their distances; with ys None, the
    pairs i < j within xs.

    Projection onto a fixed unit direction is 1-Lipschitz in the Frobenius
    norm, so only pairs whose projections lie within tol, widened by a
    generous bound on rounding, are measured: O(N log N + window hits).
    """
    other = xs if ys is None else ys
    fx, fy = xs.reshape(len(xs), -1), other.reshape(len(other), -1)
    dd = fx.shape[1]
    u = _direction(dd)
    sx = (fx * u).sum(axis=1)
    sy = sx if ys is None else (fy * u).sum(axis=1)
    order = np.argsort(sy, kind="stable")
    sy = sy[order]
    scale = math.sqrt(dd) * max(np.abs(fx).max(), np.abs(fy).max())
    w = tol + 16.0 * (dd + 2) * np.finfo(float).eps * (scale + tol)
    if ys is None:  # each unordered pair once: look forward in projection order
        query, sq, lo = order, sy, np.arange(1, len(xs) + 1)
    else:
        query, sq = np.arange(len(xs)), sx
        lo = np.searchsorted(sy, sx - w, side="left")
    counts = np.maximum(np.searchsorted(sy, sq + w, side="right") - lo, 0)
    if not counts.any():  # the usual case: no atom has a neighbour in reach
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    i = np.repeat(query, counts)
    j = order[np.arange(i.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
    if ys is None:
        i, j = np.minimum(i, j), np.maximum(i, j)
    diff = xs[i] - other[j]
    dist = np.sqrt((diff * diff).sum(axis=(-2, -1)))
    near = np.flatnonzero(dist <= tol)
    near = near[np.lexsort((j[near], i[near]))]
    return i[near], j[near], dist[near]


def _close_pairs(arrs: np.ndarray):
    """The atom index of an (N, d, d) stack: (rep, a, b).

    Bitwise-equal neighbours in projection order share a representative,
    rep[k], the lowest index of their run, so clusters of exact duplicates
    cost linear work; a duplicate outside the run is its own representative
    at distance 0.  The pairs (a[t], b[t]), a < b, in lexicographic order,
    are the representatives within ATOM_MERGE_TOL of each other.
    """
    flat = arrs.reshape(len(arrs), -1)
    # equal rows get equal projections from the same row sum (a matrix-vector
    # product need not give them), so the stable sort lists a run by index
    order = np.argsort((flat * _direction(flat.shape[1])).sum(axis=1), kind="stable")
    head = np.ones(len(arrs), dtype=bool)
    head[1:] = (flat[order[1:]] != flat[order[:-1]]).any(axis=1)
    rep = np.empty(len(arrs), dtype=np.intp)
    rep[order] = order[head][np.cumsum(head) - 1]
    heads = np.flatnonzero(rep == np.arange(len(arrs)))
    i, j, _ = _near_pairs(arrs[heads], None, ATOM_MERGE_TOL)
    return rep, heads[i], heads[j]


def _merge_slots(arrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-seen merge of an (N, d, d) stack: in index order, each atom
    joins the lowest-index kept atom within ATOM_MERGE_TOL, or is kept.

    Returns (keep, slot): the kept indices, ascending, and each atom's
    position in that list.
    """
    rep, a, b = _close_pairs(arrs)
    target = np.arange(len(arrs))
    for later, earlier in sorted(zip(b.tolist(), a.tolist())):
        if target[later] == later and target[earlier] == earlier:
            target[later] = earlier
    target = target[rep]
    kept = target == np.arange(len(arrs))
    return np.flatnonzero(kept), (np.cumsum(kept) - 1)[target]


# ------------------------------------------------------------------- measures


@dataclass(frozen=True, eq=False)
class FinMeasure:
    """Probability measure with finitely many positive-definite atoms.

    Invariants: weights strictly positive and summing to one, all atoms of a
    common dimension, pairwise Frobenius separation above ATOM_MERGE_TOL,
    checked through the atom index in O(N log N + window hits); a violation
    names the lexicographically first coinciding pair.  `arrays` holds the
    atoms as one read-only (size, dim, dim) array.  Build through
    from_atoms/dirac, which normalize and deduplicate; from_atoms passes its
    merged stack as `_merged`, separated by construction, so the check is
    skipped.
    """

    points: tuple[PosDefMatrix, ...]
    weights: np.ndarray
    meta: dict = field(default_factory=dict, repr=False)
    _merged: InitVar[np.ndarray | None] = None

    def __post_init__(self, _merged):
        if not self.points:
            raise ValueError("a measure needs at least one atom")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.points),):
            raise DimensionMismatch("one weight per atom required")
        if not np.isfinite(w).all() or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        arrs = _merged
        if arrs is None:
            d = self.points[0].dim
            for p in self.points:
                if p.dim != d:
                    raise DimensionMismatch("atoms have mixed dimensions")
            arrs = np.array([p.a for p in self.points])
            rep, a, b = _close_pairs(arrs)
            dup = np.flatnonzero(rep != np.arange(len(arrs)))
            first, second = np.concatenate([rep[dup], a]), np.concatenate([dup, b])
            if first.size:  # name the lexicographically first coinciding pair
                k = np.lexsort((second, first))[0]
                raise ValueError(f"atoms {first[k]} and {second[k]} coincide "
                                 f"within {ATOM_MERGE_TOL}")
        w.flags.writeable = False
        arrs.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "arrays", arrs)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def atoms(self) -> list[tuple[PosDefMatrix, float]]:
        return list(zip(self.points, (float(x) for x in self.weights)))


def dirac(x: PosDefMatrix) -> FinMeasure:
    """Point mass at x."""
    return FinMeasure((x,), np.array([1.0]))


def from_atoms(pairs: Iterable[tuple[PosDefMatrix, float]], meta: dict | None = None) -> FinMeasure:
    """Build a measure from (point, weight) pairs.

    Weights are normalized to total mass one and zero weights are dropped.
    Merge rule (first seen): in input order, an atom within ATOM_MERGE_TOL
    of an atom kept earlier adds its weight to the lowest-index such kept
    atom; otherwise it is kept.  Kept atoms stay in input order.  Close
    atoms are found through the atom index, in O(N log N + window hits).
    """
    pairs = list(pairs)
    points, w = zip(*pairs) if pairs else ((), ())
    w = np.array(w, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0.0)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"weight {k} is {float(w[k])!r}; weights must be finite and >= 0")
    live = w > 0.0
    if not live.any():
        raise ValueError("total weight must be positive")
    points = [p for p, alive in zip(points, live.tolist()) if alive]
    try:
        arrs = np.array([p.a for p in points])
    except ValueError:
        raise DimensionMismatch("atoms have mixed dimensions") from None
    keep, slot = _merge_slots(arrs)
    merged = np.bincount(slot, weights=w[live], minlength=len(keep))
    total = sum(merged.tolist())
    kept = tuple(points[k] for k in keep.tolist())
    return FinMeasure(kept, merged / total, meta or {}, arrs[keep])


def push_forward(mu: FinMeasure, f: Callable[[PosDefMatrix], PosDefMatrix]) -> FinMeasure:
    """Image measure under an atom-wise map; merged atoms pool their mass."""
    pairs = []
    for i, (p, w) in enumerate(mu.atoms):
        try:
            pairs.append((f(p), w))
        except Exception as exc:
            raise PushForwardError(i, exc) from exc
    return from_atoms(pairs)


def invert(mu: FinMeasure) -> FinMeasure:
    """Push-forward under matrix inversion."""
    from .matfun import matrix_fn  # local import to keep module load light

    return push_forward(mu, lambda p: PosDefMatrix(matrix_fn(p.m, "inv"), p.pd_floor))


def _draw(mu: FinMeasure, k: int, rng: int | np.random.Generator) -> np.ndarray:
    """Indices of k atoms drawn by inverse-CDF lookup."""
    if k < 0:
        raise ValueError("sample count must be >= 0")
    gen = make_rng(rng) if isinstance(rng, int) else rng
    cdf = np.cumsum(mu.weights)
    cdf[-1] = 1.0  # guard the top edge against rounding
    return np.searchsorted(cdf, gen.random(k), side="right")


def sample(mu: FinMeasure, k: int, rng: int | np.random.Generator) -> list[PosDefMatrix]:
    """Draw k atoms by inverse-CDF lookup; deterministic for a fixed seed."""
    return [mu.points[int(i)] for i in _draw(mu, k, rng)]


def measure_to_json(mu: FinMeasure) -> str:
    """Serialize as {"dim": d, "atoms": [{"weight": w, "matrix": [...]}]} with
    row-major matrix entries and round-trip-exact floats."""
    doc = {
        "dim": mu.dim,
        "atoms": [
            {"weight": float(w), "matrix": [float(v) for v in p.a.reshape(-1)]}
            for p, w in mu.atoms
        ],
    }
    return json.dumps(doc)


def measure_from_json(text: str | dict, pd_floor: float | None = None) -> FinMeasure:
    """Parse the JSON measure format; validation errors surface as ValueError."""
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict) or "dim" not in doc or "atoms" not in doc:
        raise ValueError("measure document needs 'dim' and 'atoms'")
    d = int(doc["dim"])
    if d < 1:
        raise ValueError(f"bad dimension {d}")
    pairs = []
    for k, atom in enumerate(doc["atoms"]):
        flat = atom.get("matrix")
        if flat is None or len(flat) != d * d:
            raise ValueError(f"atom {k}: expected {d * d} matrix entries")
        arr = np.asarray(flat, dtype=float).reshape(d, d)
        p = posdef(arr) if pd_floor is None else posdef(arr, pd_floor)
        pairs.append((p, float(atom["weight"])))
    return from_atoms(pairs)


def measures_allclose(mu: FinMeasure, nu: FinMeasure,
                      atom_tol: float = 1e-9, weight_tol: float = 1e-9) -> bool:
    """Atom-wise equality up to a permutation, by greedy nearest matching.

    In mu's order, each atom takes the nearest not yet matched atom of nu
    (the lowest index on ties) and fails if it is farther than atom_tol or
    its weight differs by more than weight_tol.  Only atoms inside the atom
    index's projection window can match, so the cost is O(N log N + window
    hits).
    """
    if mu.dim != nu.dim or mu.size != nu.size:
        return False
    i, j, dist = _near_pairs(mu.arrays, nu.arrays, atom_tol)
    bounds = np.searchsorted(i, np.arange(mu.size + 1))
    used = np.zeros(nu.size, dtype=bool)
    for k, (_, wk) in enumerate(mu.atoms):
        cand, cand_dist = j[bounds[k]:bounds[k + 1]], dist[bounds[k]:bounds[k + 1]]
        free = ~used[cand]
        if not free.any():
            return False
        best = int(cand[free][np.argmin(cand_dist[free])])
        if abs(wk - float(nu.weights[best])) > weight_tol:
            return False
        used[best] = True
    return True
