"""Spectral functions of real symmetric matrices.

The spectral kernel is LAPACK through numpy (`eigh`, `eigvalsh`,
`cholesky`).  The array-level kernels `_eig` and `_cholesky` take a single
matrix or an (N, d, d) stack, so callers batch many small decompositions into
one call.  A pure-Python cyclic Jacobi solver serves as the independent
reference in the test oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymMatrix",
    "SpectralDecomposition",
    "sym",
    "eye",
    "eigh",
    "matrix_fn",
    "congruence",
    "frobenius",
    "DimensionMismatch",
    "SpectralDomainError",
    "EigenConvergenceError",
]

_DECOMP_TOL = 1e-10


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class SpectralDomainError(ValueError):
    """A spectral scalar map was applied outside its domain."""

    def __init__(self, fn: str, min_eigenvalue: float):
        self.fn = fn
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix function {fn!r} needs a strictly positive spectrum; "
            f"smallest eigenvalue is {min_eigenvalue:.6e}"
        )


class EigenConvergenceError(RuntimeError):
    """The eigensolver failed to converge or to reproduce its input."""


def _as_square(entries) -> np.ndarray:
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix; stored as (A + A^T)/2, read-only."""

    entries: np.ndarray

    def __post_init__(self):
        a = _as_square(self.entries)
        a = (a + a.T) / 2.0
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:  # keep reprs one-line for test output
        return f"SymMatrix({self.entries.tolist()!r})"


def sym(entries) -> SymMatrix:
    """Build a SymMatrix from any square array-like."""
    return SymMatrix(np.asarray(entries, dtype=float))


def eye(dim: int) -> SymMatrix:
    return SymMatrix(np.eye(dim))


def frobenius(a) -> float:
    """Frobenius norm of an array-like or SymMatrix."""
    arr = a.entries if isinstance(a, SymMatrix) else np.asarray(a, dtype=float)
    return float(np.sqrt((arr * arr).sum()))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        q = np.asarray(self.eigenvectors, dtype=float)
        d = w.shape[0]
        if w.ndim != 1 or q.shape != (d, d):
            raise DimensionMismatch("eigenvalue/eigenvector shapes disagree")
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be ascending")
        orth = frobenius(q.T @ q - np.eye(d))
        if orth > _DECOMP_TOL:
            raise ValueError(f"eigenvector columns not orthonormal: residual {orth:.3e}")
        w.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", q)


def _eig(a: np.ndarray, want_vectors: bool = True):
    """Array-level eigendecomposition; no wrapper validation.

    Returns (eigenvalues ascending, eigenvector columns or None) for a
    single matrix or an (..., d, d) stack.  Each eigenvector's
    largest-magnitude component is positive (the first one on ties), so the
    result is deterministic for a given numpy/LAPACK build.
    """
    try:
        if not want_vectors:
            return np.linalg.eigvalsh(a), None
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver failed: {exc}") from None
    idx = np.abs(q).argmax(axis=-2)
    if q.ndim == 2:  # plain indexing, cheapest for the many single matrices
        lead = q[idx, np.arange(q.shape[1])]
    else:
        lead = np.take_along_axis(q, idx[..., None, :], axis=-2)
    return w, q * np.copysign(1.0, lead)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a positive-definite array or (..., d, d) stack."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        w, _ = _eig(a, want_vectors=False)
        raise SpectralDomainError("cholesky", float(w[..., 0].min())) from None


_SCALAR_MAPS = {
    "sqrt": math.sqrt,
    "inv_sqrt": lambda x: 1.0 / math.sqrt(x),
    "log": math.log,
    "exp": math.exp,
    "inv": lambda x: 1.0 / x,
}
_POSITIVE_DOMAIN = {"sqrt", "inv_sqrt", "log", "inv", "pow"}


def _apply(w, q: np.ndarray, fn: str, t: float | None = None) -> np.ndarray:
    """Assemble Q f(diag(w)) Q^T for a scalar map tag."""
    if fn == "pow":
        if t is None:
            raise ValueError("matrix function 'pow' needs an exponent")
        fw = [x ** t for x in w]
    else:
        try:
            f = _SCALAR_MAPS[fn]
        except KeyError:
            raise ValueError(f"unknown matrix function tag {fn!r}") from None
        fw = [f(x) for x in w]
    m = (q * np.asarray(fw)) @ q.T
    return (m + m.T) / 2.0


def _fn(a: np.ndarray, fn: str, t: float | None = None) -> np.ndarray:
    """Array-level spectral map with domain check."""
    w, q = _eig(a)
    if fn in _POSITIVE_DOMAIN and w[0] <= 0.0:
        raise SpectralDomainError(fn, float(w[0]))
    return _apply(w, q, fn, t)


def eigh(a: SymMatrix) -> SpectralDecomposition:
    """Full spectral decomposition, validated against the input.

    Raises EigenConvergenceError if the factorization does not reproduce the
    matrix to within 1e-10 * (1 + ||A||_F).
    """
    w, q = _eig(a.entries)
    dec = SpectralDecomposition(w, q)
    recon = (q * w) @ q.T
    err = frobenius(recon - a.entries)
    if err > _DECOMP_TOL * (1.0 + frobenius(a)):
        raise EigenConvergenceError(
            f"decomposition residual {err:.3e} on matrix {a.entries.tolist()!r}"
        )
    return dec


def matrix_fn(a: SymMatrix, fn: str, t: float | None = None) -> SymMatrix:
    """Apply a scalar map to the spectrum: one of sqrt, inv_sqrt, log, exp,
    inv, or pow with exponent t.

    All maps except exp require a strictly positive spectrum.
    """
    return SymMatrix(_fn(a.entries, fn, t))


def congruence(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Two-sided product b a b for symmetric a, b."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    return SymMatrix(b.entries @ a.entries @ b.entries)
