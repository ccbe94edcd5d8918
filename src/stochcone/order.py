"""The stochastic order on finitely supported measures over the cone.

Two independent deciders are provided: an enumerative one that checks the
mass inequality on every upper set of the merged support, and a coupling
one that reduces dominance to a bipartite max-flow problem whose witness is
an order-compatible coupling.  They implement the same relation and are
cross-checked against each other in the test suite.

The coupling decider runs on masses apportioned to a 1e-9 grid; its verdict
therefore carries a quantization slack of one grid unit per atom, absorbed
into the mass tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _flow
from .cone import OrderTolerance, PosDefMatrix, loewner_pairwise
from .matfun import DimensionMismatch, frobenius
from .measure import FinMeasure, _merge_slots, make_rng
from .transport import Coupling

__all__ = [
    "UpperSet",
    "UpperSetCertificate",
    "DominanceVerdict",
    "ProbeResult",
    "SupportTooLarge",
    "MAX_ENUM_POINTS",
    "DEFAULT_MASS_TOL",
    "enumerate_upper_sets",
    "dominates_by_upper_sets",
    "dominates_by_coupling",
    "probe_monotone_functionals",
    "verdict_to_json_dict",
]

MAX_ENUM_POINTS = 20
DEFAULT_MASS_TOL = 1e-9

LeqFn = Callable[[PosDefMatrix, PosDefMatrix], bool]


class SupportTooLarge(ValueError):
    def __init__(self, size: int):
        self.size = size
        super().__init__(
            f"merged support has {size} points, above the enumeration cap "
            f"{MAX_ENUM_POINTS}; use dominates_by_coupling instead"
        )


@dataclass(frozen=True)
class UpperSet:
    """Upward-closed subset of a finite point list, by indices."""

    member_indices: frozenset[int]
    n_points: int

    def __post_init__(self):
        if any(i < 0 or i >= self.n_points for i in self.member_indices):
            raise ValueError("member index out of range")


@dataclass(frozen=True)
class UpperSetCertificate:
    """An upper set on which the candidate dominee carries too much mass."""

    upper_set: UpperSet
    mu_mass: float
    nu_mass: float


@dataclass(frozen=True, eq=False)
class DominanceVerdict:
    """Outcome of a dominance test with a checkable certificate: a coupling
    supported on order-compatible pairs when dominance holds (coupling
    decider), or a violating upper set when it fails."""

    holds: bool
    certificate: Coupling | UpperSetCertificate | None

    def __bool__(self) -> bool:
        return self.holds


def verdict_to_json_dict(verdict: DominanceVerdict) -> dict:
    cert = verdict.certificate
    if cert is None:
        doc = None
    elif isinstance(cert, Coupling):
        doc = {"type": "coupling", "weights": [list(map(float, row)) for row in cert.weights]}
    else:
        doc = {
            "type": "upper_set",
            "member_indices": sorted(cert.upper_set.member_indices),
            "n_points": cert.upper_set.n_points,
            "mu_mass": cert.mu_mass,
            "nu_mass": cert.nu_mass,
        }
    return {"holds": verdict.holds, "certificate": doc}


def _merged_support(mu: FinMeasure, nu: FinMeasure):
    """Merged atom list with per-measure masses and atom-index maps.

    mu's atoms come first, then nu's; the list is their first-seen merge,
    the rule of measure.from_atoms, so a nu atom within ATOM_MERGE_TOL of an
    earlier atom pools into it.
    """
    keep, slot = _merge_slots(np.concatenate([mu.arrays, nu.arrays]))
    points = mu.points + nu.points
    mu_idx, nu_idx = slot[:mu.size], slot[mu.size:]
    mu_mass = np.bincount(mu_idx, weights=mu.weights, minlength=len(keep))
    nu_mass = np.bincount(nu_idx, weights=nu.weights, minlength=len(keep))
    return ([points[k] for k in keep], mu_mass.tolist(), nu_mass.tolist(),
            mu_idx.tolist(), nu_idx.tolist())


def _leq_matrix(xs: Sequence[PosDefMatrix], ys: Sequence[PosDefMatrix],
                order_tol: OrderTolerance, leq: LeqFn | None) -> list[list[bool]]:
    """Comparison table x_i <= y_j: one batched Loewner kernel call for the
    default order, a call per pair for a caller-supplied relation."""
    if leq is None:
        return loewner_pairwise(np.stack([x.a for x in xs]), np.stack([y.a for y in ys]),
                                order_tol).tolist()
    return [[leq(x, y) for y in ys] for x in xs]


def _order_table(points: Sequence[PosDefMatrix], order_tol: OrderTolerance,
                 leq: LeqFn | None) -> list[list[bool]]:
    """Comparison table of a point list with itself; reflexive by definition."""
    out = _leq_matrix(points, points, order_tol, leq)
    for i in range(len(points)):
        out[i][i] = True
    return out


def _quotient(leqm: list[list[bool]]):
    """Collapse two-sided ties into classes and return (classes, class order).

    Tolerance-based comparisons are a preorder in general; the quotient by
    mutual comparability is what the enumeration below requires.
    """
    n = len(leqm)
    cls_of = [-1] * n
    classes: list[list[int]] = []
    for i in range(n):
        if cls_of[i] >= 0:
            continue
        members = [i]
        cls_of[i] = len(classes)
        for j in range(i + 1, n):
            if cls_of[j] < 0 and leqm[i][j] and leqm[j][i]:
                cls_of[j] = len(classes)
                members.append(j)
        classes.append(members)
    m = len(classes)
    cls_leq = [[False] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            cls_leq[a][b] = a == b or leqm[classes[a][0]][classes[b][0]]
    return classes, cls_leq


def _topo_order(cls_leq: list[list[bool]]) -> list[int]:
    """Linear extension, minimal classes first."""
    m = len(cls_leq)
    below = [sum(1 for a in range(m) if a != b and cls_leq[a][b]) for b in range(m)]
    order: list[int] = []
    used = [False] * m
    for _ in range(m):
        pick = -1
        for b in range(m):
            if not used[b] and below[b] == 0:
                pick = b
                break
        if pick < 0:
            raise ValueError("comparison relation is not acyclic after tie collapse")
        used[pick] = True
        order.append(pick)
        for b in range(m):
            if not used[b] and cls_leq[pick][b]:
                below[b] -= 1
    return order


def _iter_upclosed(cls_leq: list[list[bool]], topo: list[int]):
    """All upward-closed class sets, one DFS branch per free (minimal) pick."""
    m = len(topo)
    preds = [[t for t in range(k) if cls_leq[topo[t]][topo[k]]] for k in range(m)]
    included = [False] * m

    def rec(k: int):
        if k == m:
            yield frozenset(topo[t] for t in range(m) if included[t])
            return
        forced = any(included[t] for t in preds[k])
        if forced:
            included[k] = True
            yield from rec(k + 1)
            included[k] = False
        else:
            included[k] = False
            yield from rec(k + 1)
            included[k] = True
            yield from rec(k + 1)
            included[k] = False

    return rec(0)


def enumerate_upper_sets(points: Sequence[PosDefMatrix],
                         order_tol: OrderTolerance = OrderTolerance(),
                         leq: LeqFn | None = None) -> list[UpperSet]:
    """Every upward-closed subset of the given points (at most 2^n of them).

    Guarded at MAX_ENUM_POINTS points; two-sided ties are collapsed first so
    the result is exactly the upper-set lattice of the induced order.
    """
    n = len(points)
    if n > MAX_ENUM_POINTS:
        raise SupportTooLarge(n)
    if n == 0:
        return [UpperSet(frozenset(), 0)]
    classes, cls_leq = _quotient(_order_table(points, order_tol, leq))
    topo = _topo_order(cls_leq)
    out = []
    for cset in _iter_upclosed(cls_leq, topo):
        members = frozenset(i for c in cset for i in classes[c])
        out.append(UpperSet(members, n))
    return out


def dominates_by_upper_sets(mu: FinMeasure, nu: FinMeasure,
                            tol: float = DEFAULT_MASS_TOL,
                            order_tol: OrderTolerance = OrderTolerance(),
                            leq: LeqFn | None = None) -> DominanceVerdict:
    """Stochastic dominance by exhaustive upper-set mass comparison.

    mu is dominated by nu when every upper set carries at least as much
    nu-mass as mu-mass, up to tol.  Fails with the first violating set.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    points, mu_mass, nu_mass, _, _ = _merged_support(mu, nu)
    n = len(points)
    if n > MAX_ENUM_POINTS:
        raise SupportTooLarge(n)
    classes, cls_leq = _quotient(_order_table(points, order_tol, leq))
    topo = _topo_order(cls_leq)
    cls_mu = [sum(mu_mass[i] for i in members) for members in classes]
    cls_nu = [sum(nu_mass[i] for i in members) for members in classes]
    for cset in _iter_upclosed(cls_leq, topo):
        mu_u = sum(cls_mu[c] for c in cset)
        nu_u = sum(cls_nu[c] for c in cset)
        if mu_u > nu_u + tol:
            members = frozenset(i for c in cset for i in classes[c])
            cert = UpperSetCertificate(UpperSet(members, n), mu_u, nu_u)
            return DominanceVerdict(False, cert)
    return DominanceVerdict(True, None)


def dominates_by_coupling(mu: FinMeasure, nu: FinMeasure,
                          tol: float = DEFAULT_MASS_TOL,
                          order_tol: OrderTolerance = OrderTolerance(),
                          leq: LeqFn | None = None) -> DominanceVerdict:
    """Stochastic dominance by existence of an order-compatible coupling.

    Builds the bipartite flow network with an arc x_i -> y_j whenever
    x_i <= y_j and asks for a feasible transport of the full mass; dominance
    holds when the shortfall stays within tol plus the grid slack.  A
    positive verdict carries the coupling, a negative one a violating upper
    set recovered from the minimum cut.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    edges = _leq_matrix(mu.points, nu.points, order_tol, leq)
    a = _flow.apportion(mu.weights)
    b = _flow.apportion(nu.weights)
    value, flow, source_side = _flow.bipartite_max_flow(a, b, edges)
    deficiency = _flow.MASS_SCALE - value
    slack = mu.size + nu.size  # one grid unit per apportioned atom
    if deficiency <= tol * _flow.MASS_SCALE + slack:
        plan = np.asarray(flow, dtype=float) / _flow.MASS_SCALE
        marginal_tol = max(1e-9, tol + slack / _flow.MASS_SCALE)
        witness = Coupling(plan, mu.weights, nu.weights, marginal_tol)
        return DominanceVerdict(True, witness)
    # min cut -> violating upper set on the merged support
    points, mu_mass, nu_mass, mu_idx, _ = _merged_support(mu, nu)
    n = len(points)
    seeds = [mu_idx[i] for i in range(mu.size) if source_side[i]]
    leqm = _order_table(points, order_tol, leq)
    members = frozenset(k for k in range(n) if any(leqm[s][k] for s in seeds))
    mu_u = sum(mu_mass[k] for k in members)
    nu_u = sum(nu_mass[k] for k in members)
    cert = UpperSetCertificate(UpperSet(members, n), mu_u, nu_u)
    return DominanceVerdict(False, cert)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of randomized monotone-functional probing; falsy when some
    monotone functional integrates higher against mu than nu."""

    ok: bool
    witness: dict | None

    def __bool__(self) -> bool:
        return self.ok


def _draw_hinge(rng: np.random.Generator, d: int, points: Sequence[PosDefMatrix]):
    """Random order-monotone functional mu -> int phi(tr(B x)) dmu: a unit
    positive-semidefinite direction B and the increasing ramp
    phi(t) = sum_k c_k max(0, t - knot_k), whose one to three knots spread
    over the traces of the points, the lowest trace always among them.

    Returns the functional and its parameters as witness fields.
    """
    g = rng.standard_normal((d, d))
    b = g @ g.T
    b /= frobenius(b)
    traces = [float((b * p.a).sum()) for p in points]
    lo, hi = min(traces), max(traces)
    n_knots = int(rng.integers(1, 4))
    knots = np.concatenate(([lo], rng.uniform(lo, max(hi, lo + 1e-12), n_knots)))
    coeffs = rng.uniform(0.1, 1.0, n_knots + 1)

    def integral(mu: FinMeasure) -> float:
        t = np.array([float((b * p.a).sum()) for p in mu.points])
        return float(np.dot(mu.weights, sum(cf * np.maximum(0.0, t - kn)
                                            for kn, cf in zip(knots, coeffs))))

    fields = {"direction": b.tolist(), "knots": knots.tolist(), "coefficients": coeffs.tolist()}
    return integral, fields


def probe_monotone_functionals(mu: FinMeasure, nu: FinMeasure, trials: int,
                               seed: int, tol: float = DEFAULT_MASS_TOL) -> ProbeResult:
    """Necessary-condition falsifier for dominance.

    Each trial draws a random positive-semidefinite direction B and an
    increasing piecewise-linear ramp phi, both order-monotone, and checks
    that the integral of phi(trace(B x)) does not drop from nu to mu.  A
    violation disproves dominance; survival proves nothing.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    rng = make_rng(seed)
    for trial in range(trials):
        integral, fields = _draw_hinge(rng, mu.dim, mu.points + nu.points)
        int_mu, int_nu = integral(mu), integral(nu)
        if int_mu > int_nu + tol:
            return ProbeResult(False, {"trial": trial, **fields,
                                       "integral_mu": int_mu, "integral_nu": int_nu})
    return ProbeResult(True, None)
