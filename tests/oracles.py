"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: a pure-Python cyclic Jacobi
eigensolver (the package uses LAPACK), numpy's eigensolver on the
inverse-square-root route to the Thompson metric (the package whitens by a
Cholesky factor), a 60-digit mpmath Thompson distance, all-pairs Frobenius
scans for atom merging and matching (the package uses a projection-sorted
atom index), a 2^n subset filter for upper sets, Hall's condition for
coupling feasibility, exhaustive basic-solution enumeration for
transportation optima, and the former pure-Python min-cost flow (a dense
Dijkstra per augmentation; the package relaxes numpy int64 arrays).  None
of it shares code with the package's own algorithms, except the scalar
power-mean iteration (the package iterates (n, N, d, d) stacks): it solves
one tuple at a time, forms each x #_t a_j apart through matfun's
per-eigenvalue maps, and stops on the step size.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from stochcone import EigenConvergenceError, FinMeasure, PosDefMatrix, _flow, from_atoms, posdef
from stochcone.cone import thompson_arrays
from stochcone.matfun import _apply, _eig, _fn
from stochcone.means import MaxIterationsExceeded, MeanIterationInfo, _arith
from stochcone.transport import _REDUCED_COST_TOL

_MAX_SWEEPS = 64
# stop a sweep pass once the off-diagonal Frobenius mass is this far below
# the matrix scale; well under the 1e-10 reconstruction budget
_SWEEP_TOL = 1e-14


def rand_sym(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((d, d))
    s = (g + g.T) / 2.0
    n = math.sqrt((s * s).sum())
    if n == 0.0:
        return np.zeros((d, d))
    return s * (radius / n)


def rand_pd_array(rng: np.random.Generator, d: int, radius: float = 0.6) -> np.ndarray:
    """exp of a bounded symmetric matrix, via numpy's own eigensolver."""
    s = rand_sym(rng, d, radius * rng.uniform(0.3, 1.0))
    w, q = np.linalg.eigh(s)
    return (q * np.exp(w)) @ q.T


def rand_pd(rng: np.random.Generator, d: int, radius: float = 0.6) -> PosDefMatrix:
    return posdef(rand_pd_array(rng, d, radius))


def rand_psd_array(rng: np.random.Generator, d: int, scale: float = 0.5) -> np.ndarray:
    g = rng.standard_normal((d, d)) * scale
    return g @ g.T / d


def rand_measure(rng: np.random.Generator, d: int, max_atoms: int,
                 radius: float = 0.6) -> FinMeasure:
    k = int(rng.integers(1, max_atoms + 1))
    w = rng.random(k) + 0.1
    return from_atoms([(rand_pd(rng, d, radius), float(x)) for x in w])


def rand_measure_dyadic(rng: np.random.Generator, d: int, n_atoms: int,
                        radius: float = 0.6, denom: int = 64) -> FinMeasure:
    """Measure whose weights are exact multiples of 1/denom (denom a power of
    two dividing 2^9), so they sit exactly on the solver's 1e-9 mass grid."""
    cuts = sorted(rng.choice(np.arange(1, denom), size=n_atoms - 1, replace=False)) \
        if n_atoms > 1 else []
    bounds = [0] + [int(c) for c in cuts] + [denom]
    weights = [(bounds[i + 1] - bounds[i]) / denom for i in range(n_atoms)]
    return from_atoms([(rand_pd(rng, d, radius), w) for w in weights])


def _jacobi(a: np.ndarray, want_vectors: bool):
    """Cyclic Jacobi on a symmetric array.

    Returns (eigenvalues ascending as list, eigenvector columns as ndarray or
    None).  Deterministic: fixed sweep order, stable sort, sign convention
    "largest-magnitude component positive".
    """
    d = a.shape[0]
    if d == 1:
        return [float(a[0, 0])], (np.eye(1) if want_vectors else None)
    A = [[float(a[i, j]) for j in range(d)] for i in range(d)]
    V = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)] if want_vectors else None
    nrm = math.sqrt(sum(A[i][j] * A[i][j] for i in range(d) for j in range(d)))
    thr2 = (_SWEEP_TOL * (1.0 + nrm)) ** 2
    converged = False
    for _ in range(_MAX_SWEEPS):
        off2 = 0.0
        for i in range(d - 1):
            Ai = A[i]
            for j in range(i + 1, d):
                off2 += Ai[j] * Ai[j]
        if 2.0 * off2 <= thr2:
            converged = True
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p][q]
                if apq == 0.0:
                    continue
                tau = (A[q][q] - A[p][p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(d):
                    if k != p and k != q:
                        akp = A[k][p]
                        akq = A[k][q]
                        A[k][p] = A[p][k] = c * akp - s * akq
                        A[k][q] = A[q][k] = s * akp + c * akq
                app = A[p][p]
                A[p][p] = app - t * apq
                A[q][q] = A[q][q] + t * apq
                A[p][q] = A[q][p] = 0.0
                if want_vectors:
                    for k in range(d):
                        vkp = V[k][p]
                        vkq = V[k][q]
                        V[k][p] = c * vkp - s * vkq
                        V[k][q] = s * vkp + c * vkq
    if not converged:
        raise EigenConvergenceError(
            f"Jacobi sweeps exhausted ({_MAX_SWEEPS}) on matrix {a.tolist()!r}"
        )
    w = [A[i][i] for i in range(d)]
    order = sorted(range(d), key=w.__getitem__)
    w_sorted = [w[i] for i in order]
    if not want_vectors:
        return w_sorted, None
    q = np.empty((d, d))
    for col, src in enumerate(order):
        best = 0
        vals = [V[k][src] for k in range(d)]
        for k in range(1, d):
            if abs(vals[k]) > abs(vals[best]):
                best = k
        sign = -1.0 if vals[best] < 0.0 else 1.0
        for k in range(d):
            q[k, col] = sign * vals[k]
    return w_sorted, q


def jacobi_eigvals(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric array by cyclic Jacobi."""
    w, _ = _jacobi(np.asarray(a, dtype=float), False)
    return np.asarray(w)


def jacobi_thompson(ax: np.ndarray, ay: np.ndarray) -> float:
    """Thompson distance from Jacobi spectra: y^{-1/2} by Jacobi, then the
    spectrum of y^{-1/2} x y^{-1/2}.  Accurate while the whitened spectrum
    spans a few orders of magnitude (radius <= ~1.5 under rand_pd)."""
    wy, qy = _jacobi(ay, True)
    s = (qy * (1.0 / np.sqrt(wy))) @ qy.T
    m = s @ ax @ s
    w = jacobi_eigvals((m + m.T) / 2.0)
    return max(0.0, math.log(w[-1]), -math.log(w[0]))


def mpmath_thompson(ax: np.ndarray, ay: np.ndarray, digits: int = 60) -> float:
    """Thompson distance from generalized eigenvalues of (x, y) computed in
    `digits`-digit arithmetic with mpmath."""
    import mpmath

    with mpmath.workdps(digits):
        li = mpmath.cholesky(mpmath.matrix(ay.tolist())) ** -1
        m = li * mpmath.matrix(ax.tolist()) * li.T
        w = sorted(mpmath.eigsy((m + m.T) / 2, eigvals_only=True))
        return float(max(mpmath.mpf(0), mpmath.log(w[-1]), -mpmath.log(w[0])))


def numpy_thompson(ax: np.ndarray, ay: np.ndarray) -> float:
    """Thompson distance via numpy generalized eigenvalues."""
    wy, qy = np.linalg.eigh(ay)
    s = (qy * (1.0 / np.sqrt(wy))) @ qy.T
    w = np.linalg.eigvalsh(s @ ax @ s)
    return float(max(0.0, np.log(w[-1]), -np.log(w[0])))


def _geo_t(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    wa, qa = _eig(a, True)
    if wa[0] <= 0.0:
        raise ValueError("geometric interpolation needs positive-definite inputs")
    rs = _apply(wa, qa, "inv_sqrt")
    sq = _apply(wa, qa, "sqrt")
    inner = rs @ b @ rs
    mid = _fn((inner + inner.T) / 2.0, "pow", t)
    out = sq @ mid @ sq
    return (out + out.T) / 2.0


def _power(arrs: list[np.ndarray], t: float, cfg):
    """Power mean of order t of one tuple of arrays: the fixed point of
    x = (1/n) sum_j x #_t a_j, stopped once a step moves x by at most
    cfg.karcher_tol in the Thompson metric."""
    if t < 0.0:
        inv_out, info = _power([_fn(a, "inv") for a in arrs], -t, cfg)
        return _fn(inv_out, "inv"), info
    n = len(arrs)
    x = _arith(arrs)
    diff = math.inf
    for it in range(1, cfg.max_iter + 1):
        nxt = _arith([_geo_t(x, a, t) for a in arrs])
        diff = thompson_arrays(nxt, x)
        x = nxt
        if diff <= cfg.karcher_tol:
            return x, MeanIterationInfo(diff, it, 1.0)
    raise MaxIterationsExceeded(f"power mean (t={t})", diff, cfg.max_iter)


def brute_upper_sets(leq: list[list[bool]]) -> set[frozenset[int]]:
    """All upward-closed subsets by filtering every one of the 2^n subsets."""
    n = len(leq)
    out = set()
    for mask in range(1 << n):
        s = frozenset(i for i in range(n) if (mask >> i) & 1)
        if all(j in s for i in s for j in range(n) if leq[i][j]):
            out.add(s)
    return out


def hall_feasible(a: list[float], b: list[float], edges: list[list[bool]],
                  tol: float = 1e-12) -> bool:
    """Coupling existence along permitted edges, by Hall's condition over all
    2^r source subsets."""
    r, c = len(a), len(b)
    for mask in range(1 << r):
        s = [i for i in range(r) if (mask >> i) & 1]
        neigh = set()
        for i in s:
            for j in range(c):
                if edges[i][j]:
                    neigh.add(j)
        if sum(a[i] for i in s) > sum(b[j] for j in neigh) + tol:
            return False
    return True


def merged_support(mu: FinMeasure, nu: FinMeasure):
    """Merged atom list (mu's atoms first, then nu's unmatched ones) with the
    per-measure masses, mirroring the package's documented support layout."""
    pts = list(mu.points) + list(nu.points)
    mu_mass = list(mu.weights) + [0.0] * nu.size
    nu_mass = [0.0] * mu.size + list(nu.weights)
    keep: list[int] = []
    for k, p in enumerate(pts):
        for k2 in keep:
            if math.sqrt(((p.a - pts[k2].a) ** 2).sum()) <= 1e-10:
                mu_mass[k2] += mu_mass[k]
                nu_mass[k2] += nu_mass[k]
                break
        else:
            keep.append(k)
    return ([pts[k] for k in keep], [mu_mass[k] for k in keep],
            [nu_mass[k] for k in keep])


# The package's former all-pairs atom scans, kept verbatim as oracles for the
# atom index: the first-seen merge of from_atoms, the separation check of
# FinMeasure, the merged support of the dominance deciders and the greedy
# matching of measures_allclose.

ATOM_MERGE_TOL = 1e-10


def frobenius(a) -> float:
    arr = np.asarray(a, dtype=float)
    return float(np.sqrt((arr * arr).sum()))


def quadratic_merge(pairs):
    """First-seen merge by comparing each atom with every kept atom; returns
    (kept points, normalized weights)."""
    points = []
    weights = []
    for k, (p, w) in enumerate(pairs):
        w = float(w)
        if not math.isfinite(w) or w < 0.0:
            raise ValueError(f"weight {k} is {w!r}; weights must be finite and >= 0")
        if w == 0.0:
            continue
        for i, q in enumerate(points):
            if frobenius(p.a - q.a) <= ATOM_MERGE_TOL:
                weights[i] += w
                break
        else:
            points.append(p)
            weights.append(w)
    total = sum(weights)
    if total <= 0.0:
        raise ValueError("total weight must be positive")
    return points, np.asarray(weights) / total


def quadratic_coinciding_pair(points):
    """First pair (i, j), i < j, of atoms within ATOM_MERGE_TOL, or None."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if frobenius(points[i].a - points[j].a) <= ATOM_MERGE_TOL:
                return i, j
    return None


def quadratic_merged_support(mu: FinMeasure, nu: FinMeasure):
    """Merged atom list with per-measure masses and atom-index maps."""
    points = []
    mu_mass = []
    nu_mass = []

    def locate(p):
        for k, q in enumerate(points):
            if frobenius(p.a - q.a) <= ATOM_MERGE_TOL:
                return k
        points.append(p)
        mu_mass.append(0.0)
        nu_mass.append(0.0)
        return len(points) - 1

    mu_idx = []
    for p, w in mu.atoms:
        k = locate(p)
        mu_mass[k] += w
        mu_idx.append(k)
    nu_idx = []
    for p, w in nu.atoms:
        k = locate(p)
        nu_mass[k] += w
        nu_idx.append(k)
    return points, mu_mass, nu_mass, mu_idx, nu_idx


def greedy_allclose(mu: FinMeasure, nu: FinMeasure,
                    atom_tol: float = 1e-9, weight_tol: float = 1e-9) -> bool:
    """Atom-wise equality up to a permutation, by greedy nearest matching."""
    if mu.dim != nu.dim or mu.size != nu.size:
        return False
    used = [False] * nu.size
    for p, w in mu.atoms:
        best, best_d = -1, math.inf
        for j, (q, _) in enumerate(nu.atoms):
            if used[j]:
                continue
            dist = frobenius(p.a - q.a)
            if dist < best_d:
                best, best_d = j, dist
        if best < 0 or best_d > atom_tol:
            return False
        if abs(w - float(nu.weights[best])) > weight_tol:
            return False
        used[best] = True
    return True


def brute_stochastic_dominance(mu: FinMeasure, nu: FinMeasure, leq_fn,
                               tol: float = 0.0) -> bool:
    """Max upper-set violation on the merged support, by the 2^n filter."""
    pts, mu_mass, nu_mass = merged_support(mu, nu)
    n = len(pts)
    leq = [[leq_fn(pts[i], pts[j]) for j in range(n)] for i in range(n)]
    for s in brute_upper_sets(leq):
        if sum(mu_mass[i] for i in s) > sum(nu_mass[i] for i in s) + tol:
            return False
    return True


def _tree_flows(tree, a, b):
    """Unique flows on a spanning tree of the transportation graph, by leaf
    elimination; entries may come out negative (infeasible basic solution)."""
    r, c = len(a), len(b)
    need = list(a) + list(b)
    deg = [0] * (r + c)
    inc: dict[int, list[int]] = {k: [] for k in range(r + c)}
    for e, (i, j) in enumerate(tree):
        deg[i] += 1
        deg[r + j] += 1
        inc[i].append(e)
        inc[r + j].append(e)
    flows = [None] * len(tree)
    alive = set(range(r + c))
    for _ in range(len(tree)):
        leaf = min(k for k in alive if deg[k] == 1)
        e = next(ei for ei in inc[leaf] if flows[ei] is None)
        i, j = tree[e]
        other = r + j if leaf == i else i
        f = need[leaf]
        flows[e] = f
        need[leaf] = 0.0
        need[other] -= f
        deg[leaf] -= 1
        deg[other] -= 1
        alive.discard(leaf)
    return flows


def brute_min_transport(a: list[float], b: list[float], cost: np.ndarray) -> float:
    """Exact transportation optimum by enumerating every basic feasible
    solution (spanning tree of the complete bipartite support graph)."""
    r, c = len(a), len(b)
    edges = [(i, j) for i in range(r) for j in range(c)]
    best = math.inf
    for tree in itertools.combinations(edges, r + c - 1):
        parent = list(range(r + c))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in tree:
            ri, rj = find(i), find(r + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue
        flows = _tree_flows(tree, a, b)
        if min(flows) < -1e-12:
            continue
        val = sum(cost[i, j] * f for (i, j), f in zip(tree, flows))
        best = min(best, val)
    return best


def brute_wasserstein_inf(a: list[float], b: list[float], cost: np.ndarray) -> float:
    """Smallest threshold whose admissible-edge graph passes Hall's test."""
    values = sorted(set(float(x) for x in cost.reshape(-1)))
    for thr in values:
        edges = [[cost[i, j] <= thr for j in range(len(b))] for i in range(len(a))]
        if hall_feasible(a, b, edges):
            return thr
    raise AssertionError("no feasible threshold; marginals broken")


# The package's former pure-Python min-cost core (successive shortest paths
# with a dense Dijkstra on reduced costs) and its pair-by-pair optimality
# certificate, kept verbatim as oracles for the numpy core in _flow and the
# vectorized transport._certify.

def loop_certify(costs: np.ndarray, flow: list[list[int]], u: list[int], v: list[int]):
    """Complementary-slackness check of the integer solution against the
    unquantized costs, normalized to a maximum of one; failures indicate an
    internal bug."""
    r, c = costs.shape
    for i in range(r):
        ui = u[i] / _flow.COST_SCALE
        for j in range(c):
            reduced = costs[i, j] - ui - v[j] / _flow.COST_SCALE
            if reduced < -_REDUCED_COST_TOL:
                raise RuntimeError(
                    f"optimality certificate failed: reduced cost {reduced:.3e} "
                    f"at ({i}, {j})"
                )
            if flow[i][j] > 0 and reduced > _REDUCED_COST_TOL:
                raise RuntimeError(
                    f"optimality certificate failed: slack {reduced:.3e} on a "
                    f"support pair ({i}, {j})"
                )


def ssp_transportation_min_cost(supply: Sequence[int], demand: Sequence[int],
                            cost: Sequence[Sequence[int]]):
    """Exact min-cost transportation plan between integer marginals.

    Successive shortest paths with Johnson potentials; costs must be
    nonnegative integers and sum(supply) == sum(demand).  Returns the flow
    matrix and dual prices (u, v) in cost units satisfying
    u[i] + v[j] <= cost[i][j] with equality wherever flow is positive.
    """
    r, c = len(supply), len(demand)
    if sum(supply) != sum(demand):
        raise ValueError("supply and demand totals differ")
    n = r + c + 2
    s, t = r + c, r + c + 1
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []
    cst: list[int] = []

    def add(u: int, v: int, capacity: int, cost_uv: int) -> int:
        idx = len(to)
        head[u].append(idx)
        to.append(v)
        cap.append(capacity)
        cst.append(cost_uv)
        head[v].append(idx + 1)
        to.append(u)
        cap.append(0)
        cst.append(-cost_uv)
        return idx

    for i in range(r):
        add(s, i, int(supply[i]), 0)
    cross = [[add(i, r + j, int(supply[i]), int(cost[i][j])) for j in range(c)]
             for i in range(r)]
    for j in range(c):
        add(r + j, t, int(demand[j]), 0)

    inf = float("inf")
    pot = [0] * n
    remaining = sum(supply)
    while remaining > 0:
        # Dijkstra on reduced costs (dense: the graphs here are tiny)
        dist = [inf] * n
        dist[s] = 0
        prev_arc = [-1] * n
        done = [False] * n
        for _ in range(n):
            u, best = -1, inf
            for k in range(n):
                if not done[k] and dist[k] < best:
                    u, best = k, dist[k]
            if u < 0:
                break
            done[u] = True
            for e in head[u]:
                if cap[e] <= 0:
                    continue
                v = to[e]
                nd = dist[u] + cst[e] + pot[u] - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = e
        if dist[t] == inf:
            raise RuntimeError("transportation network disconnected")
        for k in range(n):
            if dist[k] < inf:
                pot[k] += dist[k]
        push = remaining
        v = t
        while v != s:
            e = prev_arc[v]
            push = min(push, cap[e])
            v = to[e ^ 1]
        v = t
        while v != s:
            e = prev_arc[v]
            cap[e] -= push
            cap[e ^ 1] += push
            v = to[e ^ 1]
        remaining -= push

    flow = [[cap[cross[i][j] ^ 1] for j in range(c)] for i in range(r)]
    u_dual = [-pot[i] for i in range(r)]
    v_dual = [pot[r + j] for j in range(c)]
    return flow, u_dual, v_dual
