"""Integer network-flow kernels.

Masses are put on a 1e-9 grid by largest-remainder apportionment, costs on a
1e-12 grid, and everything downstream is exact integer arithmetic: Dinic for
max-flow questions, successive shortest paths with numpy Bellman-Ford labels
for min-cost transport.  Orders and tie-breaks are fixed, so results are
deterministic.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

MASS_SCALE = 10 ** 9
COST_SCALE = 10 ** 12
_INF = 1 << 61  # unreached label: INF + INF and INF + max cost fit in int64


def apportion(weights: Sequence[float], scale: int = MASS_SCALE) -> list[int]:
    """Integer masses summing exactly to scale, each within one grid unit of
    weight * scale (largest-remainder rounding, ties to the earlier index)."""
    floors = []
    rema = []
    for i, w in enumerate(weights):
        t = w * scale
        f = int(t)
        floors.append(f)
        rema.append((-(t - f), i))
    missing = scale - sum(floors)
    if missing < 0 or missing > len(floors):
        raise ValueError("weights do not sum to 1 closely enough to apportion")
    rema.sort()
    out = list(floors)
    for _, i in rema[:missing]:
        out[i] += 1
    return out


class Dinic:
    """Max flow on an integer-capacity directed graph."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Returns the arc index; the paired reverse arc is index ^ 1."""
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def flow_on(self, idx: int) -> int:
        return self.cap[idx ^ 1]

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    queue.append(v)
        return self.level[t] >= 0

    def _dfs(self, u: int, t: int, pushed: int) -> int:
        if u == t:
            return pushed
        while self.it[u] < len(self.head[u]):
            e = self.head[u][self.it[u]]
            v = self.to[e]
            if self.cap[e] > 0 and self.level[v] == self.level[u] + 1:
                got = self._dfs(v, t, min(pushed, self.cap[e]))
                if got > 0:
                    self.cap[e] -= got
                    self.cap[e ^ 1] += got
                    return got
            self.it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, 1 << 62)
                if pushed == 0:
                    break
                total += pushed
        return total

    def min_cut_source_side(self, s: int) -> list[bool]:
        """Nodes reachable from s in the residual graph after max_flow."""
        seen = [False] * self.n
        seen[s] = True
        queue = [s]
        for u in queue:
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


def bipartite_max_flow(supply: Sequence[int], demand: Sequence[int],
                       edges: Sequence[Sequence[bool]]):
    """Max flow from supply atoms to demand atoms along permitted edges.

    Returns (value, flow matrix, source-side cut membership for the supply
    atoms).  Capacities on the cross arcs are effectively unbounded.
    """
    r, c = len(supply), len(demand)
    s, t = r + c, r + c + 1
    g = Dinic(r + c + 2)
    for i in range(r):
        g.add_edge(s, i, int(supply[i]))
    cross: list[list[int]] = [[-1] * c for _ in range(r)]
    big = sum(supply) + 1
    for i in range(r):
        row = edges[i]
        for j in range(c):
            if row[j]:
                cross[i][j] = g.add_edge(i, r + j, big)
    for j in range(c):
        g.add_edge(r + j, t, int(demand[j]))
    value = g.max_flow(s, t)
    flow = [[g.flow_on(cross[i][j]) if cross[i][j] >= 0 else 0 for j in range(c)]
            for i in range(r)]
    reach = g.min_cut_source_side(s)
    return value, flow, [reach[i] for i in range(r)]


def _settle(cost_t, back, du, dv, pu, pv) -> None:
    """Bellman-Ford in place: a round is one min over du + cost (forward arcs)
    and one over dv + back (reverse arcs: -cost where flow > 0, else _INF).
    Labels and predecessors change only on a strict decrease, ties to the
    lowest index; RuntimeError after r + c + 1 rounds (a negative cycle)."""
    c, r = cost_t.shape
    halves = ((cost_t, du, dv, pv), (back, dv, du, pu))
    for k in range(2 * (r + c + 1)):
        arcs, tail, head, pred = halves[k % 2]
        t = tail + arcs
        m = t.min(1)
        better = m < head
        if k and not np.count_nonzero(better):  # so both halves are settled
            return
        np.copyto(pred, t.argmin(1), where=better)
        np.minimum(head, m, out=head)
    raise RuntimeError(f"shortest-path labels did not settle in {r + c + 1} rounds")


def transportation_min_cost(supply: Sequence[int], demand: Sequence[int],
                            cost: Sequence[Sequence[int]]):
    """Exact min-cost transportation plan between integer marginals.

    Successive shortest paths on (r, c) int64 arrays: labels are distances
    in the real costs from the supply nodes with residual supply, and each
    augmentation fills the path to the cheapest open demand node (lowest
    index on ties).  Flows stay min-cost for their value, so labels never
    decrease and only nodes below a tree arc cut by a push are relabeled.
    Masses and costs are nonnegative integers, totals equal, and the total
    and (r + c + 1) * max cost below _INF = 2**61, else ValueError.  Returns
    int64 (flow, u, v); the duals u = -d_u, v = d_v of a last pass from an
    all-zero start satisfy u[i] + v[j] <= cost[i][j], tight where flow > 0.
    """
    ra, rb = [int(x) for x in supply], [int(x) for x in demand]
    r, c = len(ra), len(rb)
    cost = np.asarray(cost, dtype=np.int64).reshape(r, c)
    remaining, top = sum(ra), int(cost.max(initial=0))
    if remaining != sum(rb) or min(ra + rb + [int(cost.min(initial=0))]) < 0:
        raise ValueError("masses and costs must be nonnegative, with equal mass totals")
    if max(remaining, (r + c + 1) * top) >= _INF:
        raise ValueError(f"total {remaining} or {r + c + 1} x max cost {top} is not below 2**61")
    flow, back, cost_t = np.zeros((r, c), dtype=np.int64), np.full((r, c), _INF), cost.T.copy()
    d = np.array([0 if x else _INF for x in ra] + [_INF] * c, dtype=np.int64)
    closed = np.array([0 if x else _INF for x in rb], dtype=np.int64)
    du, dv, pu_a, pv_a = d[:r], d[r:], np.full(r, -1), np.full(c, -1)
    stale = True
    while remaining > 0:
        if stale:
            _settle(cost_t, back, du, dv, pu_a, pv_a)
            pu, pv = pu_a.tolist(), pv_a.tolist()
        j = end = int((dv + closed).argmin())
        path = []
        while j >= 0:
            i = pv[j]
            path.append((i, j, 1))
            j = pu[i]
            if j >= 0:
                path.append((i, j, -1))
        push = min([ra[i], rb[end]] + [int(flow[p, q]) for p, q, sign in path if sign < 0])
        if push <= 0:
            raise RuntimeError("shortest path has no residual capacity")
        ra[i] -= push
        rb[end] -= push
        remaining -= push
        closed[end] = 0 if rb[end] else _INF
        stale = [] if ra[i] else [i]  # roots of the subtrees to relabel
        for i, j, sign in path:
            flow[i, j] = f = int(flow[i, j]) + sign * push
            back[i, j] = -cost[i, j] if f else _INF
            if not f:
                stale.append(i)
        if stale:
            kids: dict[int, list[int]] = {}
            for node, up in enumerate([r + j if j >= 0 else -1 for j in pu] + pv):
                kids.setdefault(up, []).append(node)
            for node in stale:
                stale.extend(kids.get(node, ()))
            d[stale] = _INF
    d[:] = 0
    if cost.size:
        _settle(cost_t, back, du, dv, pu_a, pv_a)
    return flow, -du, dv
