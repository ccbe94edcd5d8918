"""Integer network-flow kernels.

Masses are put on a 1e-9 grid by largest-remainder apportionment, costs on a
1e-12 grid, and everything downstream is exact integer arithmetic: Dinic for
feasibility/max-flow questions and successive shortest paths with potentials
for min-cost transport.  Node and arc orders are fixed by construction, so
results are deterministic.
"""
from __future__ import annotations

from typing import Sequence

MASS_SCALE = 10 ** 9
COST_SCALE = 10 ** 12


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


def transportation_min_cost(supply: Sequence[int], demand: Sequence[int],
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
