"""The integer flow kernels in stochcone._flow, against the oracles: the former
pure-Python min-cost core, basic-solution enumeration, Hall's condition and,
when scipy is installed, a linear-programming solve."""
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochcone.cli as cli
from stochcone import _flow

from oracles import brute_min_transport, hall_feasible, ssp_transportation_min_cost

DATA = Path(__file__).resolve().parent / "data" / "sample.json"


# ---------------------------------------------------------------- apportion


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=12))
def test_apportion_sums_exactly_within_one_unit(raw):
    total = sum(raw)
    weights = [x / total for x in raw]
    if abs(sum(weights) - 1.0) > 1e-15:
        weights[-1] = 1.0 - sum(weights[:-1])
    out = _flow.apportion(weights)
    assert sum(out) == _flow.MASS_SCALE
    for w, m in zip(weights, out):
        assert abs(m - w * _flow.MASS_SCALE) < 1.0


def test_apportion_ties_go_to_the_earlier_index():
    assert _flow.apportion([0.5, 0.5], scale=3) == [2, 1]
    assert _flow.apportion([0.25] * 4, scale=2) == [1, 1, 0, 0]
    assert _flow.apportion([0.1, 0.45, 0.45], scale=11) == [1, 5, 5]
    assert _flow.apportion([0.1, 0.45, 0.45], scale=10) == [1, 5, 4]


@pytest.mark.parametrize("weights", [[0.5, 0.6], [0.3, 0.3], [0.5, 0.5 + 2e-9]])
def test_apportion_rejects_weights_off_one(weights):
    with pytest.raises(ValueError):
        _flow.apportion(weights)


# ------------------------------------------------------- bipartite max flow


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_max_flow_equals_min_cut_and_hall(r, c, seed):
    rng = np.random.default_rng(seed)
    a = [int(x) for x in rng.integers(0, 6, r)]
    b = [int(x) for x in rng.multinomial(sum(a), np.ones(c) / c)]
    edges = (rng.random((r, c)) < rng.uniform(0.2, 0.9)).tolist()
    value, flow, source_side = _flow.bipartite_max_flow(a, b, edges)
    f = np.asarray(flow)
    assert int(f.sum()) == value
    assert (f >= 0).all() and not f[~np.asarray(edges, dtype=bool)].any()
    assert (f.sum(axis=1) <= a).all() and (f.sum(axis=0) <= b).all()
    # the supply atoms on the source side and their neighbours close the cut
    reach = [i for i in range(r) if source_side[i]]
    neigh = {j for i in reach for j in range(c) if edges[i][j]}
    cut = sum(a[i] for i in range(r) if not source_side[i]) + sum(b[j] for j in neigh)
    assert value == cut
    assert (value == sum(a)) == hall_feasible(a, b, edges)


# ------------------------------------------------------- min-cost transport


def masses(draw, k, total):
    """k nonnegative integers summing to total."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
    bounds = [0] + cuts + [total]
    return [bounds[t + 1] - bounds[t] for t in range(k)]


@st.composite
def instances(draw, kind):
    """(supply, demand, cost) of one instance class."""
    if kind == "row":
        r, c = 1, draw(st.integers(1, 8))
    elif kind == "column":
        r, c = draw(st.integers(1, 8)), 1
    else:
        r, c = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if kind == "uniform":
        a = _flow.apportion([1.0 / r] * r)
        b = _flow.apportion([1.0 / c] * c)
    elif draw(st.booleans()):
        a = masses(draw, r, _flow.MASS_SCALE)
        b = masses(draw, c, _flow.MASS_SCALE)
    else:
        total = draw(st.integers(0, 40))
        a, b = masses(draw, r, total), masses(draw, c, total)
    if kind == "ties":
        cost = draw(st.lists(st.integers(0, 3), min_size=r * c, max_size=r * c))
    elif kind == "zero":
        cost = [0] * (r * c)
    else:  # generic: no two plans share a cost, so the optimum is unique
        seed = draw(st.integers(0, 2 ** 32 - 1))
        cost = np.random.default_rng(seed).integers(0, 10 ** 12, r * c).tolist()
    return a, b, np.asarray(cost, dtype=np.int64).reshape(r, c)


def objective(flow, cost) -> int:
    """Plan cost summed in Python integers (cost x flow overflows int64)."""
    return sum(int(f) * int(k) for f, k in zip(np.ravel(flow), np.ravel(cost)))


def check_against_oracle(a, b, cost, same_plan):
    flow, u, v = _flow.transportation_min_cost(a, b, cost)
    want, _, _ = ssp_transportation_min_cost(a, b, cost.tolist())
    assert flow.dtype == u.dtype == v.dtype == np.int64
    assert flow.shape == cost.shape and u.shape == (len(a),) and v.shape == (len(b),)
    assert objective(flow, cost) == objective(want, cost)
    assert (flow >= 0).all()
    assert flow.sum(axis=1).tolist() == a and flow.sum(axis=0).tolist() == b
    reduced = [[int(cost[i, j]) - int(u[i]) - int(v[j]) for j in range(len(b))]
               for i in range(len(a))]
    assert min(min(row) for row in reduced) >= 0
    assert all(reduced[i][j] == 0 for i, j in zip(*np.nonzero(flow)))
    if same_plan:
        assert flow.tolist() == want


@pytest.mark.parametrize("kind", ["generic", "ties", "zero", "uniform", "row", "column"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_min_cost_matches_the_former_core(kind, data):
    a, b, cost = data.draw(instances(kind))
    check_against_oracle(a, b, cost, same_plan=kind in ("generic", "uniform", "row", "column"))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_min_cost_matches_vertex_enumeration(r, c, seed):
    rng = np.random.default_rng(seed)
    a = [int(x) for x in rng.integers(0, 20, r)]
    b = [int(x) for x in rng.multinomial(sum(a), np.ones(c) / c)]
    cost = rng.integers(0, 50, (r, c))
    flow, _, _ = _flow.transportation_min_cost(a, b, cost)
    # small integers keep the enumeration's float sums exact
    assert objective(flow, cost) == brute_min_transport(a, b, cost.astype(float))


def test_min_cost_matches_linear_programming():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5)
    for r, c in itertools.product((1, 4, 9), (1, 5, 12)):
        a = _flow.apportion(list(rng.dirichlet(np.ones(r))))
        b = _flow.apportion(list(rng.dirichlet(np.ones(c))))
        cost = rng.integers(0, 10 ** 12, (r, c))
        rows = np.kron(np.eye(r), np.ones(c))
        cols = np.kron(np.ones(r), np.eye(c))
        scale = float(_flow.MASS_SCALE) * 1e12
        lp = optimize.linprog(cost.ravel() / 1e12, A_eq=np.vstack([rows, cols]),
                              b_eq=np.array(a + b, dtype=float) / _flow.MASS_SCALE,
                              method="highs")
        assert lp.status == 0
        flow, _, _ = _flow.transportation_min_cost(a, b, cost)
        assert objective(flow, cost) / scale == pytest.approx(lp.fun, rel=1e-9, abs=1e-9)


def test_min_cost_near_the_int64_limit_is_exact():
    # the largest costs the range guard admits: labels reach (r + c) * top
    rng = np.random.default_rng(6)
    for r, c in ((1, 1), (2, 3), (4, 4)):
        top = (_flow._INF - 1) // (r + c + 1)
        cost = rng.integers(top - 10 ** 6, top + 1, (r, c))
        a = _flow.apportion(list(rng.dirichlet(np.ones(r))))
        b = _flow.apportion(list(rng.dirichlet(np.ones(c))))
        check_against_oracle(a, b, cost, same_plan=True)


def test_min_cost_degenerate_sizes():
    for r, c in ((0, 0), (0, 2), (3, 0)):
        flow, u, v = _flow.transportation_min_cost([0] * r, [0] * c, np.zeros((r, c)))
        assert flow.shape == (r, c) and u.shape == (r,) and v.shape == (c,)
    flow, u, v = _flow.transportation_min_cost([0, 0], [0], [[4], [2]])
    assert flow.tolist() == [[0], [0]]
    assert (u + v <= [4, 2]).all()


@pytest.mark.parametrize("a, b, cost, match", [
    ([1, 1], [2], [[1], [-1]], "nonnegative"),
    ([1, 1], [3], [[1], [1]], "equal mass totals"),
    ([3, -1], [2], [[1], [1]], "nonnegative"),
    ([1], [1], [[(_flow._INF + 2) // 3]], "2\\*\\*61"),
    ([2, 3], [5], [[(_flow._INF + 3) // 4], [0]], "2\\*\\*61"),
    ([_flow._INF], [_flow._INF], [[0]], "2\\*\\*61"),
])
def test_min_cost_rejects_inputs_out_of_range(a, b, cost, match):
    with pytest.raises(ValueError, match=match):
        _flow.transportation_min_cost(a, b, cost)


def test_min_cost_rejects_costs_beyond_int64():
    with pytest.raises(OverflowError):
        _flow.transportation_min_cost([1], [1], [[2 ** 63]])


def test_relaxation_on_a_negative_cycle_stops_at_the_round_cap():
    # flows (0, 1) and (1, 0) on costs [[0, 5], [5, 0]] leave the residual
    # cycle s0 -> d0 -> s1 -> d1 -> s0 of cost -10
    cost = np.array([[0, 5], [5, 0]], dtype=np.int64)
    back = np.array([[_flow._INF, -5], [-5, _flow._INF]], dtype=np.int64)
    du, dv = np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)
    pu, pv = np.full(2, -1), np.full(2, -1)
    with pytest.raises(RuntimeError, match="did not settle in 5 rounds"):
        _flow._settle(cost.T.copy(), back, du, dv, pu, pv)


def test_unsettled_labels_exit_4(capsys, monkeypatch):
    settle = _flow._settle

    def cyclic(cost_t, back, *labels):
        # every arc gets a reverse arc one unit cheaper than its negation
        settle(cost_t, -cost_t.T - 1, *labels)

    monkeypatch.setattr(_flow, "_settle", cyclic)
    code = cli.main(["wasserstein", str(DATA), "low", "high"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("error: shortest-path labels did not settle")
