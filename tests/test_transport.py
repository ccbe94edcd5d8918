import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochcone.cone as cone
from stochcone import (
    Coupling,
    DimensionMismatch,
    cost_matrix,
    dirac,
    from_atoms,
    make_rng,
    posdef_eye,
    product_metric_distance,
    thompson_distance,
    wasserstein,
    wasserstein_inf,
)
from stochcone import _flow
from stochcone.transport import _certify

from oracles import (
    brute_min_transport,
    brute_wasserstein_inf,
    loop_certify,
    numpy_thompson,
    rand_measure,
    rand_measure_dyadic,
    rand_pd,
)


def example_pair():
    mu = from_atoms([(posdef_eye(2), 0.5), (posdef_eye(2, 4.0), 0.5)])
    nu = from_atoms([(posdef_eye(2, 2.0), 0.5), (posdef_eye(2, 8.0), 0.5)])
    return mu, nu


def test_w1_hand_value_monotone_matching():
    # both extreme plans by hand: matched pairs cost log2 each; the crossed
    # plan costs (log 8 + 0) ... > log 2, so the monotone matching wins
    mu, nu = example_pair()
    dist, plan = wasserstein(mu, nu, 1.0)
    assert dist == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.allclose(plan.weights, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_wasserstein_of_identical_measures_is_zero():
    rng = make_rng(70)
    mu = rand_measure(rng, 2, 4)
    dist, plan = wasserstein(mu, mu, 1.0)
    assert dist <= 1e-11
    assert np.allclose(plan.weights.sum(axis=1), mu.weights, atol=1e-9)


def test_dirac_isometry_is_bitwise_for_all_p():
    rng = make_rng(71)
    for _ in range(10):
        x, y = rand_pd(rng, 3), rand_pd(rng, 3)
        want = thompson_distance(x, y)
        for p in (1.0, 2.0, 3.5):
            got, plan = wasserstein(dirac(x), dirac(y), p)
            assert got == want
            assert plan.weights.tolist() == [[1.0]]
        got_inf, _ = wasserstein_inf(dirac(x), dirac(y))
        assert got_inf == want


def test_cost_matrix_against_numpy_oracle():
    rng = make_rng(72)
    mu = rand_measure(rng, 2, 3)
    nu = rand_measure(rng, 2, 4)
    cm = cost_matrix(mu, nu, 2.0)
    assert cm.p == 2.0
    for i, x in enumerate(mu.points):
        for j, y in enumerate(nu.points):
            want = numpy_thompson(x.a, y.a) ** 2
            assert cm.entries[i, j] == pytest.approx(want, abs=1e-10)
    inf_cm = cost_matrix(mu, nu, math.inf)
    assert inf_cm.entries[0, 0] == pytest.approx(
        numpy_thompson(mu.points[0].a, nu.points[0].a), abs=1e-10)


def test_cost_matrix_equals_per_pair_distances():
    rng = make_rng(81)
    mu = rand_measure(rng, 3, 7, radius=3.0)
    nu = rand_measure(rng, 3, 5, radius=3.0)
    cm = cost_matrix(mu, nu, 1.0).entries
    for i, x in enumerate(mu.points):
        for j, y in enumerate(nu.points):
            assert cm[i, j] == pytest.approx(thompson_distance(x, y), rel=1e-12)


def test_cost_matrix_is_one_batched_kernel_call(count_calls):
    rng = make_rng(82)
    mu = rand_measure_dyadic(rng, 3, 6)
    nu = rand_measure_dyadic(rng, 3, 4)
    chol = count_calls(cone, "_cholesky")
    eig = count_calls(cone, "_eig")
    assert cost_matrix(mu, nu, 2.0).entries.shape == (6, 4)
    assert (len(chol), len(eig)) == (1, 1)


def test_certificate_holds_on_wide_cost_ranges():
    # d_T^p reaches ~1e15 here: quantization and the reduced-cost check must
    # be relative to the largest cost, not absolute
    rng = make_rng(12)
    for _ in range(40):
        mu = rand_measure(rng, 2, 6, radius=12.0)
        nu = rand_measure(rng, 2, 6, radius=12.0)
        for p in (6.0, 12.0):
            wasserstein(mu, nu, p)  # raises if the optimality certificate fails


def certificate_outcome(check, *args):
    try:
        check(*args)
    except RuntimeError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.booleans(), st.integers(0, 7),
                          st.sampled_from((-10 ** 9, -1001, -999, -1, 1, 999, 1001, 10 ** 9))),
                max_size=4))
def test_certificate_message_matches_the_loop_on_tampered_duals(seed, tampers):
    # 1000 grid units are the 1e-9 reduced-cost tolerance on unit costs, so
    # the shifts land on both sides of it
    rng = make_rng(seed)
    mu = rand_measure(rng, 2, 6)
    nu = rand_measure(rng, 2, 6)
    costs = cost_matrix(mu, nu, 1.0).entries
    unit = costs / (costs.max() or 1.0)
    flow, u, v = _flow.transportation_min_cost(
        _flow.apportion(mu.weights), _flow.apportion(nu.weights),
        np.rint(unit * _flow.COST_SCALE).astype(np.int64))
    assert certificate_outcome(_certify, unit, flow, u, v) is None
    for on_u, k, shift in tampers:
        duals = u if on_u else v
        duals[k % duals.size] += shift
    want = certificate_outcome(loop_certify, unit, flow.tolist(), u.tolist(), v.tolist())
    assert certificate_outcome(_certify, unit, flow, u, v) == want


def test_cost_matrix_rejects_p_below_one():
    mu, nu = example_pair()
    with pytest.raises(ValueError):
        cost_matrix(mu, nu, 0.5)


def test_solver_matches_vertex_enumeration_on_dyadic_weights():
    # dyadic weights sit exactly on the solver's mass grid, so the comparison
    # is free of quantization slack
    rng = make_rng(73)
    for k in range(30):
        r = 2 if k % 2 == 0 else 3
        c = 2 if k % 3 == 0 else 3
        mu = rand_measure_dyadic(rng, 2, r)
        nu = rand_measure_dyadic(rng, 2, c)
        for p in (1.0, 2.0):
            costs = cost_matrix(mu, nu, p).entries
            want = brute_min_transport(list(mu.weights), list(nu.weights), costs)
            got, _ = wasserstein(mu, nu, p)
            assert got ** p == pytest.approx(want, abs=1e-10)


def test_solver_near_vertex_enumeration_on_generic_weights():
    # generic weights pick up at most a few grid units of mass quantization
    rng = make_rng(74)
    for _ in range(15):
        mu = rand_measure(rng, 2, 3)
        nu = rand_measure(rng, 2, 3)
        costs = cost_matrix(mu, nu, 1.0).entries
        want = brute_min_transport(list(mu.weights), list(nu.weights), costs)
        got, _ = wasserstein(mu, nu, 1.0)
        assert got == pytest.approx(want, abs=5e-8)


def test_metric_axioms_on_random_triples():
    rng = make_rng(75)
    for _ in range(10):
        mu = rand_measure(rng, 2, 3)
        nu = rand_measure(rng, 2, 3)
        rho = rand_measure(rng, 2, 3)
        d_mn, _ = wasserstein(mu, nu, 1.0)
        d_nm, _ = wasserstein(nu, mu, 1.0)
        d_mr, _ = wasserstein(mu, rho, 1.0)
        d_rn, _ = wasserstein(rho, nu, 1.0)
        assert d_mn >= 0.0
        assert d_mn == pytest.approx(d_nm, abs=1e-9)
        assert d_mn <= d_mr + d_rn + 1e-8


def test_monotone_in_p_up_to_infinity():
    rng = make_rng(76)
    for _ in range(10):
        mu = rand_measure(rng, 2, 3)
        nu = rand_measure(rng, 2, 4)
        values = [wasserstein(mu, nu, p)[0] for p in (1.0, 1.5, 2.0, 4.0)]
        values.append(wasserstein_inf(mu, nu)[0])
        for a, b in zip(values, values[1:]):
            assert a <= b + 1e-9


def test_plan_marginals_match_inputs():
    rng = make_rng(77)
    mu = rand_measure(rng, 3, 4)
    nu = rand_measure(rng, 3, 2)
    _, plan = wasserstein(mu, nu, 2.0)
    assert np.allclose(plan.weights.sum(axis=1), mu.weights, atol=1e-8)
    assert np.allclose(plan.weights.sum(axis=0), nu.weights, atol=1e-8)
    assert np.all(plan.weights >= 0.0)


def test_wasserstein_rejects_bad_p_and_dims():
    mu, nu = example_pair()
    with pytest.raises(ValueError):
        wasserstein(mu, nu, 0.5)
    with pytest.raises(ValueError):
        wasserstein(mu, nu, math.inf)  # routed to wasserstein_inf
    with pytest.raises(DimensionMismatch):
        wasserstein(mu, dirac(posdef_eye(3)))


def test_winf_two_by_two_matches_exhaustive_matchings():
    # uniform weights, so the two permutation matchings are the extreme plans
    rng = make_rng(78)
    for _ in range(20):
        mu = from_atoms([(rand_pd(rng, 2), 0.5), (rand_pd(rng, 2), 0.5)])
        nu = from_atoms([(rand_pd(rng, 2), 0.5), (rand_pd(rng, 2), 0.5)])
        costs = cost_matrix(mu, nu, math.inf).entries
        got, plan = wasserstein_inf(mu, nu)
        matchings = [max(costs[0, 0], costs[1, 1]), max(costs[0, 1], costs[1, 0])]
        assert got == pytest.approx(min(matchings), abs=1e-12)
        # the plan attains the bottleneck it reports
        sup_cost = max(costs[i, j] for i, j in plan.support)
        assert sup_cost <= got + 1e-12


def test_winf_matches_hall_oracle():
    rng = make_rng(79)
    for _ in range(15):
        mu = rand_measure_dyadic(rng, 2, 3)
        nu = rand_measure_dyadic(rng, 2, 3)
        costs = cost_matrix(mu, nu, math.inf).entries
        want = brute_wasserstein_inf(list(mu.weights), list(nu.weights), costs)
        got, _ = wasserstein_inf(mu, nu)
        assert got == pytest.approx(want, abs=1e-12)


def test_winf_identical_measures():
    rng = make_rng(80)
    mu = rand_measure(rng, 2, 3)
    got, _ = wasserstein_inf(mu, mu)
    assert got <= 1e-11


def test_product_metric_hand_values():
    i2 = posdef_eye(2)
    xs = (i2, i2)
    ys = (posdef_eye(2, 2.0), posdef_eye(2, 4.0))
    assert product_metric_distance(xs, ys, "mean") == pytest.approx(
        (math.log(2.0) + math.log(4.0)) / 2.0, abs=1e-12)
    assert product_metric_distance(xs, ys, "max") == pytest.approx(
        math.log(4.0), abs=1e-12)
    assert product_metric_distance(xs, xs, "mean") == 0.0
    assert product_metric_distance((i2,), (posdef_eye(2, 3.0),), "max") == (
        pytest.approx(math.log(3.0), abs=1e-12))


def test_product_metric_validation():
    i2 = posdef_eye(2)
    with pytest.raises(ValueError):
        product_metric_distance((i2,), (i2, i2))
    with pytest.raises(ValueError):
        product_metric_distance((), ())
    with pytest.raises(ValueError):
        product_metric_distance((i2,), (i2,), "median")


def test_coupling_validation():
    with pytest.raises(ValueError):
        Coupling(np.array([[0.6, 0.0], [0.0, 0.4]]),
                 np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Coupling(np.array([[-0.1, 0.6], [0.5, 0.0]]),
                 np.array([0.5, 0.5]), np.array([0.4, 0.6]))
    plan = Coupling(np.array([[0.5, 0.0], [0.1, 0.4]]),
                    np.array([0.5, 0.5]), np.array([0.6, 0.4]))
    assert plan.support == [(0, 0), (1, 0), (1, 1)]
