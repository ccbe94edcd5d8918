import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochcone.means as means
from stochcone import (
    DimensionMismatch,
    MaxIterationsExceeded,
    MeanConfig,
    OrderTolerance,
    ProductCapExceeded,
    agh_check,
    arith_mean,
    dirac,
    from_atoms,
    geo_t,
    harm_mean,
    invert,
    karcher_mean,
    karcher_mean_info,
    karcher_residual,
    loewner_leq,
    make_rng,
    matrix_fn,
    measure_mean,
    measures_allclose,
    posdef,
    posdef_eye,
    power_mean,
    product_metric_distance,
    push_forward,
    sample,
    sym,
    thompson_distance,
    translate,
    tuple_mean,
)

from oracles import _power as oracle_power
from oracles import rand_measure, rand_pd, rand_psd_array

I2 = posdef_eye(2)
ORDER_TOL = OrderTolerance(1e-8)


def family(rng, d, n, radius=0.8):
    return [rand_pd(rng, d, radius) for _ in range(n)]


# -------------------------------------------------------------- closed forms


def test_arith_mean_values():
    assert np.array_equal(arith_mean([I2]).a, np.eye(2))
    got = arith_mean([I2, posdef_eye(2, 3.0)])
    assert np.array_equal(got.a, 2.0 * np.eye(2))
    diag = arith_mean([posdef(np.diag([1.0, 8.0])), posdef(np.diag([3.0, 2.0]))])
    assert np.array_equal(diag.a, np.diag([2.0, 5.0]))


def test_harm_mean_values():
    a = posdef(np.diag([2.0, 5.0]))
    assert np.allclose(harm_mean([a]).a, a.a, atol=1e-12)
    got = harm_mean([I2, posdef_eye(2, 3.0)])
    # scalar harmonic mean: 2/(1 + 1/3) = 1.5
    assert np.allclose(got.a, 1.5 * np.eye(2), atol=1e-12)


def test_am_hm_inequality_random():
    rng = make_rng(90)
    for _ in range(10):
        mats = family(rng, 3, 3)
        assert loewner_leq(harm_mean(mats), arith_mean(mats), ORDER_TOL)


def test_geo_t_values_and_endpoints():
    four = posdef_eye(2, 4.0)
    assert np.allclose(geo_t(I2, four, 0.5).a, 2.0 * np.eye(2), atol=1e-12)
    rng = make_rng(91)
    a, b = rand_pd(rng, 3), rand_pd(rng, 3)
    assert np.allclose(geo_t(a, b, 0.0).a, a.a, atol=1e-12)
    assert np.allclose(geo_t(a, b, 1.0).a, b.a, atol=1e-10)
    assert np.allclose(geo_t(a, a, 0.37).a, a.a, atol=1e-11)


def test_geo_t_symmetry_identity():
    rng = make_rng(92)
    for _ in range(10):
        a, b = rand_pd(rng, 3), rand_pd(rng, 3)
        t = float(rng.uniform(0.0, 1.0))
        left = geo_t(a, b, t).a
        right = geo_t(b, a, 1.0 - t).a
        assert np.max(np.abs(left - right)) <= 1e-9


def test_geo_t_commuting_is_scalar_interpolation():
    a = posdef(np.diag([1.0, 4.0]))
    b = posdef(np.diag([9.0, 16.0]))
    got = geo_t(a, b, 0.5).a
    assert np.allclose(got, np.diag([3.0, 8.0]), atol=1e-10)


def test_geo_t_range_check():
    with pytest.raises(ValueError):
        geo_t(I2, I2, -0.1)
    with pytest.raises(ValueError):
        geo_t(I2, I2, 1.1)


# ------------------------------------------------------------------- Karcher


def test_karcher_singleton_and_pair():
    rng = make_rng(93)
    a = rand_pd(rng, 3)
    assert np.allclose(karcher_mean([a]).a, a.a, atol=1e-10)
    for _ in range(5):
        x, y = rand_pd(rng, 3), rand_pd(rng, 3)
        got = karcher_mean([x, y])
        want = geo_t(x, y, 0.5)
        assert np.max(np.abs(got.a - want.a)) <= 1e-8


def test_karcher_commuting_family_is_exp_mean_log():
    rng = make_rng(94)
    for _ in range(5):
        diags = [np.diag(rng.uniform(0.5, 4.0, size=3)) for _ in range(4)]
        mats = [posdef(d) for d in diags]
        got = karcher_mean(mats)
        want = np.diag(np.exp(np.mean([np.log(np.diag(d)) for d in diags], axis=0)))
        assert np.max(np.abs(got.a - want)) <= 1e-8


def test_karcher_residual_certified():
    rng = make_rng(95)
    for _ in range(5):
        mats = family(rng, 3, 4)
        x, info = karcher_mean_info(mats)
        n = len(mats)
        assert info.residual <= 1e-10 * n
        fresh = karcher_residual(x, mats)
        assert abs(fresh - info.residual) <= 1e-12
        assert fresh <= 1e-10 * n


def test_karcher_permutation_invariance():
    rng = make_rng(96)
    mats = family(rng, 3, 4)
    a = karcher_mean(mats)
    b = karcher_mean(mats[::-1])
    assert np.max(np.abs(a.a - b.a)) <= 1e-10


def test_karcher_congruence_equivariance():
    rng = make_rng(97)
    mats = family(rng, 2, 3)
    c = rand_pd(rng, 2)
    moved = [posdef(c.a @ m.a @ c.a) for m in mats]
    left = karcher_mean(moved).a
    right = c.a @ karcher_mean(mats).a @ c.a
    assert np.max(np.abs(left - right)) <= 1e-8


def test_karcher_iteration_cap_error():
    rng = make_rng(98)
    mats = [rand_pd(rng, 3, 2.5) for _ in range(4)]
    with pytest.raises(MaxIterationsExceeded) as e:
        karcher_mean(mats, MeanConfig(max_iter=1))
    assert e.value.residual > 0.0


def test_karcher_monotone_in_each_argument():
    rng = make_rng(99)
    for _ in range(5):
        mats = family(rng, 2, 3)
        lifted = [translate(m, sym(rand_psd_array(rng, 2))) for m in mats]
        assert loewner_leq(karcher_mean(mats), karcher_mean(lifted), ORDER_TOL)


def test_karcher_contraction_against_product_metric():
    rng = make_rng(100)
    for _ in range(5):
        xs = family(rng, 2, 3)
        ys = family(rng, 2, 3)
        lhs = thompson_distance(karcher_mean(xs), karcher_mean(ys))
        assert lhs <= product_metric_distance(xs, ys, "max") + 1e-8


def test_arith_harm_contraction_against_sup_metric():
    rng = make_rng(101)
    for _ in range(5):
        xs = family(rng, 2, 3)
        ys = family(rng, 2, 3)
        dsup = product_metric_distance(xs, ys, "max")
        assert thompson_distance(arith_mean(xs), arith_mean(ys)) <= dsup + 1e-8
        assert thompson_distance(harm_mean(xs), harm_mean(ys)) <= dsup + 1e-8


# --------------------------------------------------------------- power means


def test_power_mean_endpoints():
    rng = make_rng(102)
    mats = family(rng, 3, 3)
    assert np.max(np.abs(power_mean(mats, 1.0).a - arith_mean(mats).a)) <= 1e-10
    assert np.max(np.abs(power_mean(mats, -1.0).a - harm_mean(mats).a)) <= 1e-10


def test_power_mean_rejects_zero_and_out_of_range():
    with pytest.raises(ValueError):
        power_mean([I2], 0.0)
    with pytest.raises(ValueError):
        power_mean([I2], 1.5)
    with pytest.raises(ValueError):
        power_mean([I2], -2.0)


def test_power_mean_monotone_in_t():
    rng = make_rng(103)
    for _ in range(5):
        mats = family(rng, 2, 2, radius=0.6)
        ts = (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0)
        means = [power_mean(mats, t) for t in ts]
        for lo, hi in zip(means, means[1:]):
            assert loewner_leq(lo, hi, ORDER_TOL)


def test_power_mean_approaches_karcher():
    rng = make_rng(104)
    mats = family(rng, 2, 3, radius=0.4)
    lam = karcher_mean(mats)
    cfg = MeanConfig(max_iter=20000)
    d_half = thompson_distance(power_mean(mats, 0.5, cfg), lam)
    d_tenth = thompson_distance(power_mean(mats, 0.1, cfg), lam)
    assert d_tenth <= d_half + 1e-9


def test_power_mean_fixed_point_property():
    # P_t solves X = (1/n) sum X #_t A_j
    rng = make_rng(105)
    mats = family(rng, 2, 3)
    t = 0.5
    x = power_mean(mats, t)
    back = arith_mean([geo_t(x, a, t) for a in mats])
    assert thompson_distance(x, back) <= 1e-8


def test_power_mean_is_within_karcher_tol_of_the_exact_mean():
    # a stop once a step moves x by at most karcher_tol leaves an error of up
    # to karcher_tol * (1 - t)/t, ~1e-8 here; a stop on the Banach bound
    # keeps it within karcher_tol
    rng = make_rng(117)
    mats = family(rng, 3, 3, radius=0.4)
    cfg = MeanConfig(max_iter=20000)
    ref, _ = oracle_power([m.a for m in mats], 0.01,
                          MeanConfig(karcher_tol=1e-15, max_iter=20000))
    got = power_mean(mats, 0.01, cfg)
    _, bound, _ = means._power(np.stack([m.a for m in mats])[:, None], 0.01, cfg)
    assert thompson_distance(got, posdef(ref)) <= bound[0] <= cfg.karcher_tol


@pytest.mark.parametrize("t", (1.0, -1.0, 0.5, -0.5, 0.1, -0.1, 0.01))
@settings(max_examples=3, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 3))
def test_stacked_power_kernel_matches_scalar_oracle(t, seed, d, n):
    # both end within 1e-13 of the exact mean: the kernel by its bound, the
    # oracle by a step below 1e-13 * |t|, which bounds its error by
    # 1e-13 * (1 - |t|)
    mats = family(make_rng(seed), d, n)
    got = power_mean(mats, t, MeanConfig(karcher_tol=1e-13, max_iter=20000)).a
    want, _ = oracle_power([m.a for m in mats], t,
                           MeanConfig(karcher_tol=1e-13 * abs(t), max_iter=20000))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_tuple_mean_dispatch():
    rng = make_rng(106)
    mats = family(rng, 2, 3)
    assert np.array_equal(tuple_mean("arith", mats).a, arith_mean(mats).a)
    assert np.array_equal(tuple_mean("harm", mats).a, harm_mean(mats).a)
    assert np.array_equal(tuple_mean("karcher", mats).a, karcher_mean(mats).a)
    cfg = MeanConfig(power_t=-1.0)
    assert np.array_equal(tuple_mean("power", mats, cfg).a,
                          power_mean(mats, -1.0, cfg).a)
    with pytest.raises(ValueError):
        tuple_mean("median", mats)


def test_mean_config_validation():
    with pytest.raises(ValueError):
        MeanConfig(karcher_tol=0.0)
    with pytest.raises(ValueError):
        MeanConfig(max_iter=0)
    with pytest.raises(ValueError):
        MeanConfig(step_shrink=1.0)
    with pytest.raises(ValueError):
        MeanConfig(power_t=2.0)
    with pytest.raises(ValueError):
        MeanConfig(product_cap=0)
    with pytest.raises(ValueError):
        MeanConfig(mc_samples=0)


def test_mean_input_validation():
    with pytest.raises(ValueError):
        arith_mean([])
    with pytest.raises(DimensionMismatch):
        arith_mean([I2, posdef_eye(3)])


# ------------------------------------------------------------- measure means


def delta_and_uniform():
    x = posdef(np.diag([2.0, 1.0]))
    ajs = [posdef_eye(2), posdef(np.diag([4.0, 9.0])), posdef(np.diag([1.0, 16.0]))]
    mu = from_atoms([(a, 1.0 / 3.0) for a in ajs])
    return x, ajs, mu


def test_measure_mean_geometric_closed_form():
    x, ajs, mu = delta_and_uniform()
    got = measure_mean("karcher", [dirac(x), mu])
    want = from_atoms([(geo_t(x, a, 0.5), 1.0 / 3.0) for a in ajs])
    assert measures_allclose(got, want, atom_tol=1e-8, weight_tol=1e-12)
    assert got.meta == {"mode": "exact"}


def test_measure_mean_arithmetic_closed_form():
    x, ajs, mu = delta_and_uniform()
    got = measure_mean("arith", [dirac(x), mu])
    want = from_atoms([(posdef((x.a + a.a) / 2.0), 1.0 / 3.0) for a in ajs])
    assert measures_allclose(got, want, atom_tol=1e-12, weight_tol=1e-12)


def test_measure_mean_harmonic_closed_form():
    x, ajs, mu = delta_and_uniform()
    got = measure_mean("harm", [dirac(x), mu])
    want = from_atoms([(harm_mean([x, a]), 1.0 / 3.0) for a in ajs])
    assert measures_allclose(got, want, atom_tol=1e-10, weight_tol=1e-12)


def test_measure_mean_weights_are_product_weights():
    mu = from_atoms([(posdef_eye(2), 0.25), (posdef_eye(2, 4.0), 0.75)])
    nu = from_atoms([(posdef_eye(2, 2.0), 0.4), (posdef_eye(2, 8.0), 0.6)])
    got = measure_mean("arith", [mu, nu])
    # all four pairwise arithmetic means are distinct scaled identities
    assert got.size == 4
    weights = sorted(float(w) for w in got.weights)
    assert weights == pytest.approx(sorted([0.1, 0.15, 0.3, 0.45]), abs=1e-12)


def test_measure_mean_pools_coinciding_atoms():
    mu = from_atoms([(posdef_eye(2), 0.5), (posdef_eye(2, 4.0), 0.5)])
    got = measure_mean("karcher", [mu, mu])
    # tuples (I,4I) and (4I,I) share the mean 2I, pooling to weight 1/2
    assert got.size == 3
    idx = [i for i, p in enumerate(got.points)
           if abs(p.a[0, 0] - 2.0) < 1e-8]
    assert len(idx) == 1
    assert float(got.weights[idx[0]]) == pytest.approx(0.5, abs=1e-12)


def test_measure_mean_inversion_duality():
    rng = make_rng(107)
    mus = [rand_measure(rng, 2, 2) for _ in range(2)]
    left = measure_mean("harm", mus)
    right = invert(measure_mean("arith", [invert(m) for m in mus]))
    assert measures_allclose(left, right, atom_tol=1e-9, weight_tol=1e-9)


def test_measure_mean_sampled_mode_metadata_and_determinism():
    rng = make_rng(108)
    mus = [from_atoms([(rand_pd(rng, 2), 0.5), (rand_pd(rng, 2), 0.5)])
           for _ in range(2)]
    cfg = MeanConfig(product_cap=2, mc_samples=40, seed=5)
    got = measure_mean("arith", mus, cfg)
    assert got.meta == {"mode": "sampled", "mc_samples": 40}
    again = measure_mean("arith", mus, cfg)
    assert measures_allclose(got, again, atom_tol=0.0, weight_tol=0.0)
    with pytest.raises(ProductCapExceeded):
        measure_mean("arith", mus, MeanConfig(product_cap=2))
    # the default cap of 4096 admits 2^12 tuples and refuses 2^13
    halves = [from_atoms([(I2, 0.5), (posdef_eye(2, 3.0), 0.5)]) for _ in range(13)]
    assert measure_mean("arith", halves[:12]).meta == {"mode": "exact"}
    with pytest.raises(ProductCapExceeded) as e:
        measure_mean("arith", halves)
    assert e.value.size == 8192
    assert "sampled" in str(e.value)


def test_measure_mean_validation():
    with pytest.raises(ValueError):
        measure_mean("median", [dirac(I2)])
    with pytest.raises(ValueError):
        measure_mean("arith", [])
    with pytest.raises(DimensionMismatch):
        measure_mean("arith", [dirac(I2), dirac(posdef_eye(3))])


def test_agh_check_on_diracs_reduces_to_matrix_chain():
    rng = make_rng(109)
    mats = family(rng, 2, 3)
    report = agh_check([dirac(m) for m in mats])
    assert report.holds
    assert report.harm_vs_karcher.holds and report.karcher_vs_arith.holds


def test_agh_check_random_instance_with_witnesses():
    rng = make_rng(110)
    mus = [rand_measure(rng, 2, 2) for _ in range(2)]
    report = agh_check(mus)
    assert report.holds
    assert report.harm_vs_karcher.certificate is not None
    assert report.karcher_vs_arith.certificate is not None


def test_translation_monotonicity_of_measures():
    rng = make_rng(111)
    from stochcone import dominates_by_coupling

    for _ in range(5):
        mu = rand_measure(rng, 2, 3)
        shift = sym(rand_psd_array(rng, 2))
        nu = push_forward(mu, lambda p: translate(p, shift))
        assert dominates_by_coupling(mu, nu, tol=1e-8)


# ------------------------------------------------------ stacked measure means


def separated_measure(rng, d, n_atoms):
    return from_atoms([(rand_pd(rng, d), float(rng.random()) + 0.1) for _ in range(n_atoms)])


def test_karcher_step_collapse_reports_the_step():
    # a tolerance no input allows forces rejected steps once the iteration
    # reaches rounding level; a tiny shrink factor collapses the step at once
    rng = make_rng(112)
    mats = family(rng, 3, 3)
    cfg = MeanConfig(karcher_tol=1e-300, step_shrink=1e-13)
    with pytest.raises(MaxIterationsExceeded) as e:
        karcher_mean(mats, cfg)
    msg = str(e.value)
    assert msg.startswith("Karcher step search stalled: step size collapsed to 1.000e-13")
    assert "iterations" not in msg
    assert e.value.step == 1e-13
    mus = [from_atoms([(m, 1.0), (rand_pd(rng, 3), 1.0)]) for m in mats]
    with pytest.raises(MaxIterationsExceeded) as e:
        measure_mean("karcher", mus, cfg)
    assert str(e.value).startswith("Karcher step search on tuple 0 stalled: step size collapsed")


def test_karcher_iteration_cap_names_the_tuple():
    rng = make_rng(113)
    b, c, d = (rand_pd(rng, 3, 2.5) for _ in range(3))
    mus = [from_atoms([(posdef_eye(3), 1.0), (b, 1.0)]),
           from_atoms([(posdef_eye(3), 1.0), (c, 1.0)]), dirac(d)]
    # tuple 0, (I, I, d), commutes: one full step solves it exactly, so the
    # first tuple over the cap is tuple 1, (I, c, d)
    with pytest.raises(MaxIterationsExceeded, match="^Karcher iteration on tuple 1 did not "
                                                   "converge within 1 iterations"):
        measure_mean("karcher", mus, MeanConfig(max_iter=1))


def check_atoms_equal_tuple_means(kind, cfg, one):
    """Every atom of an exact and of a sampled measure mean of this kind is
    bit for bit one(tuple) of its tuple."""
    rng = make_rng(114)
    mus = [separated_measure(rng, 3, k) for k in (3, 4, 2)]
    got = measure_mean(kind, mus, cfg)
    tuples = list(itertools.product(*(m.points for m in mus)))
    assert got.size == len(tuples)
    for x, tup in zip(got.points, tuples):
        assert np.array_equal(x.a, one(list(tup)).a)
    # sampled: the same draws, each mean computed alone, pooled the same way
    cfg = dataclasses.replace(cfg, product_cap=4, mc_samples=30, seed=11)
    got = measure_mean(kind, mus, cfg)
    gen = make_rng(11)
    draws = [sample(m, 30, gen) for m in mus]
    want = from_atoms([(one([col[i] for col in draws]), 1.0 / 30) for i in range(30)])
    assert got.size == want.size < 30
    assert np.array_equal(got.arrays, want.arrays)
    assert np.array_equal(got.weights, want.weights)


def test_karcher_measure_mean_atoms_equal_karcher_mean_bitwise():
    check_atoms_equal_tuple_means("karcher", MeanConfig(), karcher_mean)


def test_power_measure_mean_atoms_equal_power_mean_bitwise():
    cfg = MeanConfig(power_t=-0.5)
    check_atoms_equal_tuple_means("power", cfg, lambda tup: power_mean(tup, -0.5, cfg))


def test_power_iteration_cap_names_the_tuple():
    rng = make_rng(118)
    b, c, d = (rand_pd(rng, 3, 2.5) for _ in range(3))
    with pytest.raises(MaxIterationsExceeded, match=r"^power mean \(t=0\.5\) did not converge "
                                                   r"within 1 iterations") as e:
        power_mean([b, d], 0.5, MeanConfig(max_iter=1))
    assert e.value.residual > 0.0
    mus = [from_atoms([(b, 1.0), (c, 1.0)]), from_atoms([(b, 1.0), (d, 1.0)])]
    # tuple 0, (b, b), is its own mean after one step, so the first tuple
    # over the cap is tuple 1, (b, d); the message names the order asked for
    with pytest.raises(MaxIterationsExceeded, match=r"^power mean \(t=-0\.5\) on tuple 1 "
                                                   r"did not converge within 1 iterations"):
        measure_mean("power", mus, MeanConfig(power_t=-0.5, max_iter=1))


def test_karcher_measure_mean_eig_calls_follow_iterations_not_atoms(count_calls):
    rng = make_rng(115)
    mus = [separated_measure(rng, 2, 16) for _ in range(2)]
    iters = max(karcher_mean_info([x, y])[1].iterations
                for x in mus[0].points for y in mus[1].points)
    eig = count_calls(means, "_eig")
    got = measure_mean("karcher", mus)
    assert got.size == 256
    # two batched calls for the start, three per stacked iteration
    assert len(eig) == 2 + 3 * iters
    assert len(eig) < 256


def test_power_measure_mean_eig_calls_follow_iterations_not_atoms(count_calls):
    rng = make_rng(115)
    mus = [separated_measure(rng, 2, 16) for _ in range(2)]
    cfg = MeanConfig(power_t=-0.5)
    iters = max(int(means._power(np.stack([x.a, y.a])[:, None], -0.5, cfg)[2][0])
                for x in mus[0].points for y in mus[1].points)
    eig = count_calls(means, "_eig")
    got = measure_mean("power", mus, cfg)
    assert got.size == 256
    # an inversion before and after, three batched calls per stacked step
    assert len(eig) == 2 + 3 * iters
    assert len(eig) < 256


def test_arith_measure_mean_of_4096_atoms_matches_tuple_oracle():
    rng = make_rng(116)
    mus = [separated_measure(rng, 2, 16) for _ in range(3)]
    got = measure_mean("arith", mus)
    assert got.size == 4096
    assert got.meta == {"mode": "exact"}
    tuples = list(itertools.product(*(m.atoms for m in mus)))
    want = np.array([np.mean([p.a for p, _ in tup], axis=0) for tup in tuples])
    assert np.allclose(got.arrays, want, rtol=1e-14, atol=0.0)
    want_w = np.array([math.prod(w for _, w in tup) for tup in tuples])
    assert np.allclose(got.weights, want_w, rtol=1e-14, atol=0.0)
