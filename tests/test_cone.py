import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochcone import (
    DimensionMismatch,
    NotPositiveDefinite,
    OrderRelation,
    OrderTolerance,
    SpectralDomainError,
    dominating_transport,
    eigh,
    gauge,
    loewner_leq,
    loewner_pairwise,
    make_rng,
    order_compare,
    order_interval_contains,
    posdef,
    posdef_eye,
    sym,
    thompson_distance,
    thompson_pairwise,
    translate,
)

from oracles import (
    jacobi_thompson,
    mpmath_thompson,
    numpy_thompson,
    rand_pd,
    rand_psd_array,
    rand_sym,
)


def test_posdef_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as e:
        posdef(np.diag([1.0, -1.0]))
    assert e.value.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_posdef_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        posdef(np.diag([1.0, 0.0]))


def test_posdef_floor_is_configurable():
    a = np.diag([1.0, 1e-13])
    with pytest.raises(NotPositiveDefinite):
        posdef(a)
    assert posdef(a, pd_floor=1e-14).dim == 2


def test_posdef_eye_scale():
    x = posdef_eye(3, 2.0)
    assert np.array_equal(x.a, 2.0 * np.eye(3))


def test_loewner_basics():
    i2 = posdef_eye(2)
    two = posdef_eye(2, 2.0)
    assert loewner_leq(i2, two)
    assert not loewner_leq(two, i2)
    assert loewner_leq(i2, i2)


def test_loewner_incomparable_pair():
    x = posdef(np.diag([1.0, 2.0]))
    y = posdef(np.diag([2.0, 1.0]))
    assert not loewner_leq(x, y)
    assert not loewner_leq(y, x)
    assert order_compare(x, y) is OrderRelation.INCOMPARABLE


def test_loewner_closed_at_the_boundary():
    x = posdef_eye(2)
    y = posdef(np.eye(2) + 1e-12 * np.array([[1.0, 0.0], [0.0, -1.0]]))
    # y - x has an eigenvalue at -1e-12; the closed test absorbs it
    assert loewner_leq(x, y)
    assert not loewner_leq(x, y, OrderTolerance(0.0))


def test_loewner_accepts_raw_arrays_and_symmatrix():
    assert loewner_leq(np.eye(2), sym(2.0 * np.eye(2)))


def test_loewner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        loewner_leq(posdef_eye(2), posdef_eye(3))


def test_order_compare_all_branches():
    a = posdef_eye(2)
    assert order_compare(a, posdef_eye(2, 2.0)) is OrderRelation.LT
    assert order_compare(posdef_eye(2, 2.0), a) is OrderRelation.GT
    assert order_compare(a, posdef(np.eye(2) + 1e-13)) is OrderRelation.EQ
    assert order_compare(posdef(np.diag([1.0, 2.0])),
                         posdef(np.diag([2.0, 1.0]))) is OrderRelation.INCOMPARABLE


def test_gauge_hand_value():
    # smallest lambda with diag(2,6) <= lambda diag(1,2) is max(2/1, 6/2) = 3
    x = posdef(np.diag([2.0, 6.0]))
    y = posdef(np.diag([1.0, 2.0]))
    assert gauge(x, y) == pytest.approx(3.0, abs=1e-12)


def test_gauge_reflexive_and_homogeneous():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rand_pd(rng, 3)
        assert gauge(x, x) == pytest.approx(1.0, abs=1e-10)
        c = float(rng.uniform(0.5, 2.0))
        y = rand_pd(rng, 3)
        cx = posdef(c * x.a)
        assert gauge(cx, y) == pytest.approx(c * gauge(x, y), rel=1e-10)


def test_gauge_characterizes_scaling_dominance():
    rng = np.random.default_rng(4)
    x = rand_pd(rng, 3)
    y = rand_pd(rng, 3)
    lam = gauge(x, y)
    assert loewner_leq(x, posdef((lam + 1e-9) * y.a))
    assert not loewner_leq(x, posdef((lam * (1 - 1e-6)) * y.a), OrderTolerance(0.0))


def test_thompson_hand_value():
    x = posdef(np.diag([1.0, 2.0]))
    y = posdef(np.diag([2.0, 1.0]))
    assert thompson_distance(x, y) == pytest.approx(math.log(2.0), abs=1e-12)


def test_thompson_metric_axioms():
    rng = np.random.default_rng(6)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        x, y, z = (rand_pd(rng, d) for _ in range(3))
        dxy = thompson_distance(x, y)
        assert dxy >= 0.0
        assert thompson_distance(x, x) <= 1e-12
        assert dxy == pytest.approx(thompson_distance(y, x), abs=1e-10)
        assert dxy <= thompson_distance(x, z) + thompson_distance(z, y) + 1e-9


def test_thompson_scaling_invariance():
    rng = np.random.default_rng(8)
    x, y = rand_pd(rng, 3), rand_pd(rng, 3)
    c = 3.7
    got = thompson_distance(posdef(c * x.a), posdef(c * y.a))
    assert got == pytest.approx(thompson_distance(x, y), abs=1e-10)


def test_thompson_of_scaled_identity():
    assert thompson_distance(posdef_eye(2), posdef_eye(2, 4.0)) == pytest.approx(
        math.log(4.0), abs=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_thompson_matches_numpy_oracle(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    x, y = rand_pd(rng, d, 1.5), rand_pd(rng, d, 1.5)
    got = thompson_distance(x, y)
    assert got == pytest.approx(numpy_thompson(x.a, y.a), abs=1e-10)
    assert got == pytest.approx(jacobi_thompson(x.a, y.a), abs=1e-10)


def test_thompson_accurate_on_wide_spectra():
    # radius 12 puts whitened spectra across ~1e14; 60-digit reference
    pytest.importorskip("mpmath")
    rng = make_rng(12)
    for _ in range(60):
        x, y = rand_pd(rng, 2, 12.0), rand_pd(rng, 2, 12.0)
        want = mpmath_thompson(x.a, y.a)
        assert abs(thompson_distance(x, y) - want) <= 1e-8 * want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
def test_pairwise_kernels_match_scalar_calls(seed, n, m):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    xs = [rand_pd(rng, d, 1.5) for _ in range(n)]
    # every other y dominates an x by a PSD shift, so both verdicts occur
    ys = [translate(xs[j % n], sym(rand_psd_array(rng, d))) if j % 2 == 0
          else rand_pd(rng, d, 1.5) for j in range(m)]
    ax, ay = np.stack([x.a for x in xs]), np.stack([y.a for y in ys])
    dist = thompson_pairwise(ax, ay)
    leq = loewner_pairwise(ax, ay)
    assert dist.shape == leq.shape == (n, m)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert dist[i, j] == pytest.approx(thompson_distance(x, y), rel=1e-12, abs=1e-15)
            assert leq[i, j] == loewner_leq(x, y)
    assert leq[:, 0::2].any(axis=0).all()


def test_pairwise_kernels_validate_stacks():
    ok = np.stack([np.eye(2)] * 2)
    with pytest.raises(DimensionMismatch):
        thompson_pairwise(ok, np.stack([np.eye(3)]))
    with pytest.raises(DimensionMismatch):
        loewner_pairwise(ok, np.eye(2))
    with pytest.raises(SpectralDomainError):
        thompson_pairwise(ok, np.stack([np.diag([1.0, -1.0])]))
    with pytest.raises(SpectralDomainError):
        thompson_pairwise(np.stack([np.diag([1.0, -1.0])]), ok)


def test_translate_shifts_and_validates():
    x = posdef_eye(2)
    a = sym(np.diag([1.0, 0.0]))
    y = translate(x, a)
    assert np.allclose(y.a, np.diag([2.0, 1.0]), atol=0)
    with pytest.raises(ValueError):
        translate(x, sym(np.diag([-0.5, 0.0])))
    with pytest.raises(DimensionMismatch):
        translate(x, sym(np.eye(3)))


def test_translate_is_nonexpansive():
    rng = np.random.default_rng(10)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        x, y = rand_pd(rng, d), rand_pd(rng, d)
        z = sym(rand_psd_array(rng, d))
        before = thompson_distance(x, y)
        after = thompson_distance(translate(x, z), translate(y, z))
        assert after <= before + 1e-10


def test_order_interval_membership():
    lo = posdef_eye(2)
    hi = posdef_eye(2, 3.0)
    assert order_interval_contains(lo, hi, posdef_eye(2, 2.0))
    assert not order_interval_contains(lo, hi, posdef_eye(2, 4.0))
    assert not order_interval_contains(lo, hi, posdef(np.diag([2.0, 0.5])))
    with pytest.raises(ValueError):
        order_interval_contains(hi, lo, posdef_eye(2, 2.0))


def test_normality_of_the_order():
    # 0 <= x <= y forces the top eigenvalue not to drop
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        x = rand_pd(rng, d)
        y = translate(x, sym(rand_psd_array(rng, d)))
        wx = eigh(x.m).eigenvalues
        wy = eigh(y.m).eigenvalues
        assert wx[-1] <= wy[-1] + 1e-12


def test_dominating_transport_hand_value():
    x = posdef_eye(2)
    y = posdef_eye(2, 2.0)
    x1 = posdef_eye(2, 3.0)
    y1 = dominating_transport(x, y, x1)
    assert np.allclose(y1.a, 4.0 * np.eye(2), atol=0)
    assert thompson_distance(y, y1) == pytest.approx(math.log(2.0), abs=1e-12)
    assert thompson_distance(x, x1) == pytest.approx(math.log(3.0), abs=1e-12)


def test_dominating_transport_properties():
    rng = np.random.default_rng(14)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        x = rand_pd(rng, d)
        y = translate(x, sym(rand_psd_array(rng, d)))
        x1 = rand_pd(rng, d)
        y1 = dominating_transport(x, y, x1)
        assert loewner_leq(x1, y1)
        assert thompson_distance(y, y1) <= thompson_distance(x, x1) + 1e-10


def test_dominating_transport_requires_dominance():
    with pytest.raises(ValueError):
        dominating_transport(posdef_eye(2, 2.0), posdef_eye(2), posdef_eye(2))


def test_order_tolerance_validation():
    with pytest.raises(ValueError):
        OrderTolerance(-1e-3)
    with pytest.raises(ValueError):
        OrderTolerance(math.inf)
