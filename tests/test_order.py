import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochcone.cone as cone
from stochcone import (
    Coupling,
    DimensionMismatch,
    MAX_ENUM_POINTS,
    OrderTolerance,
    SupportTooLarge,
    UpperSetCertificate,
    dirac,
    dominates_by_coupling,
    dominates_by_upper_sets,
    enumerate_upper_sets,
    from_atoms,
    loewner_leq,
    make_rng,
    posdef,
    posdef_eye,
    probe_monotone_functionals,
    push_forward,
    sym,
    translate,
    verdict_to_json_dict,
)

from oracles import (
    brute_stochastic_dominance,
    brute_upper_sets,
    merged_support,
    rand_measure,
    rand_pd,
    rand_psd_array,
)


def leq(x, y):
    return loewner_leq(x, y)


def upset_family(points, **kw):
    return {frozenset(u.member_indices) for u in enumerate_upper_sets(points, **kw)}


def scaled_identities(*scales, dim=2):
    return [posdef_eye(dim, s) for s in scales]


def dominated_pair(rng, d, n_atoms):
    """(mu, nu) with nu = image of mu under an order-raising map."""
    mu = rand_measure(rng, d, n_atoms)
    shift = sym(rand_psd_array(rng, d, scale=1.0))
    nu = push_forward(mu, lambda p: translate(p, shift))
    return mu, nu


# ---------------------------------------------------------------- upper sets


def test_upper_sets_single_point():
    assert upset_family([posdef_eye(2)]) == {frozenset(), frozenset({0})}


def test_upper_sets_two_point_chain():
    fam = upset_family(scaled_identities(1.0, 2.0))
    assert fam == {frozenset(), frozenset({1}), frozenset({0, 1})}


def test_upper_sets_two_incomparable_points():
    pts = [posdef(np.diag([1.0, 2.0])), posdef(np.diag([2.0, 1.0]))]
    assert len(upset_family(pts)) == 4


def test_upper_sets_three_chain_and_antichain():
    assert len(upset_family(scaled_identities(1.0, 2.0, 3.0))) == 4
    anti = [posdef(np.diag([3.0, 1.0, 1.0])),
            posdef(np.diag([1.0, 3.0, 1.0])),
            posdef(np.diag([1.0, 1.0, 3.0]))]
    assert len(upset_family(anti)) == 8


def test_upper_sets_vee_shape():
    bottom = posdef_eye(2)
    a = posdef(np.diag([3.0, 1.5]))
    b = posdef(np.diag([1.5, 3.0]))
    fam = upset_family([bottom, a, b])
    assert fam == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }


def test_upper_sets_collapse_near_equal_points():
    tied = posdef(np.eye(2) * (1.0 + 1e-13))
    fam = upset_family([posdef_eye(2), tied, posdef_eye(2, 2.0)])
    assert len(fam) == 3
    for s in fam:
        assert (0 in s) == (1 in s)


def test_upper_sets_all_upward_closed():
    rng = make_rng(40)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        pts = [rand_pd(rng, d, 1.2) for _ in range(int(rng.integers(2, 7)))]
        for s in upset_family(pts):
            for i in s:
                for j in range(len(pts)):
                    if leq(pts[i], pts[j]):
                        assert j in s


def test_upper_sets_match_brute_filter_on_diagonal_posets():
    rng = make_rng(41)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 8))
        pts = [posdef(np.diag(rng.integers(1, 5, size=d).astype(float)))
               for _ in range(n)]
        leqm = [[leq(p, q) for q in pts] for p in pts]
        assert upset_family(pts) == brute_upper_sets(leqm)


def test_upper_sets_match_brute_filter_on_generic_points():
    rng = make_rng(42)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        pts = [rand_pd(rng, d, 1.5) for _ in range(n)]
        leqm = [[leq(p, q) for q in pts] for p in pts]
        assert upset_family(pts) == brute_upper_sets(leqm)


def test_upper_sets_cap():
    pts = scaled_identities(*np.linspace(1.0, 5.0, MAX_ENUM_POINTS + 1))
    with pytest.raises(SupportTooLarge):
        enumerate_upper_sets(pts)


def test_upper_sets_respect_custom_leq():
    pts = scaled_identities(1.0, 2.0)
    fam = upset_family(pts, leq=lambda x, y: loewner_leq(y, x))
    assert fam == {frozenset(), frozenset({0}), frozenset({0, 1})}


# ------------------------------------------------------------------ deciders


def example_pair():
    mu = from_atoms([(posdef_eye(2), 0.5), (posdef_eye(2, 3.0), 0.5)])
    nu = from_atoms([(posdef_eye(2, 2.0), 0.5), (posdef_eye(2, 4.0), 0.5)])
    return mu, nu


def test_example_dominance_both_deciders():
    mu, nu = example_pair()
    assert dominates_by_upper_sets(mu, nu)
    assert dominates_by_coupling(mu, nu)


def test_example_reverse_fails_with_upper_set_witness():
    mu, nu = example_pair()
    v = dominates_by_upper_sets(nu, mu)
    assert not v
    cert = v.certificate
    assert isinstance(cert, UpperSetCertificate)
    assert cert.mu_mass > cert.nu_mass + 1e-9
    # recompute both masses on the documented merged-support layout
    pts, first_mass, second_mass = merged_support(nu, mu)
    s = cert.upper_set.member_indices
    assert cert.mu_mass == pytest.approx(sum(first_mass[i] for i in s), abs=1e-12)
    assert cert.nu_mass == pytest.approx(sum(second_mass[i] for i in s), abs=1e-12)
    for i in s:
        for j in range(len(pts)):
            if leq(pts[i], pts[j]):
                assert j in s


def test_coupling_negative_certificate_is_violating_upper_set():
    mu, nu = example_pair()
    v = dominates_by_coupling(nu, mu)
    assert not v
    cert = v.certificate
    assert isinstance(cert, UpperSetCertificate)
    assert cert.mu_mass > cert.nu_mass + 1e-9
    pts, first_mass, second_mass = merged_support(nu, mu)
    s = cert.upper_set.member_indices
    assert cert.mu_mass == pytest.approx(sum(first_mass[i] for i in s), abs=1e-12)
    assert cert.nu_mass == pytest.approx(sum(second_mass[i] for i in s), abs=1e-12)
    for i in s:
        for j in range(len(pts)):
            if leq(pts[i], pts[j]):
                assert j in s


def test_coupling_positive_certificate_is_order_compatible():
    rng = make_rng(50)
    for _ in range(10):
        mu, nu = dominated_pair(rng, 2, 4)
        v = dominates_by_coupling(mu, nu)
        assert v
        plan = v.certificate
        assert isinstance(plan, Coupling)
        for i, j in plan.support:
            assert leq(mu.points[i], nu.points[j])


def test_dominance_is_reflexive():
    rng = make_rng(51)
    for _ in range(5):
        mu = rand_measure(rng, 2, 4)
        assert dominates_by_upper_sets(mu, mu)
        assert dominates_by_coupling(mu, mu)


def test_dominance_is_transitive_on_translation_chains():
    rng = make_rng(52)
    for _ in range(5):
        mu, nu = dominated_pair(rng, 2, 3)
        shift = sym(rand_psd_array(rng, 2))
        rho = push_forward(nu, lambda p: translate(p, shift))
        assert dominates_by_upper_sets(mu, rho)
        assert dominates_by_coupling(mu, rho)


def test_deciders_agree_on_random_instances():
    rng = make_rng(53)
    for k in range(200):
        d = int(rng.integers(2, 4))
        if k % 3 == 0:
            mu, nu = dominated_pair(rng, d, 4)
        elif k % 3 == 1:
            mu, nu = rand_measure(rng, d, 4), rand_measure(rng, d, 4)
        else:
            mu = rand_measure(rng, d, 3)
            nu = mu
        enum_v = dominates_by_upper_sets(mu, nu)
        flow_v = dominates_by_coupling(mu, nu)
        assert enum_v.holds == flow_v.holds


def test_enum_decider_matches_brute_oracle():
    rng = make_rng(54)
    for k in range(60):
        d = int(rng.integers(2, 4))
        if k % 2 == 0:
            mu, nu = dominated_pair(rng, d, 3)
        else:
            mu, nu = rand_measure(rng, d, 3), rand_measure(rng, d, 3)
        got = dominates_by_upper_sets(mu, nu, tol=1e-9)
        want = brute_stochastic_dominance(mu, nu, leq, tol=1e-9)
        assert got.holds == want


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_batched_default_order_matches_scalar_leq(seed, dominated):
    rng = make_rng(seed)
    d = int(rng.integers(2, 4))
    if dominated:
        mu, nu = dominated_pair(rng, d, 4)
    else:
        mu, nu = rand_measure(rng, d, 4), rand_measure(rng, d, 4)
    for decide in (dominates_by_coupling, dominates_by_upper_sets):
        batched = verdict_to_json_dict(decide(mu, nu))
        scalar = verdict_to_json_dict(decide(mu, nu, leq=leq))
        assert batched == scalar


def test_coupling_decider_edges_are_one_kernel_call(count_calls):
    rng = make_rng(56)
    mu, nu = dominated_pair(rng, 3, 5)
    eig = count_calls(cone, "_eig")
    assert dominates_by_coupling(mu, nu)
    assert len(eig) == 1
    # a negative verdict adds one call for the merged-support order table
    assert not dominates_by_coupling(nu, mu)
    assert len(eig) == 3


def test_decider_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dominates_by_upper_sets(dirac(posdef_eye(2)), dirac(posdef_eye(3)))
    with pytest.raises(DimensionMismatch):
        dominates_by_coupling(dirac(posdef_eye(2)), dirac(posdef_eye(3)))


def test_enum_decider_support_cap():
    mu = from_atoms([(posdef_eye(2, s), 1.0) for s in np.linspace(1.0, 2.0, 11)])
    nu = from_atoms([(posdef_eye(2, s), 1.0) for s in np.linspace(3.0, 4.0, 10)])
    with pytest.raises(SupportTooLarge):
        dominates_by_upper_sets(mu, nu)
    assert dominates_by_coupling(mu, nu)


def test_deciders_honor_custom_leq_dual_order():
    rng = make_rng(55)
    rev = lambda x, y: loewner_leq(y, x)
    for _ in range(15):
        mu, nu = dominated_pair(rng, 2, 3)
        assert dominates_by_upper_sets(nu, mu, leq=rev).holds
        assert dominates_by_coupling(nu, mu, leq=rev).holds
        assert dominates_by_upper_sets(nu, mu).holds == dominates_by_upper_sets(
            mu, nu, leq=rev).holds


def test_strict_tolerance_separates_distinct_diracs():
    v = dominates_by_upper_sets(dirac(posdef_eye(2, 2.0)), dirac(posdef_eye(2)), tol=0.0)
    assert not v
    assert v.certificate.mu_mass == pytest.approx(1.0)
    assert v.certificate.nu_mass == pytest.approx(0.0)


def test_verdict_json_shapes():
    mu, nu = example_pair()
    pos = verdict_to_json_dict(dominates_by_coupling(mu, nu))
    assert pos["holds"] is True
    assert pos["certificate"]["type"] == "coupling"
    assert len(pos["certificate"]["weights"]) == mu.size
    neg = verdict_to_json_dict(dominates_by_upper_sets(nu, mu))
    assert neg["holds"] is False
    assert neg["certificate"]["type"] == "upper_set"
    assert neg["certificate"]["member_indices"] == sorted(
        neg["certificate"]["member_indices"])
    plain = verdict_to_json_dict(dominates_by_upper_sets(mu, nu))
    assert plain == {"holds": True, "certificate": None}


# -------------------------------------------------------------------- probes


def test_probe_accepts_dominated_pairs():
    rng = make_rng(60)
    for k in range(20):
        mu, nu = dominated_pair(rng, 2, 4)
        assert probe_monotone_functionals(mu, nu, trials=200, seed=k)


def test_probe_falsifies_reversed_diracs():
    res = probe_monotone_functionals(dirac(posdef_eye(2, 2.0)), dirac(posdef_eye(2)),
                                     trials=50, seed=0)
    assert not res
    w = res.witness
    assert w["trial"] == 0
    assert w["integral_mu"] > w["integral_nu"]
    b = np.asarray(w["direction"])
    assert np.all(np.linalg.eigvalsh(b) >= -1e-12)


def test_probe_zero_trials_and_validation():
    mu, nu = example_pair()
    assert probe_monotone_functionals(mu, nu, trials=0, seed=0)
    with pytest.raises(ValueError):
        probe_monotone_functionals(mu, nu, trials=-1, seed=0)
    with pytest.raises(DimensionMismatch):
        probe_monotone_functionals(dirac(posdef_eye(2)), dirac(posdef_eye(3)),
                                   trials=1, seed=0)


def test_probe_is_deterministic_per_seed():
    mu = dirac(posdef_eye(2, 2.0))
    nu = dirac(posdef_eye(2))
    a = probe_monotone_functionals(mu, nu, trials=5, seed=3)
    b = probe_monotone_functionals(mu, nu, trials=5, seed=3)
    assert a.witness == b.witness
