"""The projection-sorted atom index against the former all-pairs scans.

Near-duplicate clouds put atoms at Frobenius offsets 0, tol*(1 -+ 1e-12) and
2*tol from earlier atoms, so merges chain, tie and straddle the tolerance.
Every consumer of the index must agree with its quadratic oracle exactly:
same kept atoms in the same order, same weights and masses, same error or
verdict.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochcone.matfun as matfun
import stochcone.measure as measure
from stochcone import ATOM_MERGE_TOL, FinMeasure, from_atoms, measures_allclose, posdef
from stochcone.order import _merged_support

from oracles import (
    greedy_allclose,
    quadratic_coinciding_pair,
    quadratic_merge,
    quadratic_merged_support,
    rand_pd_array,
    rand_sym,
)

OFFSETS = (0.0, 1.0 - 1e-12, 1.0 + 1e-12, 2.0)
WEIGHTS = (0.0, 1e-3, 0.5, 1.0, 2.5)


def near_copy(rng, arr, offset, tol):
    """arr moved by offset * tol along a random unit symmetric direction."""
    return arr + offset * tol * rand_sym(rng, arr.shape[0], 1.0)


@st.composite
def clouds(draw):
    """Atoms of dimension 1..4 at scale 1e-3..1e3; each copy sits at one of
    OFFSETS (in units of ATOM_MERGE_TOL) from an earlier atom, then the
    whole list is shuffled."""
    d = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrs = [rand_pd_array(rng, d) * scale for _ in range(draw(st.integers(1, 4)))]
    copies = draw(st.lists(st.tuples(st.integers(0, 1000), st.sampled_from(OFFSETS)),
                           max_size=12))
    for src, offset in copies:
        arrs.append(near_copy(rng, arrs[src % len(arrs)], offset, ATOM_MERGE_TOL))
    order = draw(st.permutations(range(len(arrs))))
    return [posdef(arrs[k]) for k in order]


def same_points(got, want):
    return [id(p) for p in got] == [id(p) for p in want]


@settings(max_examples=150, deadline=None)
@given(clouds(), st.data())
def test_from_atoms_matches_quadratic_merge(points, data):
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(points),
                                 max_size=len(points)))
    pairs = list(zip(points, weights))
    try:
        want_points, want_weights = quadratic_merge(pairs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            from_atoms(pairs)
        return
    got = from_atoms(pairs)
    assert same_points(got.points, want_points)
    assert np.array_equal(got.weights, want_weights)
    assert np.array_equal(got.arrays, np.array([p.a for p in want_points]))


@settings(max_examples=150, deadline=None)
@given(clouds())
def test_finmeasure_validation_matches_quadratic_scan(points):
    weights = np.full(len(points), 1.0 / len(points))
    pair = quadratic_coinciding_pair(points)
    if pair is None:
        assert FinMeasure(tuple(points), weights).size == len(points)
    else:
        with pytest.raises(ValueError, match=f"^atoms {pair[0]} and {pair[1]} coincide "):
            FinMeasure(tuple(points), weights)


@settings(max_examples=150, deadline=None)
@given(clouds(), st.data())
def test_merged_support_matches_quadratic_scan(points, data):
    cut = data.draw(st.integers(0, len(points) - 1))
    mu = from_atoms([(p, 1.0 + k) for k, p in enumerate(points[:cut + 1])])
    nu = from_atoms([(p, 2.0 + k) for k, p in enumerate(points[cut:])])
    got = _merged_support(mu, nu)
    want = quadratic_merged_support(mu, nu)
    assert same_points(got[0], want[0])
    assert got[1:] == want[1:]


@settings(max_examples=150, deadline=None)
@given(clouds(), st.sampled_from((0.0, 1e-10, 1e-9, 1e-6)), st.data())
def test_measures_allclose_matches_greedy_matching(points, atom_tol, data):
    mu = from_atoms([(p, 1.0) for p in points])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    moved = []
    for p, w in mu.atoms:
        offset = data.draw(st.sampled_from(OFFSETS))
        shift = data.draw(st.sampled_from((0.0, 2e-9)))
        moved.append((posdef(near_copy(rng, p.a, offset, atom_tol)), w + shift))
    order = data.draw(st.permutations(range(len(moved))))
    nu = from_atoms([moved[k] for k in order])
    assert measures_allclose(mu, nu, atom_tol) == greedy_allclose(mu, nu, atom_tol)
    assert measures_allclose(nu, mu, atom_tol) == greedy_allclose(nu, mu, atom_tol)


def test_exact_duplicate_clusters_stay_linear(count_calls):
    # 3000 copies of three atoms: a per-pair scan would measure ~3e6 pairs,
    # the index measures pairs of the three representatives only
    rng = np.random.default_rng(3)
    base = [posdef(rand_pd_array(rng, 2)) for _ in range(3)]
    pairs = [(base[k % 3], 1.0) for k in range(3000)]
    near = count_calls(measure, "_near_pairs")
    mu = from_atoms(pairs)
    assert same_points(mu.points, base)
    assert np.array_equal(mu.weights, quadratic_merge(pairs)[1])
    assert len(near) == 1
    with pytest.raises(ValueError, match="^atoms 0 and 3 coincide "):
        FinMeasure(tuple(p for p, _ in pairs), np.full(3000, 1.0 / 3000))


def test_from_atoms_on_separated_atoms_makes_no_pair_scan(count_calls):
    rng = np.random.default_rng(4)
    pairs = [(posdef(rand_pd_array(rng, 3)), 1.0) for _ in range(2000)]
    frob = count_calls(matfun, "frobenius")
    near = count_calls(measure, "_near_pairs")
    mu = from_atoms(pairs)
    assert mu.size == 2000
    assert len(frob) == 0
    # one index query; the measure it builds is separated by construction
    assert len(near) == 1
