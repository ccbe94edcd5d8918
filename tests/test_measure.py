import json
import math

import numpy as np
import pytest

from stochcone import (
    ATOM_MERGE_TOL,
    DimensionMismatch,
    FinMeasure,
    NotPositiveDefinite,
    PushForwardError,
    dirac,
    from_atoms,
    invert,
    make_rng,
    measure_from_json,
    measure_to_json,
    measures_allclose,
    posdef,
    posdef_eye,
    push_forward,
    sample,
)

from oracles import rand_measure, rand_pd


def two_point(w0=0.5):
    return from_atoms([(posdef_eye(2), w0), (posdef_eye(2, 3.0), 1.0 - w0)])


def test_dirac_shape():
    mu = dirac(posdef_eye(2))
    assert mu.size == 1
    assert mu.dim == 2
    assert float(mu.weights[0]) == 1.0


def test_from_atoms_normalizes():
    mu = from_atoms([(posdef_eye(2), 2.0), (posdef_eye(2, 3.0), 2.0)])
    assert np.allclose(mu.weights, [0.5, 0.5], atol=0)


def test_from_atoms_drops_zero_weights():
    mu = from_atoms([(posdef_eye(2), 0.7), (posdef_eye(2, 3.0), 0.0),
                     (posdef_eye(2, 2.0), 0.3)])
    assert mu.size == 2


def test_from_atoms_merges_close_atoms():
    a = posdef_eye(2)
    b = posdef(np.eye(2) + 1e-12)
    mu = from_atoms([(a, 0.25), (b, 0.25), (posdef_eye(2, 3.0), 0.5)])
    assert mu.size == 2
    assert float(mu.weights[0]) == pytest.approx(0.5, abs=1e-15)


def test_from_atoms_keeps_separated_atoms():
    a = posdef_eye(2)
    b = posdef(np.eye(2) + 1e-9 * np.diag([1.0, 1.0]))
    mu = from_atoms([(a, 0.5), (b, 0.5)])
    assert mu.size == 2


def test_from_atoms_rejects_negative_and_empty():
    with pytest.raises(ValueError):
        from_atoms([(posdef_eye(2), -0.5), (posdef_eye(2, 2.0), 1.5)])
    with pytest.raises(ValueError):
        from_atoms([(posdef_eye(2), 0.0)])
    with pytest.raises(ValueError):
        from_atoms([])


def test_finmeasure_invariants_enforced():
    pts = (posdef_eye(2), posdef_eye(2, 3.0))
    with pytest.raises(ValueError):
        FinMeasure(pts, np.array([0.6, 0.4 + 1e-9]))
    with pytest.raises(DimensionMismatch):
        FinMeasure(pts, np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        FinMeasure((posdef_eye(2), posdef_eye(3)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        FinMeasure((posdef_eye(2), posdef(np.eye(2) * (1.0 + 1e-12))),
                   np.array([0.5, 0.5]))


def test_weights_are_readonly():
    mu = two_point()
    with pytest.raises(ValueError):
        mu.weights[0] = 0.9


def test_push_forward_translation():
    mu = two_point()
    nu = push_forward(mu, lambda p: posdef(p.a + np.eye(2)))
    assert np.allclose(nu.points[0].a, 2.0 * np.eye(2), atol=0)
    assert np.allclose(nu.points[1].a, 4.0 * np.eye(2), atol=0)
    assert np.array_equal(nu.weights, mu.weights)


def test_push_forward_pools_merged_images():
    mu = two_point(0.3)
    nu = push_forward(mu, lambda p: posdef_eye(2, 5.0))
    assert nu.size == 1
    assert float(nu.weights[0]) == 1.0


def test_push_forward_error_carries_atom_index():
    mu = two_point()

    def bad(p):
        if p.a[0, 0] > 2.0:
            raise RuntimeError("boom")
        return p

    with pytest.raises(PushForwardError) as e:
        push_forward(mu, bad)
    assert e.value.index == 1
    assert "atom 1" in str(e.value)


def test_invert_is_an_involution():
    rng = make_rng(77)
    mu = rand_measure(rng, 2, 4)
    back = invert(invert(mu))
    assert measures_allclose(mu, back, atom_tol=1e-10, weight_tol=1e-12)


def test_invert_atomwise_value():
    mu = two_point()
    nu = invert(mu)
    assert np.allclose(nu.points[0].a, np.eye(2), atol=1e-14)
    assert np.allclose(nu.points[1].a, np.eye(2) / 3.0, atol=1e-14)


def test_sample_deterministic_and_distributed():
    mu = two_point(0.25)
    draws1 = sample(mu, 4000, 123)
    draws2 = sample(mu, 4000, 123)
    assert all(p is q for p, q in zip(draws1, draws2))
    frac = sum(1 for p in draws1 if p is mu.points[0]) / 4000.0
    assert abs(frac - 0.25) < 0.03
    assert sample(mu, 0, 1) == []
    with pytest.raises(ValueError):
        sample(mu, -1, 1)


def test_sample_accepts_generator():
    mu = two_point()
    gen = make_rng(9, stream=2)
    a = sample(mu, 10, gen)
    b = sample(mu, 10, make_rng(9, stream=2))
    assert all(p is q for p, q in zip(a, b))


def test_make_rng_streams_are_independent():
    a = make_rng(5, 0).random(8)
    b = make_rng(5, 1).random(8)
    c = make_rng(5, 0).random(8)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
    with pytest.raises(ValueError):
        make_rng(-1)


def test_json_roundtrip_is_exact():
    rng = make_rng(31)
    mu = rand_measure(rng, 3, 4)
    back = measure_from_json(measure_to_json(mu))
    assert back.size == mu.size
    for p, q in zip(mu.points, back.points):
        assert np.array_equal(p.a, q.a)
    assert np.array_equal(mu.weights, back.weights)


def test_json_document_shape():
    doc = json.loads(measure_to_json(two_point()))
    assert doc["dim"] == 2
    assert len(doc["atoms"]) == 2
    assert doc["atoms"][0]["matrix"] == [1.0, 0.0, 0.0, 1.0]


def test_json_parse_errors():
    with pytest.raises(ValueError):
        measure_from_json({"atoms": []})
    with pytest.raises(ValueError):
        measure_from_json({"dim": 2, "atoms": [{"weight": 1.0, "matrix": [1.0, 0.0]}]})
    with pytest.raises(NotPositiveDefinite):
        measure_from_json(
            {"dim": 2, "atoms": [{"weight": 1.0, "matrix": [1.0, 0.0, 0.0, -1.0]}]}
        )


def test_measures_allclose_handles_permutation():
    mu = two_point(0.3)
    nu = from_atoms([(posdef_eye(2, 3.0), 0.7), (posdef_eye(2), 0.3)])
    assert measures_allclose(mu, nu)
    assert not measures_allclose(mu, two_point(0.31))
    assert not measures_allclose(mu, dirac(posdef_eye(2)))


def test_atoms_property_pairs_points_with_weights():
    mu = two_point(0.3)
    atoms = mu.atoms
    assert atoms[0][1] == pytest.approx(0.3)
    assert atoms[0][0] is mu.points[0]
