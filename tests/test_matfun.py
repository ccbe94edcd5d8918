import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochcone import (
    DimensionMismatch,
    EigenConvergenceError,
    SpectralDomainError,
    SymMatrix,
    congruence,
    eigh,
    eye,
    frobenius,
    matrix_fn,
    sym,
)

from oracles import jacobi_eigvals, rand_pd_array, rand_sym


def test_symmetrize_averages_off_diagonal():
    m = SymMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(m.entries, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_symmatrix_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        sym(np.zeros((2, 3)))


def test_symmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        sym([[1.0, np.nan], [np.nan, 1.0]])


def test_symmatrix_array_is_readonly():
    m = eye(2)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_eigh_two_by_two_hand_value():
    # char poly of [[2,1],[1,2]] is l^2 - 4l + 3 = (l-1)(l-3)
    dec = eigh(sym([[2.0, 1.0], [1.0, 2.0]]))
    assert dec.eigenvalues == pytest.approx((1.0, 3.0), abs=1e-12)
    v = dec.eigenvectors[:, 0]
    assert abs(abs(v[0]) - math.sqrt(0.5)) < 1e-12
    assert abs(v[0] + v[1]) < 1e-12


def test_eigh_identity():
    dec = eigh(eye(3))
    assert np.array_equal(dec.eigenvalues, np.ones(3))
    assert np.array_equal(dec.eigenvectors, np.eye(3))


def test_eigh_one_by_one():
    dec = eigh(sym([[7.0]]))
    assert np.array_equal(dec.eigenvalues, np.array([7.0]))


def test_eigh_sorted_ascending():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        dec = eigh(sym(rand_sym(rng, d, 3.0)))
        w = list(dec.eigenvalues)
        assert w == sorted(w)


def test_eigh_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        a = rand_sym(rng, d, float(rng.uniform(0.1, 10.0)))
        dec = eigh(sym(a))
        ref = jacobi_eigvals(a)
        scale = 1.0 + float(np.abs(a).sum())
        assert float(np.max(np.abs(dec.eigenvalues - ref))) <= 1e-12 * scale


def test_eigh_reconstruction_and_orthogonality():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        a = rand_sym(rng, d, 2.0)
        dec = eigh(sym(a))
        q = dec.eigenvectors
        recon = (q * dec.eigenvalues) @ q.T
        assert frobenius(recon - a) <= 1e-10 * (1.0 + frobenius(a))
        assert float(np.max(np.abs(q.T @ q - np.eye(d)))) <= 1e-10
        # sign convention: each column's largest-magnitude component is positive
        assert (q[np.abs(q).argmax(axis=0), np.arange(d)] > 0.0).all()


def test_lapack_failure_is_an_eigen_convergence_error(monkeypatch):
    def fail(*_args, **_kw):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError):
        eigh(eye(2))
    with pytest.raises(EigenConvergenceError):
        matrix_fn(eye(2), "sqrt")


def test_eigh_deterministic_bitwise():
    rng = np.random.default_rng(31)
    a = sym(rand_sym(rng, 5, 1.0))
    d1 = eigh(a)
    d2 = eigh(a)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_matrix_fn_sqrt_diagonal():
    r = matrix_fn(sym([[4.0, 0.0], [0.0, 9.0]]), "sqrt")
    assert np.allclose(r.entries, np.diag([2.0, 3.0]), atol=1e-12)


def test_matrix_fn_pow_special_cases():
    rng = np.random.default_rng(7)
    a = sym(np.diag([1.0, 4.0]) + rand_sym(rng, 2, 0.1))
    assert np.allclose(matrix_fn(a, "pow", t=1.0).entries, a.entries, atol=1e-12)
    assert np.allclose(matrix_fn(a, "pow", t=0.0).entries, np.eye(2), atol=1e-12)
    half = matrix_fn(a, "pow", t=0.5)
    assert np.allclose(half.entries, matrix_fn(a, "sqrt").entries, atol=1e-12)
    assert np.allclose(half.entries @ half.entries, a.entries, atol=1e-10)


def test_matrix_fn_inv():
    rng = np.random.default_rng(9)
    a = rand_pd_array(rng, 3)
    inv = matrix_fn(sym(a), "inv")
    assert np.allclose(inv.entries @ a, np.eye(3), atol=1e-10)


def test_matrix_fn_inv_sqrt():
    rng = np.random.default_rng(13)
    a = rand_pd_array(rng, 3)
    r = matrix_fn(sym(a), "inv_sqrt")
    assert np.allclose(r.entries @ a @ r.entries, np.eye(3), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_exp_log_roundtrip(seed, d):
    rng = np.random.default_rng(seed)
    a = rand_pd_array(rng, d)
    back = matrix_fn(matrix_fn(sym(a), "log"), "exp")
    assert frobenius(back.entries - a) <= 1e-11 * (1.0 + frobenius(a))


def test_matrix_fn_domain_error_carries_min_eigenvalue():
    with pytest.raises(SpectralDomainError) as e:
        matrix_fn(sym([[1.0, 0.0], [0.0, -2.0]]), "log")
    assert e.value.min_eigenvalue == pytest.approx(-2.0, abs=1e-12)
    assert "log" in str(e.value)


def test_matrix_fn_sqrt_rejects_singular():
    with pytest.raises(SpectralDomainError):
        matrix_fn(sym([[1.0, 0.0], [0.0, 0.0]]), "sqrt")


def test_matrix_fn_exp_accepts_indefinite():
    r = matrix_fn(sym([[0.0, 1.0], [1.0, 0.0]]), "exp")
    # eigenpairs are +-1 on (1,1)/sqrt2 and (1,-1)/sqrt2
    c, s = math.cosh(1.0), math.sinh(1.0)
    assert np.allclose(r.entries, [[c, s], [s, c]], atol=1e-12)


def test_matrix_fn_unknown_name():
    with pytest.raises(ValueError):
        matrix_fn(eye(2), "cube")


def test_matrix_fn_pow_requires_exponent():
    with pytest.raises(ValueError):
        matrix_fn(eye(2), "pow")


def test_congruence_hand_value():
    a = sym(np.diag([1.0, 4.0]))
    b = sym(np.diag([1.0, 0.5]))
    assert np.allclose(congruence(a, b).entries, np.eye(2), atol=1e-14)


def test_congruence_identity_is_noop():
    rng = np.random.default_rng(3)
    a = sym(rand_sym(rng, 3, 1.0))
    assert np.array_equal(congruence(a, eye(3)).entries, a.entries)


def test_congruence_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        congruence(eye(2), eye(3))


def test_frobenius_hand_value():
    assert frobenius(sym([[3.0, 0.0], [0.0, 4.0]])) == 5.0
    assert frobenius(np.array([[3.0, 4.0]])) == 5.0
