import numpy as np
import pytest

from ptbound import linalg
from ptbound.errors import NonSymmetricError, SolverError


def test_eig_symmetric_identity():
    w, v, _ = linalg.eig_symmetric(np.eye(5))
    assert np.allclose(w, 1.0)


def test_eig_symmetric_diagonal_sorted():
    w, _, _ = linalg.eig_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eig_symmetric_trace_and_det():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(50, 50))
    a = (a + a.T) / 2.0
    w, v, resid = linalg.eig_symmetric(a)
    assert abs(w.sum() - np.trace(a)) <= 1e-10 * max(abs(np.trace(a)), 1.0)
    det = np.linalg.det(a)
    assert abs(np.prod(w) - det) <= 1e-8 * max(abs(det), 1.0)
    # orthonormality contract
    assert np.abs(v.T @ v - np.eye(50)).max() <= 1e-10
    # one residual per pair, as the contract measures it
    assert np.array_equal(resid, np.abs(a @ v - v * w).max(axis=0))


def test_eig_symmetric_rejects_nonsymmetric():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NonSymmetricError):
        linalg.eig_symmetric(a)


def test_eig_general_companion():
    # companion of s^3 - 6 s^2 + 11 s - 6 = (s-1)(s-2)(s-3)
    a = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w, _ = linalg.eig_general(a)
    assert np.allclose(sorted(w.real), [1.0, 2.0, 3.0])
    assert np.abs(w.imag).max() <= 1e-12


def test_eig_general_rotation():
    w, _ = linalg.eig_general(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(w, key=lambda z: z.imag), [-1j, 1j])


def test_eig_general_triangular():
    rng = np.random.default_rng(1)
    a = np.triu(rng.normal(size=(20, 20)))
    w, _ = linalg.eig_general(a)
    assert np.allclose(sorted(w.real), sorted(np.diag(a)))


def test_eig_general_matches_symmetric():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(15, 15))
    a = (a + a.T) / 2.0
    ws, _, _ = linalg.eig_symmetric(a)
    wg, _ = linalg.eig_general(a)
    assert np.abs(np.sort(wg.real) - ws).max() <= 1e-8


def test_matrix_norm():
    a = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert linalg.matrix_norm(a) == 7.0


def _similar_to_diagonal(values, seed):
    rng = np.random.default_rng(seed)
    s = np.eye(len(values)) + 0.3 * rng.normal(size=(len(values), len(values)))
    return s @ np.diag(values) @ np.linalg.inv(s)


def test_eig_shift_invert_nonsymmetric():
    values = np.linspace(1.0, 50.0, 60)
    a = _similar_to_diagonal(values, 3)
    got, resid = linalg.eig_shift_invert(a, 0.0, 5)
    assert np.abs(got - values[:5]).max() <= 1e-10
    assert 0.0 <= resid <= linalg.RESIDUAL_RTOL


def test_eig_shift_invert_skips_complex_pairs():
    # a rotation block puts 0.5 +- 2i nearest the shift; it is not near-real
    a = np.zeros((30, 30))
    a[:2, :2] = [[0.5, -2.0], [2.0, 0.5]]
    a[2:, 2:] = np.diag(np.arange(3.0, 31.0))
    got, _ = linalg.eig_shift_invert(a, 0.0, 3)
    assert np.allclose(got, [3.0, 4.0, 5.0], rtol=0.0, atol=1e-12)


def test_eig_shift_invert_repeated_eigenvalues():
    # one start vector sees one direction per distinct eigenvalue, so the
    # basis becomes invariant early and the solver must restart
    a = np.diag([1.0, 1.0, 1.0, 2.0, 5.0])
    got, _ = linalg.eig_shift_invert(a, 0.0, 4)
    assert np.allclose(got, [1.0, 1.0, 1.0, 2.0], rtol=0.0, atol=1e-12)


def test_eig_shift_invert_too_few_real():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(SolverError):
        linalg.eig_shift_invert(a, -2.0, 1)


def test_eig_shift_invert_residual_contract(monkeypatch):
    a = _similar_to_diagonal(np.arange(1.0, 41.0), 4)
    monkeypatch.setattr(linalg, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(SolverError):
        linalg.eig_shift_invert(a, 0.0, 2)


def test_eig_shift_invert_count_zero():
    got, resid = linalg.eig_shift_invert(np.eye(3), 0.0, 0)
    assert got.shape == (0,) and resid == 0.0
