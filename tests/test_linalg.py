import numpy as np
import pytest

from ptbound import hofd, linalg, reference
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
    # the largest residual, relative to max(|a|, 1) as the contract scales it
    scale = max(np.abs(a).sum(axis=1).max(), 1.0)
    assert resid == np.abs(a @ v - v * w).max() / scale


def test_eig_symmetric_rejects_nonsymmetric():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NonSymmetricError):
        linalg.eig_symmetric(a)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("at", [(3, 3), (2, 5)], ids=["diagonal", "off"])
@pytest.mark.parametrize("solve", [
    lambda a: linalg.eig_symmetric(a, 2),
    lambda a: linalg.eig_shift_invert(a, -1.0, 2)], ids=["symmetric", "shift"])
def test_eigensolvers_reject_nonfinite_entry(solve, at, bad):
    # one failure for one non-finite entry, whichever solver meets it; eigh
    # once returned nan eigenvalues that the `below` filter then dropped
    a = np.diag(np.arange(1.0, 9.0))
    a[at] = bad
    with pytest.raises(SolverError, match="not finite"):
        solve(a)


@pytest.mark.parametrize("solve, patched", [
    (lambda a: linalg.eig_symmetric(a, 2), "eigh"),
    (lambda a: linalg.eig_shift_invert(a, -1.0, 2), "eig")],
    ids=["symmetric", "shift"])
def test_nan_residual_fails_contract(monkeypatch, solve, patched):
    # a nan eigenvector gives a nan residual, which no comparison with the
    # tolerance may let through
    original = getattr(np.linalg, patched)

    def nan_vectors(a):
        w, v = original(a)
        return w, v * np.nan
    monkeypatch.setattr(np.linalg, patched, nan_vectors)
    with pytest.raises(SolverError, match="residual nan"):
        solve(np.diag(np.arange(1.0, 9.0)))


def test_eig_shift_invert_maps_lapack_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(SolverError, match="did not converge"):
        linalg.eig_shift_invert(np.diag(np.arange(1.0, 9.0)), -1.0, 2)


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


def _banded(n, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    i = np.arange(n)
    a[np.abs(i[:, None] - i[None, :]) > p] = 0.0
    return a


@pytest.mark.parametrize("n,p", [(203, 5), (150, 0), (40, 39), (300, 70),
                                 (2 * linalg.BLOCK, 1)])
def test_shifted_solver_matches_dense_solve(n, p):
    # several blocks with a remainder, a diagonal, a dense single block and
    # a band wider than BLOCK
    a = _banded(n, p, n + p)
    sigma = -2.0 * linalg.matrix_norm(a)  # keeps a - sigma I well conditioned
    b = np.random.default_rng(1).normal(size=n)
    got = linalg.shifted_solver(a, sigma)(b)
    want = np.linalg.solve(a - sigma * np.eye(n), b)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_half_bandwidth():
    assert linalg.half_bandwidth(np.zeros((4, 4))) == 0
    assert linalg.half_bandwidth(np.eye(4)) == 0
    assert linalg.half_bandwidth(_banded(30, 4, 0)) == 4
    a = np.zeros((6, 6))
    a[5, 0] = 1.0  # one corner entry sets the band
    assert linalg.half_bandwidth(a) == 5


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_half_bandwidth_of_hofd_operator(k):
    # the one-sided wall stencils over 2k + 1 points reach 2k - 1 columns
    # past the diagonal once the Dirichlet end column is cut
    op, _ = hofd.hyperbolic_operator(reference.HYPERBOLIC_SETS["S1"],
                                     hofd.HofdConfig(M=60, k=k), 1)
    assert linalg.half_bandwidth(op) == 2 * k - 1


def test_eig_shift_invert_tridiagonal_toeplitz():
    # nonsymmetric Toeplitz tridiagonal over several blocks; its eigenvalues
    # are 3 + 2 sqrt(0.95 * 1.05) cos(j pi / (n + 1)), j = 1..n
    n = 200
    a = 3.0 * np.eye(n) + 0.95 * np.eye(n, k=-1) + 1.05 * np.eye(n, k=1)
    exact = np.sort(3.0 + 2.0 * np.sqrt(0.95 * 1.05)
                    * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    got, resid = linalg.eig_shift_invert(a, 0.0, 6)
    assert n > 2 * linalg.BLOCK
    assert np.abs(got - exact[:6]).max() <= 1e-11
    assert resid <= linalg.RESIDUAL_RTOL


def _hofd_cases(M):
    cfg = hofd.HofdConfig(M=M)
    for j in (1, 2, 3):
        op, v = hofd.hyperbolic_operator(reference.HYPERBOLIC_SETS["S1"], cfg, j)
        yield op, float(v.min()) - 1.0, j
    op, v = hofd.box_operator(reference.TRIG_SETS["S3"], cfg)
    yield op, float(v.min()) - 1.0, 10


def test_eig_shift_invert_blocks_match_single_block(monkeypatch):
    cases = list(_hofd_cases(500))
    blocked = [linalg.eig_shift_invert(*case)[0] for case in cases]
    monkeypatch.setattr(linalg, "BLOCK", 500)  # one block: the dense inverse
    for case, got in zip(cases, blocked):
        dense, _ = linalg.eig_shift_invert(*case)
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("sigma", [5.0, 150.0])
def test_eig_shift_invert_singular_shift(sigma):
    # sigma is a diagonal entry of a diagonal matrix, in the first block and
    # in the last one, so that block of a - sigma I is exactly singular
    a = np.diag(np.arange(200.0))
    with pytest.raises(SolverError):
        linalg.eig_shift_invert(a, sigma, 1)
