import numpy as np
import pytest
from conftest import band, count_shifted_solves, dense, eig_general

from ptbound import hofd, linalg, reference
from ptbound.errors import SolverError


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
    with pytest.raises(SolverError, match="not symmetric"):
        linalg.eig_symmetric(a)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("at", [(3, 3), (2, 5)], ids=["diagonal", "off"])
@pytest.mark.parametrize("solve", [
    lambda a: linalg.eig_symmetric(a, 2),
    lambda a: linalg.eig_shift_invert(band(a, 3), -1.0, 2)],
    ids=["symmetric", "shift"])
def test_eigensolvers_reject_nonfinite_entry(solve, at, bad):
    # one failure for one non-finite entry, whichever solver meets it; eigh
    # once returned nan eigenvalues that the `below` filter then dropped
    a = np.diag(np.arange(1.0, 9.0))
    a[at] = bad
    with pytest.raises(SolverError, match="not finite"):
        solve(a)


@pytest.mark.parametrize("solve, patched", [
    (lambda a: linalg.eig_symmetric(a, 2), "eigh"),
    (lambda a: linalg.eig_shift_invert(band(a, 0), -1.0, 2), "eig")],
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
        linalg.eig_shift_invert(band(np.diag(np.arange(1.0, 9.0)), 0), -1.0, 2)


def test_eig_general_companion():
    # companion of s^3 - 6 s^2 + 11 s - 6 = (s-1)(s-2)(s-3)
    a = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w, _ = eig_general(a)
    assert np.allclose(sorted(w.real), [1.0, 2.0, 3.0])
    assert np.abs(w.imag).max() <= 1e-12


def test_eig_general_rotation():
    w, _ = eig_general(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(w, key=lambda z: z.imag), [-1j, 1j])


def test_eig_general_triangular():
    rng = np.random.default_rng(1)
    a = np.triu(rng.normal(size=(20, 20)))
    w, _ = eig_general(a)
    assert np.allclose(sorted(w.real), sorted(np.diag(a)))


def test_eig_general_matches_symmetric():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(15, 15))
    a = (a + a.T) / 2.0
    ws, _, _ = linalg.eig_symmetric(a)
    wg, _ = eig_general(a)
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
    got, resid = linalg.eig_shift_invert(band(a, 59), 0.0, 5)
    assert np.abs(got - values[:5]).max() <= 1e-10
    assert 0.0 <= resid <= linalg.RESIDUAL_RTOL


def test_eig_shift_invert_skips_complex_pairs():
    # a rotation block puts 0.5 +- 2i nearest the shift; it is not near-real
    a = np.zeros((30, 30))
    a[:2, :2] = [[0.5, -2.0], [2.0, 0.5]]
    a[2:, 2:] = np.diag(np.arange(3.0, 31.0))
    got, _ = linalg.eig_shift_invert(band(a, 1), 0.0, 3)
    assert np.allclose(got, [3.0, 4.0, 5.0], rtol=0.0, atol=1e-12)


def test_eig_shift_invert_repeated_eigenvalues():
    # one start vector sees one direction per distinct eigenvalue, so the
    # basis becomes invariant early and the solver must restart
    a = np.diag([1.0, 1.0, 1.0, 2.0, 5.0])
    got, _ = linalg.eig_shift_invert(band(a, 0), 0.0, 4)
    assert np.allclose(got, [1.0, 1.0, 1.0, 2.0], rtol=0.0, atol=1e-12)


def test_eig_shift_invert_repeated_eigenvalues_distinct_pairs(monkeypatch):
    # equal Ritz values were once all matched to one pair, so the residual
    # contract saw one eigenvector for the three of them
    seen = []
    contract = linalg._residual

    def recorded(ax, x, lam, norm):
        seen.append(x)
        return contract(ax, x, lam, norm)
    monkeypatch.setattr(linalg, "_residual", recorded)
    a = np.diag([1.0, 1.0, 1.0, 2.0, 5.0, 7.0, 8.0])
    got, _ = linalg.eig_shift_invert(band(a, 0), 0.0, 4)
    assert np.allclose(got, [1.0, 1.0, 1.0, 2.0], rtol=0.0, atol=1e-12)
    [x] = seen
    # the three pairs at 1 span its eigenspace, the first three unit axes
    assert np.linalg.svd(x[:3, :3], compute_uv=False).min() > 0.5


def test_eig_shift_invert_restart_is_not_convergence(monkeypatch):
    # with 3 vectors a step, the step ending at m = 6 ends on a restart:
    # beta_m = 0 makes every residual estimate 0, though the Ritz values
    # 1, 1, 2, 5, 7, 8 of the invariant subspace seen so far lack a third 1
    monkeypatch.setattr(linalg, "KRYLOV_STEP", 3)
    a = np.diag([1.0, 1.0, 1.0, 2.0, 5.0, 7.0, 8.0])
    got, _ = linalg.eig_shift_invert(band(a, 0), 0.0, 3)
    assert np.allclose(got, [1.0, 1.0, 1.0], rtol=0.0, atol=1e-12)


def test_eig_shift_invert_too_few_real():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(SolverError):
        linalg.eig_shift_invert(band(a, 1), -2.0, 1)


def test_eig_shift_invert_residual_contract(monkeypatch):
    a = _similar_to_diagonal(np.arange(1.0, 41.0), 4)
    monkeypatch.setattr(linalg, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(SolverError):
        linalg.eig_shift_invert(band(a, 39), 0.0, 2)


def test_eig_shift_invert_finds_level_left_of_shift(monkeypatch):
    # -1e4 lies far left of the shift, so its Ritz value appears only after
    # 2 and 3 have converged: without the levels below, the first step
    # fills slot 1 with 2; given them, the solve waits a step more for -1e4
    # in slot 1, then returns and certifies only the levels above `found`
    solves = count_shifted_solves(monkeypatch)
    certified = []
    contract = linalg._residual

    def recorded(ax, x, lam, norm):
        certified.append(x.shape[1])
        return contract(ax, x, lam, norm)
    monkeypatch.setattr(linalg, "_residual", recorded)
    a = np.diag(np.concatenate([[-1e4], np.arange(2.0, 201.0)]))
    wrong, _ = linalg.eig_shift_invert(band(a, 0), 1.5, 2)
    assert np.allclose(wrong, [2.0, 3.0], rtol=0.0, atol=1e-12)
    for found in ([-1.001e4], [-1.001e4, 2.01]):
        count = len(found) + 1
        got, resid = linalg.eig_shift_invert(band(a, 0), 1.5, count, found)
        assert got.shape == (1,) and abs(got[0] - count) <= 1e-12
        assert resid <= linalg.RESIDUAL_RTOL
    assert solves == [linalg.KRYLOV_STEP] + [2 * linalg.KRYLOV_STEP] * 2
    assert certified == [2, 1, 1]


@pytest.mark.parametrize("count, found", [(2, [1.0, 2.0]), (1, [1.0]),
                                          (0, [1.0])])
def test_eig_shift_invert_rejects_found_without_slot(count, found):
    with pytest.raises(ValueError, match="no slot"):
        linalg.eig_shift_invert(band(np.diag(np.arange(1.0, 9.0)), 0), 0.0,
                                count, found)


def test_eig_shift_invert_count_zero():
    got, resid = linalg.eig_shift_invert(band(np.eye(3), 0), 0.0, 0)
    assert got.shape == (0,) and resid == 0.0


def _banded(n, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    i = np.arange(n)
    a[np.abs(i[:, None] - i[None, :]) > p] = 0.0
    return a


def _period(p, c):
    """The order n at which the solver first cuts c interiors of a band of
    half-width p: n + p = c (max(BLOCK, p) + p)."""
    return c * (max(linalg.BLOCK, p) + p) - p


@pytest.mark.parametrize("n,p", [
    (203, 5), (150, 0), (40, 39), (300, 70), (2 * linalg.BLOCK, 1),
    (_period(7, 2) - 1, 7), (_period(7, 2), 7), (_period(7, 2) + 1, 7),
    (_period(7, 7) - 1, 7), (_period(7, 7), 7), (_period(7, 7) + 1, 7),
    (_period(linalg.BLOCK, 3) - 1, linalg.BLOCK),
    (_period(linalg.BLOCK, 3), linalg.BLOCK),
    (_period(linalg.BLOCK + 1, 3) + 1, linalg.BLOCK + 1), (5, 7)])
def test_shifted_solver_matches_dense_solve(n, p):
    # padded interiors and separators, a diagonal, a dense single interior,
    # one interior below a period and two at and just above it, the seven
    # interiors of the default HOFD grid, bands as wide as BLOCK and wider,
    # and a band wider than the matrix
    a = _banded(n, p, n + p)
    sigma = -2.0 * linalg.matrix_norm(a)  # keeps a - sigma I well conditioned
    b = np.random.default_rng(1).normal(size=n)
    got = linalg.shifted_solver(band(a, p), sigma)(b)
    want = np.linalg.solve(a - sigma * np.eye(n), b)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("k", [1, 4, 8])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_shifted_solver_hofd_operator(k, shift):
    # the operators HOFD factors, at its shift, on either side of the order
    # where a third interior appears; the wide-stencil finite well's own
    # conditioning (1e8) allows 6.5e-14, against a 2e-13 bound
    M = _period(2 * k - 1, 3) + shift
    for op, v in (hofd.hyperbolic_operator(reference.HYPERBOLIC_SETS["S1"], M, k, 1),
                  hofd.box_operator(reference.TRIG_SETS["S3"], M, k)):
        sigma = float(v.min()) - 1.0
        b = np.random.default_rng(M).normal(size=M)
        got = linalg.shifted_solver(op, sigma)(b)
        want = np.linalg.solve(dense(op) - sigma * np.eye(M), b)
        assert np.abs(got - want).max() <= 2e-13 * np.abs(want).max()


@pytest.mark.parametrize("p", [0, 1, 7, linalg.BLOCK])
def test_shifted_solver_singular_piece(p):
    # a shift at any diagonal entry of a diagonal matrix leaves one piece
    # exactly singular, an interior or (p > 0) a separator; each must be a
    # SolverError, never numpy's LinAlgError
    a = band(np.diag(np.arange(200.0)), p)
    pieces = set()
    for sigma in range(200):
        with pytest.raises(SolverError, match="singular") as err:
            linalg.shifted_solver(a, float(sigma))
        pieces.add("interior" in str(err.value))
    assert pieces == ({True} if p == 0 else {True, False})


@pytest.mark.parametrize("k", range(1, 9))
def test_half_bandwidth_of_hofd_operator(k):
    # the one-sided wall stencils over 2k + 1 points reach p = 2k - 1
    # columns past the diagonal once the Dirichlet end column is cut; the
    # band is exactly that wide, which keeps the block factorization bitwise
    for op in (hofd.hyperbolic_operator(reference.HYPERBOLIC_SETS["S1"], 60, k, 1)[0],
               hofd.box_operator(reference.TRIG_SETS["S3"], 60, k)[0]):
        assert op.shape == (60, 2 * (2 * k - 1) + 1)
        assert np.any(op[:, 0] != 0.0) and np.any(op[:, -1] != 0.0)


@pytest.mark.parametrize("bad", [np.ones(5), np.ones((5, 4))],
                         ids=["1-D", "even width"])
def test_eig_shift_invert_rejects_malformed_band(bad):
    with pytest.raises(ValueError, match="odd width"):
        linalg.eig_shift_invert(bad, -1.0, 1)


def test_eig_shift_invert_tridiagonal_toeplitz():
    # nonsymmetric Toeplitz tridiagonal over several blocks; its eigenvalues
    # are 3 + 2 sqrt(0.95 * 1.05) cos(j pi / (n + 1)), j = 1..n
    n = 200
    a = 3.0 * np.eye(n) + 0.95 * np.eye(n, k=-1) + 1.05 * np.eye(n, k=1)
    exact = np.sort(3.0 + 2.0 * np.sqrt(0.95 * 1.05)
                    * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    got, resid = linalg.eig_shift_invert(band(a, 1), 0.0, 6)
    assert n > 2 * linalg.BLOCK
    assert np.abs(got - exact[:6]).max() <= 1e-11
    assert resid <= linalg.RESIDUAL_RTOL


def _hofd_cases(M):
    k = hofd.DEFAULT_K
    for j in (1, 2, 3):
        op, v = hofd.hyperbolic_operator(reference.HYPERBOLIC_SETS["S1"], M, k, j)
        yield op, float(v.min()) - 1.0, j
    op, v = hofd.box_operator(reference.TRIG_SETS["S3"], M, k)
    yield op, float(v.min()) - 1.0, 10


def test_eig_shift_invert_blocks_match_single_block(monkeypatch):
    cases = list(_hofd_cases(500))
    blocked = [linalg.eig_shift_invert(*case)[0] for case in cases]
    monkeypatch.setattr(linalg, "BLOCK", 500)  # one block: the dense inverse
    for case, got in zip(cases, blocked):
        dense, _ = linalg.eig_shift_invert(*case)
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


def test_eig_shift_invert_stops_on_residual_estimate(monkeypatch):
    # one shifted solve per Krylov vector; the estimate accepts the lowest
    # hyperbolic level at the first check and the finite well's ten lowest
    # at the second, where two agreeing steps needed one step more
    solves = count_shifted_solves(monkeypatch)
    s1, _, _, s3 = _hofd_cases(500)
    linalg.eig_shift_invert(*s1)
    linalg.eig_shift_invert(*s3)
    assert solves[0] <= linalg.KRYLOV_STEP and solves[1] <= 2 * linalg.KRYLOV_STEP


def test_eig_shift_invert_residual_of_banded_product(monkeypatch):
    # the contract gets a x from 2p + 1 shifted multiply-adds over the band;
    # it must be the dense product, wall rows included
    op, v = hofd.box_operator(reference.TRIG_SETS["S3"], 200, hofd.DEFAULT_K)
    seen = []
    contract = linalg._residual

    def recorded(ax, x, lam, norm):
        seen.append((ax, x))
        return contract(ax, x, lam, norm)
    monkeypatch.setattr(linalg, "_residual", recorded)
    linalg.eig_shift_invert(op, float(v.min()) - 1.0, 3)
    [(ax, x)] = seen
    want = dense(op) @ x
    assert x.shape == (200, 3)
    assert np.abs(ax - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("sigma", [5.0, 150.0])
def test_eig_shift_invert_singular_shift(sigma):
    # sigma is a diagonal entry of a diagonal matrix, in the first block and
    # in the last one, so that block of a - sigma I is exactly singular
    a = np.diag(np.arange(200.0))
    with pytest.raises(SolverError):
        linalg.eig_shift_invert(band(a, 0), sigma, 1)
