"""Eigensolvers with explicit residual contracts.

Thin wrappers over the LAPACK eigensolvers (via numpy) that enforce the
accuracy contracts the solver modules rely on: symmetry checks on input,
residual and orthonormality checks on output. Tolerances are relative to
the max-row-sum norm so they stay scale-free across grids. The
nonsymmetric eigensolve that needs only the few eigenvalues nearest a
shift is a shift-invert Arnoldi iteration on numpy alone. Its shifted
matrix is factored block by block: the half-bandwidth p is read from the
matrix's nonzeros, the rows are cut into blocks of at least max(BLOCK, p)
rows, so the matrix is block tridiagonal, and only those blocks are
inverted. A dense or small matrix is a single block, whose factor is its
plain inverse.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import NonSymmetricError, SolverError

SYMMETRY_RTOL = 1e-12
RESIDUAL_RTOL = 1e-10
REALNESS_RTOL = 1e-8
KRYLOV_STEP = 20  # basis vectors added between convergence checks
RITZ_RTOL = 1e-13  # successive Ritz values agree, relative to |lambda - sigma|
BLOCK = 64  # least rows per block of the banded shifted factorization


def matrix_norm(a: np.ndarray) -> float:
    """Max-row-sum (infinity) norm."""
    return float(np.abs(a).sum(axis=1).max()) if a.size else 0.0


def eig_symmetric(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (ascending), orthonormal eigenvectors (columns) and each
    pair's residual max|a v - w v| of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    norm = matrix_norm(a)
    if np.abs(a - a.T).max() > SYMMETRY_RTOL * max(norm, 1.0):
        raise NonSymmetricError("matrix is not symmetric within tolerance")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigensolve failed: {exc}") from exc
    resid = np.abs(a @ v - v * w).max(axis=0)
    if resid.max() > RESIDUAL_RTOL * max(norm, 1.0):
        raise SolverError(f"eigenpair residual {resid.max():.3e} exceeds contract")
    return w, v, resid


def eig_general(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (complex) and right eigenvectors of a real square matrix.

    The dense reference that the tests hold `eig_shift_invert` to.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eig_general requires a square matrix")
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"general eigensolve failed: {exc}") from exc
    return w, v


def near_real_sorted(w: np.ndarray) -> np.ndarray:
    """Real parts of the eigenvalues within REALNESS_RTOL * max(|w|, 1) of
    the real axis, ascending."""
    radius = np.abs(w).max() if w.size else 0.0
    real = w[np.abs(w.imag) <= REALNESS_RTOL * max(radius, 1.0)].real
    return np.sort(real)


def half_bandwidth(a: np.ndarray) -> int:
    """Largest |i - j| over the nonzero entries a[i, j] of a square matrix
    (0 if none)."""
    nonzero = a != 0
    np.fill_diagonal(nonzero, True)  # no row is empty, and |i - i| adds nothing
    n = len(a)
    i = np.arange(n)
    below = i - nonzero.argmax(axis=1)  # to each row's first nonzero
    above = n - 1 - nonzero[:, ::-1].argmax(axis=1) - i  # to its last
    return int(max(below.max(initial=0), above.max(initial=0)))


def shifted_solver(a: np.ndarray, sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    """The map b -> (a - sigma I)^-1 b, by block LU of a - sigma I.

    With p = half_bandwidth(a), the rows are cut into blocks of
    s = max(BLOCK, p) rows, the last one taking the remainder, so no block
    is shorter than p and a dense or small matrix is a single block. Block
    i then meets only blocks i - 1 and i + 1, through p x p corners: L_i,
    the first p rows of i against the last p columns of i - 1, and U_i, the
    last p rows of i against the first p columns of i + 1. The factor keeps
    the inverses of S_i = D_i - L_i S_{i-1}^-1 U_{i-1}, D_i being the
    diagonal block of a - sigma I (only the leading p x p corner of S_i
    differs from D_i). A solve is a forward sweep
    z_i = S_i^-1 (b_i - L_i z_{i-1}) and a backward sweep
    x_i = z_i - S_i^-1 U_i x_{i+1}. Every block is read straight from a;
    no dense copy of a - sigma I and no dense inverse is formed. The blocks
    are not pivoted against each other, so a singular S_i raises
    SolverError.
    """
    n = a.shape[0]
    p = half_bandwidth(a)
    s = max(BLOCK, p)
    edges = [i * s for i in range(max(n // s, 1))] + [n]
    blocks = list(zip(edges[:-1], edges[1:]))
    inverses, lower, upper = [], [None], []
    for lo, hi in blocks:
        d = a[lo:hi, lo:hi].copy()
        d[np.diag_indices(hi - lo)] -= sigma
        if lo:
            tail = len(inverses[-1]) - p
            lower.append(a[lo:lo + p, lo - p:lo])
            d[:p, :p] -= lower[-1] @ inverses[-1][tail:, tail:] @ upper[-1]
        try:
            inverses.append(np.linalg.inv(d))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"shift {sigma:.6g} leaves rows {lo}:{hi} of "
                              f"a - sigma I singular: {exc}") from exc
        upper.append(a[hi - p:hi, hi:hi + p])
    # S_i^-1 U_i; only its first p columns are nonzero
    back = [inv[:, len(inv) - p:] @ u for inv, u in zip(inverses[:-1], upper)]

    def solve(b: np.ndarray) -> np.ndarray:
        x = b.copy()
        for (lo, hi), inv, low in zip(blocks, inverses, lower):
            if lo:
                x[lo:lo + p] -= low @ x[lo - p:lo]
            x[lo:hi] = inv @ x[lo:hi]
        for (lo, hi), w in zip(blocks[-2::-1], back[::-1]):
            x[lo:hi] -= w @ x[hi:hi + p]
        return x

    return solve


def eig_shift_invert(a: np.ndarray, sigma: float,
                     count: int) -> tuple[np.ndarray, float]:
    """The `count` smallest near-real eigenvalues of a real square matrix
    whose spectrum lies to the right of `sigma`.

    Shift-invert Arnoldi: with B = (a - sigma I)^-1 the eigenvalues nearest
    sigma become the largest eigenvalues theta of B and converge first in
    its Krylov space. B is never formed: `shifted_solver` factors
    a - sigma I once, block by block over the band it reads from a's
    nonzeros, and each Krylov step applies B as two sweeps over the blocks
    (a single block, for a dense or small a, is the plain inverse). A
    singular block raises SolverError. The orthonormal basis grows
    KRYLOV_STEP vectors at a time (two-pass Gram-Schmidt from a fixed random
    start); after each step the Ritz values of B map back by
    lambda = sigma + 1/theta. The values are accepted once the `count`
    smallest near-real ones agree with the previous step's to RITZ_RTOL
    relative to |lambda - sigma|, or once the basis spans the whole space.
    Every returned pair must meet the residual contract
    |a x - lambda x| <= RESIDUAL_RTOL * max(|a|, 1) (unit x, max norms).

    Returns the eigenvalues ascending and the largest relative residual.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eig_shift_invert requires a square matrix")
    if count == 0:
        return np.empty(0), 0.0
    n = a.shape[0]
    solve = shifted_solver(a, sigma)
    rng = np.random.default_rng(0)
    basis = np.zeros((n, n))  # rows are the orthonormal Krylov vectors
    hess = np.zeros((n, n))  # hess[i + 1, i] links vector i to i + 1
    basis[0] = _unit(rng.standard_normal(n))
    m, previous = 0, None
    while True:
        stop = min(m + KRYLOV_STEP, n)
        for i in range(m, stop):
            w = solve(basis[i])
            image = np.linalg.norm(w)
            hess[:i + 1, i] = _orthogonalize(w, basis[:i + 1])
            if i + 1 == n:
                break
            beta = np.linalg.norm(w)
            if beta <= n * np.finfo(float).eps * image:
                # the basis spans an invariant subspace: go on from a fresh
                # direction, so the Krylov space can still reach the rest
                w = rng.standard_normal(n)
                _orthogonalize(w, basis[:i + 1])
                beta, w = 0.0, _unit(w)
            else:
                w /= beta
            hess[i + 1, i] = beta
            basis[i + 1] = w
        m = stop
        lam = sigma + 1.0 / np.linalg.eigvals(hess[:m, :m])
        current = near_real_sorted(lam)[:count]
        if m == n or (previous is not None and len(previous) == count
                      and len(current) == count
                      and np.all(np.abs(current - previous)
                                 <= RITZ_RTOL * np.abs(current - sigma))):
            break
        previous = current

    theta, y = np.linalg.eig(hess[:m, :m])
    lam = sigma + 1.0 / theta
    values = near_real_sorted(lam)[:count]
    if len(values) < count:
        raise SolverError(
            f"only {len(values)} near-real eigenvalues, need {count}")
    picked = [int(np.argmin(np.abs(lam - v))) for v in values]
    x = basis[:m].T @ y[:, picked]
    x /= np.linalg.norm(x, axis=0)
    scale = max(matrix_norm(a), 1.0)
    resid = np.abs(a @ x - x * lam[picked]).max(axis=0) / scale
    worst = float(resid.max())
    if not worst <= RESIDUAL_RTOL:
        raise SolverError(f"eigenpair residual {worst:.3e} exceeds contract")
    return values, worst


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove from w, in place, its components along the rows of the
    orthonormal `basis` (two passes); returns the coefficients removed."""
    c = basis @ w
    w -= c @ basis
    d = basis @ w
    w -= d @ basis
    return c + d


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)
