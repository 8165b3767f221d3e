"""Eigensolvers with one eigenpair contract.

Thin wrappers over the LAPACK eigensolvers (via numpy). Both the symmetric
solve (DVR) and the shift-invert solve (HOFD) first take the max-row-sum
norm |a| and raise SolverError if it is not finite, as they do when LAPACK
fails. Both hold every pair they return to one contract, `_residual`:
max|a x - lambda x| / max(|a|, 1) <= RESIDUAL_RTOL over unit x, and report
that relative residual, so the two solvers print it on one scale. The
symmetric solve also checks symmetry; orthonormality is not checked. The
few eigenvalues nearest a shift of a nonsymmetric matrix come from a
shift-invert Arnoldi iteration on numpy alone. Its shifted matrix is
factored block by block: the half-bandwidth p is read from the matrix's
nonzeros and the rows are cut into blocks of at least max(BLOCK, p) rows,
so only the blocks of a block tridiagonal matrix are inverted (a dense or
small matrix is one block, factored by its plain inverse).
"""

from __future__ import annotations

import math
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
    """Max-row-sum (infinity) norm; SolverError if it is not finite (an inf
    or nan entry, or a row sum that overflows)."""
    norm = float(np.abs(a).sum(axis=1).max()) if a.size else 0.0
    if not math.isfinite(norm):
        raise SolverError(f"matrix is not finite: max-row-sum norm {norm}")
    return norm


def _residual(a: np.ndarray, x: np.ndarray, lam: np.ndarray, norm: float) -> float:
    """The eigenpair contract: max|a x - lambda x| over the unit columns x,
    relative to max(norm, 1), 0.0 for no pairs. SolverError unless it is
    at most RESIDUAL_RTOL (nan included)."""
    worst = float(np.abs(a @ x - x * lam).max(initial=0.0)) / max(norm, 1.0)
    if not worst <= RESIDUAL_RTOL:
        raise SolverError(f"eigenpair residual {worst:.3e} exceeds contract")
    return worst


def eig_symmetric(a: np.ndarray, count: int | None = None,
                  below: float = np.inf) -> tuple[np.ndarray, np.ndarray, float]:
    """The `count` lowest eigenvalues under `below` of a symmetric matrix
    (all of them if `count` is None), ascending, their orthonormal
    eigenvectors (columns) and the largest `_residual` among them.

    The norm, symmetry check and eigensolve cover the whole matrix; the
    residual contract covers the returned pairs only.
    """
    a = np.asarray(a, dtype=float)
    norm = matrix_norm(a)
    if np.abs(a - a.T).max() > SYMMETRY_RTOL * max(norm, 1.0):
        raise NonSymmetricError("matrix is not symmetric within tolerance")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigensolve failed: {exc}") from exc
    k = int(np.count_nonzero(w < below))
    if count is not None:
        k = min(count, k)
    w, v = w[:k], v[:, :k]
    return w, v, _residual(a, v, w, norm)


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
    its Krylov space. B is never formed: each Krylov step applies it as two
    sweeps over the blocks `shifted_solver` factors once. The orthonormal
    basis grows KRYLOV_STEP vectors at a time (two-pass Gram-Schmidt from a
    fixed random start); after each step the Ritz pairs of B map back by
    lambda = sigma + 1/theta. The values are accepted once the `count`
    smallest near-real ones agree with the previous step's to RITZ_RTOL
    relative to |lambda - sigma|, or once the basis spans the whole space.
    Every returned pair must meet `_residual`. A non-finite a, a singular
    block or a failed Hessenberg eigensolve raises SolverError.

    Returns the eigenvalues ascending and the largest relative residual.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eig_shift_invert requires a square matrix")
    norm = matrix_norm(a)
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
        try:
            theta, y = np.linalg.eig(hess[:m, :m])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Hessenberg eigensolve failed: {exc}") from exc
        lam = sigma + 1.0 / theta
        current = near_real_sorted(lam)[:count]
        if m == n or (previous is not None and len(previous) == count
                      and len(current) == count
                      and np.all(np.abs(current - previous)
                                 <= RITZ_RTOL * np.abs(current - sigma))):
            break
        previous = current

    if len(current) < count:
        raise SolverError(
            f"only {len(current)} near-real eigenvalues, need {count}")
    picked = [int(np.argmin(np.abs(lam - v))) for v in current]
    x = basis[:m].T @ y[:, picked]
    x /= np.linalg.norm(x, axis=0)
    return current, _residual(a, x, lam[picked], norm)


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
