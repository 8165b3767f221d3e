"""Eigensolvers with one eigenpair contract.

Thin wrappers over the LAPACK eigensolvers (via numpy). Both the symmetric
solve (DVR) and the shift-invert solve (HOFD) first take the max-row-sum
norm |a| and raise SolverError if it is not finite, as they do when LAPACK
fails. Both hold every pair they return to one contract, `_residual`:
max|a x - lambda x| / max(|a|, 1) <= RESIDUAL_RTOL over unit x, and report
that relative residual, so the two solvers print it on one scale. The
symmetric solve also checks symmetry; orthonormality is not checked. The
few eigenvalues nearest a shift of a nonsymmetric banded matrix come from
a shift-invert Arnoldi iteration on numpy alone, which takes the n x n
matrix a as its band: band[i, r] = a[i, i - p + r], n x (2p + 1) and zero
outside a (the row form of LAPACK's general band layout). The shifted
matrix is factored once per solve by nested dissection: interiors of at
least max(BLOCK, p) rows, inverted in one batched call, and the p-row
separators between them, coupled through one dense Schur complement.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .errors import SolverError

SYMMETRY_RTOL = 1e-12
RESIDUAL_RTOL = 1e-10
REALNESS_RTOL = 1e-8
KRYLOV_STEP = 20  # basis vectors added between convergence checks
RITZ_RTOL = 1e-13  # Ritz residual estimate beta_m |y_m| relative to |theta|
BLOCK = 64  # least rows per block of the banded shifted factorization


def matrix_norm(a: np.ndarray) -> float:
    """Max-row-sum (infinity) norm; SolverError if it is not finite (an inf
    or nan entry, or a row sum that overflows)."""
    norm = float(np.abs(a).sum(axis=1).max()) if a.size else 0.0
    if not math.isfinite(norm):
        raise SolverError(f"matrix is not finite: max-row-sum norm {norm}")
    return norm


def _residual(ax: np.ndarray, x: np.ndarray, lam: np.ndarray, norm: float) -> float:
    """The eigenpair contract: max|a x - lambda x| over the unit columns x,
    given their product ax = a x, relative to max(norm, 1), 0.0 for no
    pairs. SolverError unless it is at most RESIDUAL_RTOL (nan included)."""
    worst = float(np.abs(ax - x * lam).max(initial=0.0)) / max(norm, 1.0)
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
        raise SolverError("matrix is not symmetric within tolerance")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigensolve failed: {exc}") from exc
    k = int(np.count_nonzero(w < below))
    if count is not None:
        k = min(count, k)
    w, v = w[:k], v[:, :k]
    return w, v, _residual(a @ v, v, w, norm)


def near_real_order(w: np.ndarray) -> np.ndarray:
    """Indices of the eigenvalues within REALNESS_RTOL * max(|w|, 1) of the
    real axis, ascending by real part (ties in index order)."""
    radius = np.abs(w).max() if w.size else 0.0
    near = np.flatnonzero(np.abs(w.imag) <= REALNESS_RTOL * max(radius, 1.0))
    return near[np.argsort(w.real[near], kind="stable")]


def shifted_solver(band: np.ndarray,
                   sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    """The map b -> (a - sigma I)^-1 b for a given as its band, by a
    one-level separator factorization (nested dissection; George, SIAM J.
    Numer. Anal. 10 (1973) 345).

    The rows are cut into c = max((n + p) // (s + p), 1) interiors of t
    rows, s = max(BLOCK, p), each pair split by a separator of p rows; t is
    the least that covers n, and rows of the identity pad the last interior
    to t rows, so a small matrix is one interior. As t >= p, no row reaches
    past the separators beside it and the interiors do not meet. With I the
    block-diagonal interior part of a - sigma I, E its coupling to the
    separators, F theirs to the interiors and D theirs to themselves, the
    separators solve S x_S = b_S - F I^-1 b_I, S = D - F I^-1 E being block
    tridiagonal of order (c - 1) p, and then x_I = I^-1 b_I - I^-1 E x_S.
    The interiors are inverted in one batched call and S densely, so a
    solve is a fixed handful of batched products whatever n is; no n x n
    array is formed. The pieces are not pivoted against each other, so a
    singular interior or S raises SolverError.
    """
    n, width = band.shape
    p = min(width // 2, max(n - 1, 0))  # the band beyond n - 1 lies outside a
    band = band[:, width // 2 - p:width // 2 + p + 1]
    width = 2 * p + 1
    s = max(BLOCK, p)
    c = max((n + p) // (s + p), 1)
    t = -(((c - 1) * p - n) // c)  # ceil((n - (c - 1) p) / c)
    period = t + p  # an interior and the separator after it
    padded = np.zeros((c * period, width))
    padded[:n] = band
    padded[:n, p] -= sigma
    padded[n:, p] = 1.0  # the padding and the unused last separator
    # each interior and its separator as one dense strip over the columns
    # from p before it to 2p after it: row r reaches strip columns r .. r + 2p
    q = np.arange(period)[:, None]
    strip = np.zeros((c, period, period + 2 * p))
    strip[:, q, q + np.arange(width)] = padded.reshape(c, period, width)
    inner, sep = strip[:, :t, :t + 2 * p], strip[:-1, t:, t:]
    try:
        inv = np.linalg.inv(inner[:, :, p:p + t])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"shift {sigma:.6g} leaves an interior block of "
                          f"a - sigma I singular: {exc}") from exc
    # I^-1 E: interior i meets separator i - 1 through its first p rows and
    # separator i through its last p rows
    ie = np.concatenate((inv[:, :, :p] @ inner[:, :p, :p],
                         inv[:, :, t - p:] @ inner[:, t - p:, t + p:]), axis=2)
    # F: separator i meets the last p columns of interior i and the first p
    # of interior i + 1
    f = np.concatenate((sep[:, :, :p], sep[:, :, 2 * p:]), axis=2)
    i = np.arange(c - 1)
    schur = np.zeros((c - 1, p, c - 1, p))
    schur[i, :, i, :] = (sep[:, :, p:2 * p] - f[:, :, :p] @ ie[:-1, t - p:, p:]
                         - f[:, :, p:] @ ie[1:, :p, :p])
    schur[i[1:], :, i[:-1], :] = -f[1:, :, :p] @ ie[1:-1, t - p:, :p]
    schur[i[:-1], :, i[1:], :] = -f[:-1, :, p:] @ ie[1:-1, :p, p:]
    try:
        schur_inv = np.linalg.inv(schur.reshape((c - 1) * p, (c - 1) * p))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"shift {sigma:.6g} leaves the separators of "
                          f"a - sigma I singular: {exc}") from exc

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.zeros(c * period)
        x[:n] = b
        x = x.reshape(c, period)  # x[i, t:] is separator i, the last one 0
        y = (inv @ x[:, :t, None])[:, :, 0]  # I^-1 b_I
        near = np.concatenate((y[:-1, t - p:], y[1:, :p]), axis=1)
        rhs = x[:-1, t:] - (f @ near[:, :, None])[:, :, 0]
        x[:-1, t:] = (schur_inv @ rhs.ravel()).reshape(c - 1, p)
        beside = np.concatenate((np.zeros((1, p)), x[:, t:]))
        beside = np.concatenate((beside[:-1], beside[1:]), axis=1)
        x[:, :t] = y - (ie @ beside[:, :, None])[:, :, 0]
        return x.ravel()[:n]

    return solve


def eig_shift_invert(band: np.ndarray, sigma: float, count: int,
                     found: Sequence[float] = ()) -> tuple[np.ndarray, float]:
    """The `count` smallest near-real eigenvalues of a real banded matrix a,
    given as its band, less those already in `found`. `found` may hold
    approximations of the lowest few of them (ascending, fewer than
    `count`), such as the levels of a nearby matrix.

    Shift-invert Arnoldi: with B = (a - sigma I)^-1 the eigenvalues nearest
    sigma become the largest eigenvalues theta of B and converge first in
    its Krylov space. B is never formed: each Krylov vector applies it as a
    few batched products over the pieces `shifted_solver` factors once. The
    orthonormal basis grows KRYLOV_STEP vectors at a time (two-pass
    Gram-Schmidt from a fixed random start); after each step the Ritz pairs
    (theta, y) of the m x m Hessenberg matrix map back by
    lambda = sigma + 1/theta. By the Arnoldi relation the Ritz vector
    x = V y has |(B - theta) x| = beta_m |y_m|, beta_m being the basis' link
    to vector m + 1 and y_m the last entry of the unit y (Saad, Numerical
    Methods for Large Eigenvalue Problems, 2011, ch. 6). The `count`
    smallest near-real lambda are accepted once that estimate is at most
    RITZ_RTOL * |theta| for each kept one, those above the ranks of `found`
    (as d lambda / |lambda - sigma| = d theta / |theta|, the same bound
    relative to |lambda - sigma|), and each value of `found` and the lambda
    of its rank are each other's nearest among those lambda and `found`
    together; or once the basis spans the whole space. The lambda of the
    ranks of `found` must be there and matched, but need not converge: the
    caller has those levels already. The eigenvalues nearest sigma converge
    first, so without `found` sigma must lie left of every wanted
    eigenvalue: one far left of it may have no Ritz value yet when the
    others have converged, and a higher eigenvalue then fills its slot.
    With `found`, such a slot fails the match (a rank match alone would
    pass it for a single level). A step that ends on a restart (beta_m = 0)
    is never accepted below the whole space: its estimates all read 0, but
    its Ritz values then cover only an invariant subspace and may miss a
    wanted eigenvalue. Every returned pair must meet `_residual`. A band
    that is not 2-D of odd width, or `found` with count or more values,
    raises ValueError; a non-finite a, a singular piece of a - sigma I or a
    failed Hessenberg eigensolve raises SolverError.

    Returns the kept eigenvalues, the count - len(found) of ranks
    len(found) + 1 .. count, ascending, and the largest relative residual
    among them.
    """
    band = np.asarray(band, dtype=float)
    if band.ndim != 2 or band.shape[1] % 2 == 0:
        raise ValueError(f"need a band of odd width, got shape {band.shape}")
    found = np.asarray(found, dtype=float)
    if len(found) >= max(count, 1):
        raise ValueError(f"{len(found)} levels found leave no slot of {count}")
    norm = matrix_norm(band)  # the row sums of |band| are those of |a|
    if count == 0:
        return np.empty(0), 0.0
    n, width = band.shape
    solve = shifted_solver(band, sigma)
    rng = np.random.default_rng(0)
    basis = np.zeros((n, n))  # rows are the orthonormal Krylov vectors
    hess = np.zeros((n + 1, n))  # hess[i + 1, i] links vector i to i + 1
    basis[0] = _unit(rng.standard_normal(n))
    m = 0
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
        picked = near_real_order(lam)[:count]
        kept = picked[len(found):]
        beta = hess[m, m - 1]
        if m == n or (len(picked) == count and beta > 0.0
                      and np.all(beta * np.abs(y[m - 1, kept])
                                 <= RITZ_RTOL * np.abs(theta[kept]))
                      and _matches(lam[picked].real, found)):
            break

    if len(picked) < count:
        raise SolverError(
            f"only {len(picked)} near-real eigenvalues, need {count}")
    x = basis[:m].T @ y[:, kept]
    x /= np.linalg.norm(x, axis=0)
    padded = np.pad(x, ((width // 2,) * 2, (0, 0)))  # a x: 2p + 1 multiply-adds
    ax = sum(band[:, r, None] * padded[r:r + n] for r in range(width))
    return lam[kept].real, _residual(ax, x, lam[kept], norm)


def _matches(ritz: np.ndarray, found: np.ndarray) -> bool:
    """Whether found[i] and ritz[i] are each other's nearest among the
    values of both (ascending) arrays, for every i < len(found)."""
    k = len(found)
    values = np.concatenate([found, ritz])
    dist = np.abs(values[:, None] - values)
    np.fill_diagonal(dist, np.inf)
    nearest = dist.argmin(axis=1)
    own = np.arange(k)
    return bool(np.all(nearest[own] == own + k) and np.all(nearest[own + k] == own))


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
