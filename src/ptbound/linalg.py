"""Dense eigensolvers with explicit residual contracts.

Thin wrappers over the LAPACK eigensolvers (via numpy) that enforce the
accuracy contracts the solver modules rely on: symmetry checks on input,
residual and orthonormality checks on output. Tolerances are relative to
the max-row-sum norm so they stay scale-free across grids. The
nonsymmetric eigensolve that needs only the few eigenvalues nearest a
shift is a shift-invert Arnoldi iteration on numpy alone.
"""

from __future__ import annotations

import numpy as np

from .errors import NonSymmetricError, SolverError

SYMMETRY_RTOL = 1e-12
RESIDUAL_RTOL = 1e-10
REALNESS_RTOL = 1e-8
KRYLOV_STEP = 20  # basis vectors added between convergence checks
RITZ_RTOL = 1e-13  # successive Ritz values agree, relative to |lambda - sigma|


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


def eig_shift_invert(a: np.ndarray, sigma: float,
                     count: int) -> tuple[np.ndarray, float]:
    """The `count` smallest near-real eigenvalues of a real square matrix
    whose spectrum lies to the right of `sigma`.

    Shift-invert Arnoldi: with B = (a - sigma I)^-1, formed once, the
    eigenvalues nearest sigma become the largest eigenvalues theta of B and
    converge first in its Krylov space. The orthonormal basis grows
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
    shifted = a.copy()
    shifted[np.diag_indices(n)] -= sigma
    try:
        inv = np.linalg.inv(shifted)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"shift {sigma:.6g} is an eigenvalue: {exc}") from exc
    rng = np.random.default_rng(0)
    basis = np.zeros((n, n))  # rows are the orthonormal Krylov vectors
    hess = np.zeros((n, n))  # hess[i + 1, i] links vector i to i + 1
    basis[0] = _unit(rng.standard_normal(n))
    m, previous = 0, None
    while True:
        stop = min(m + KRYLOV_STEP, n)
        for i in range(m, stop):
            w = inv @ basis[i]
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
