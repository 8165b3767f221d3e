"""Exact levels of the full hyperbolic potential, quartic core included, at
quasi-exactly solvable points (kappa = 1).

At B = -(N+1)(N+2)/2 the ansatz psi = exp(-c coth u) e^(-mu u)
tanh^(N+1)(u) P_N(coth u), c = sqrt(2 V0), mu = sqrt(-2E), turns the
Schroedinger equation into a square pencil in mu for the coefficients of
P_N plus one scalar condition on A. The points below solve both in mpmath
at 50 digits (residual below 1e-34); the number of roots of P_N on
(1, inf) is the level index. These are the exact truths that the solvers
are held to here at V0 != 0.

Each bound is about 1.5 times the largest error measured at one and two
BLAS threads. The HOFD error grows from M = 500 to M = 1000: at these grids
it is rounding, not discretization.
"""

import math

import numpy as np
import pytest

from ptbound import dvr, hofd
from ptbound.potentials import HyperbolicParams

# (V0, N, A, level index, exact E), B = -(N+1)(N+2)/2
POINTS = {
    "V0=10-N9": (10.0, 9, 36.91281766949515753059, 0, -0.2246772346074797667396),
    "V0=10-N11": (10.0, 11, 53.07910231911302148641, 0, -0.495631847179405290191),
    "V0=10-N12-A52": (10.0, 12, 52.39550209485018233306, 0,
                      -1.942467912857613018147),
    "V0=10-N12-A64": (10.0, 12, 64.19207507699025767954, 0,
                      -0.5001932122909670002528),
    # the level that default DVR misses (its box is too short)
    "V0=0.3-N5": (0.3, 5, 5.529129225182916150116, 1,
                  -2.707826798203168542865e-4),
}

# |E_hofd - E| bounds: measured worst 3.48e-12 (M = 500) and 1.64e-11
# (M = 1000) over the four V0 = 10 points, 5.01e-12 and 6.63e-13 at the
# V0 = 0.3 level, by this factorization and by the block LU before it;
# margins 1.4x, 1.5x, 1.5x and 1.5x
HOFD_BOUNDS = {500: 5e-12, 1000: 2.5e-11}
HOFD_BOUNDS_SHALLOW = {500: 7.5e-12, 1000: 1e-12}


def _params(V0, N, A):
    return HyperbolicParams(V0=V0, A=A, B=-(N + 1) * (N + 2) / 2, kappa=1.0)


@pytest.mark.parametrize("M", [500, 1000])
@pytest.mark.parametrize("name", sorted(POINTS))
def test_hofd_exact_level(name, M):
    V0, N, A, j, exact = POINTS[name]
    got = hofd.hofd_spectrum(_params(V0, N, A), M, count=j + 1).eigenvalues
    assert len(got) == j + 1
    bounds = HOFD_BOUNDS if V0 == 10.0 else HOFD_BOUNDS_SHALLOW
    assert abs(got[j] - exact) <= bounds[M]


def test_dvr_default_exact_level():
    # the one point whose level the default box and grid resolve: measured
    # 1.11e-13 off at one BLAS thread and 1.33e-13 at two; margin 1.5x
    V0, N, A, j, exact = POINTS["V0=10-N12-A52"]
    got = dvr.solve_spectrum(_params(V0, N, A)).eigenvalues
    assert abs(got[j] - exact) <= 2e-13


def _pencil(V0, N, A):
    """Rows z^0 .. z^(N+1) of the ansatz's equations in the coefficients
    p_0 .. p_N of P_N, as M0 + mu M1 (kappa = 1, c = sqrt(2 V0)). Term z^k
    of P_N feeds z^(k+2): -2c(N - k); z^(k+1): 2(A + c mu) - (N - k)(N - k
    + 1); z^k: 2(c + mu)(N + 1 - k); z^(k-1): -k(2N + 3 - k)."""
    c = math.sqrt(2.0 * V0)
    M0, M1 = np.zeros((2, N + 3, N + 1))  # row z^(N+2) stays zero
    for k in range(N + 1):
        M0[k + 2, k] = -2.0 * c * (N - k)
        M0[k + 1, k], M1[k + 1, k] = 2.0 * A - (N - k) * (N - k + 1), 2.0 * c
        M0[k, k], M1[k, k] = 2.0 * c * (N + 1 - k), 2.0 * (N + 1 - k)
        if k:
            M0[k - 1, k] = -k * (2 * N + 3 - k)
    return M0[:-1], M1[:-1]


def _qes_level(V0, N, A):
    """(mu, p, checks): of the real eigenvalues mu of the square pencil,
    rows z^0 .. z^N (M1 is lower bidiagonal with a nonzero diagonal, so
    an ordinary eigenproblem), the one whose check row z^(N+1) vanishes,
    with P_N scaled to a largest coefficient of 1 and refined by one Newton
    step on the square rows; and the check-row residuals of all of them,
    ascending."""
    M0, M1 = _pencil(V0, N, A)
    mus, vecs = np.linalg.eig(-np.linalg.solve(M1[:-1], M0[:-1]))
    real = mus.imag == 0.0
    mus, vecs = mus.real[real], vecs.real[:, real]
    vecs = vecs / vecs[np.abs(vecs).argmax(axis=0), np.arange(len(mus))]
    checks = np.abs(M0[-1] @ vecs + mus * (M1[-1] @ vecs))
    best = checks.argmin()
    mu, p = mus[best], vecs[:, best]
    # Newton on (M0 + mu M1) p = 0 with the largest coefficient held at 1
    jac = np.zeros((N + 2, N + 2))
    jac[:-1, :-1] = M0[:-1] + mu * M1[:-1]
    jac[:-1, -1] = M1[:-1] @ p
    jac[-1, np.abs(p).argmax()] = 1.0
    step = np.linalg.solve(jac, -np.append(jac[:-1, :-1] @ p, 0.0))
    return mu + step[-1], p + step[:-1], np.sort(checks)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_pencil_gives_stored_level(name):
    # numpy alone rebuilds each stored level from its (V0, N, A). Measured at
    # one and two BLAS threads: check-row residual at most 9.7e-14 (bound
    # 1e-12), the next eigenvalue's at least 2.9e-8 (floor 1e-9);
    # |E - stored| / |E| at most 4.4e-15 (up to 3.0e-14 before the Newton
    # step), so the bound 3e-14 has a margin of 6.8x
    V0, N, A, j, exact = POINTS[name]
    mu, p, checks = _qes_level(V0, N, A)
    assert checks[0] <= 1e-12 and checks[1] >= 1e-9
    assert mu > 0.0
    assert abs(-0.5 * mu**2 - exact) <= 3e-14 * abs(exact)
    # P_N's roots on (1, inf), the nodes of psi in x, number the level index
    roots = np.roots(p[::-1])
    assert np.sum(np.isreal(roots) & (roots.real > 1.0)) == j
