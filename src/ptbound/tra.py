"""Series-solution assembly: maps physical parameters plus a known bound-state
energy to the basis parameters, solves the three-term recursion for the series
coefficients and evaluates the finite wavefunction series.

The series basis is the Jacobi polynomials Q_n on y >= 1, orthogonal with
weight (y-1)^mu (y+1)^nu up to the degree N_m that the basis maps work out.

The energy spectrum itself always comes from the matrix solvers (dvr/hofd);
this module only reconstructs the analytic form of each bound state. All
wavefunctions are un-normalized (the series weight function has no known
closed form).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SingularParameterError, TraValidityError
from .potentials import HyperbolicParams, TrigParams


class Branch(Enum):
    TRIG = "trig"    # circular window of the paper's H_n (cos/sin)
    HYPER = "hyper"  # hyperbolic window (cosh/sinh)


@dataclass(frozen=True)
class TraBasisParams:
    """Energy-dependent basis parameters of one bound state."""

    mu: float
    nu: float
    epsilon: float  # 2E/kappa^2 or 2E/rho^2 per family
    N_m: int


@dataclass(frozen=True)
class SeriesSolution:
    """One bound state: energy, basis, the finite coefficient list and the
    paper's branch label (None where no window applies)."""

    energy: float
    basis: TraBasisParams
    branch: Branch | None
    coeffs: tuple[float, ...]


def strict_floor(x: float) -> int:
    """Largest integer strictly less than x (so strict_floor(3.0) == 2)."""
    return math.ceil(x) - 1


def hyperbolic_basis(p: HyperbolicParams, E: float) -> TraBasisParams:
    """Basis parameters for a hyperbolic-family bound state at energy E < 0."""
    if E >= 0:
        raise TraValidityError(f"series solution requires E < 0, got E={E}")
    if p.B > p.kappa**2 / 8.0:
        raise TraValidityError(
            f"series solution requires B <= kappa^2/8, got B={p.B}")
    eps = 2.0 * E / p.kappa**2
    mu = math.sqrt(-eps)
    nu = -math.sqrt(0.25 - 2.0 * p.B / p.kappa**2)
    n_m = strict_floor(0.5 * (-nu - mu - 1.0))
    if n_m < 0:
        raise TraValidityError(
            f"energy E={E} admits no series term (truncation index {n_m})")
    return TraBasisParams(mu=mu, nu=nu, epsilon=eps, N_m=n_m)


def trig_basis(p: TrigParams, E: float) -> TraBasisParams:
    """Basis parameters for a trigonometric-family bound state at energy E > 0."""
    if E <= 0:
        raise TraValidityError(f"series solution requires E > 0, got E={E}")
    rho2 = p.rho**2
    eps = 2.0 * E / rho2
    mu = math.sqrt(0.25 + 2.0 * p.D / rho2)
    nu = -math.sqrt(eps)
    n_m = strict_floor(0.5 * (-mu - nu - 1.0))
    if n_m < 0:
        raise TraValidityError(
            f"energy E={E} is below the representable window (index {n_m})")
    return TraBasisParams(mu=mu, nu=nu, epsilon=eps, N_m=n_m)


def branch_window(p: HyperbolicParams | TrigParams) -> Branch | None:
    """The paper's branch label for the parameters (which (z, theta)
    window they fall in), or None. The series itself needs no window."""
    if isinstance(p, HyperbolicParams):
        if 0.0 < p.A < p.V0:
            return Branch.TRIG
        if p.A < 0.0:
            return Branch.HYPER
        return None
    if -p.V0 < p.C < 0.0:
        return Branch.TRIG
    if p.C < -p.V0:
        return Branch.HYPER
    return None


def recursion_coefficients(p: HyperbolicParams | TrigParams,
                           basis: TraBasisParams):
    """Tridiagonal coefficients (g, c, d) of the coefficient recursion:
    lists g_0..g_N, c_0..c_{N-1}, d_0..d_{N-1}.

    g_N is inf where mu + nu = -2N - 2, a pole of the Q_n recursion; the
    series coefficients need only g_0..g_{N-1}, which stay finite.
    """
    mu, nu, n_m = basis.mu, basis.nu, basis.N_m
    if isinstance(p, HyperbolicParams):
        scale2 = p.kappa**2
        shift = (p.V0 - 2.0 * p.A) / (4.0 * scale2)
    else:
        scale2 = p.rho**2
        shift = -(p.V0 + 2.0 * p.C) / (4.0 * scale2)
    g, c, d = [], [], []
    for n in range(n_m + 1):
        half = n + (mu + nu + 1.0) / 2.0
        gn = ((half**2 - 1.0 / 16.0) + shift) * (4.0 * scale2 / -p.V0)
        den = (2 * n + mu + nu) * (2 * n + mu + nu + 2)
        gn += (nu**2 - mu**2) / den if den else math.inf
        g.append(gn)
    for n in range(n_m):
        s = mu + nu
        c.append(2.0 * (n + mu + 1) * (n + nu + 1)
                 / ((2 * n + s + 2) * (2 * n + s + 3)))
        d.append(2.0 * (n + 1) * (n + s + 1)
                 / ((2 * n + s + 1) * (2 * n + s + 2)))
    return g, c, d


def assemble_solution(p: HyperbolicParams | TrigParams,
                      E_m: float) -> SeriesSolution:
    """Full series record for the bound state at energy E_m.

    The coefficients solve the recursion of `recursion_coefficients` from
    f_0 = 1: f_{n+1} = -(g_n f_n + d_{n-1} f_{n-1}) / c_n for n < N. Inside
    the window 2N + mu + nu + 1 < 0 every c_n is nonzero.

    In the paper's notation f_n = H_n(z^-1; gamma, theta) / G_n, where
    gamma^2 = 1/16, G_n = (mu+1)_n (nu+1)_n (mu+nu+1) / (n! (mu+nu+1)_n
    (2n+mu+nu+1)), H_n is taken at -theta, and, for the hyperbolic family,
    cos(theta) = 1 - 2A/V0 and z^2 = 4 kappa^4 / (A (V0 - A)) (cosh(theta)
    and A (A - V0) where A < 0); for the finite well cos(theta) =
    -(1 + 2C/V0) and z^2 = -4 rho^4 / (C (C + V0)) (cosh(theta) and
    C (C + V0) where C < -V0). That form needs the parameters inside a
    window of `branch_window`; the recursion does not.
    """
    if isinstance(p, HyperbolicParams):
        basis = hyperbolic_basis(p, E_m)
    else:
        basis = trig_basis(p, E_m)
    g, c, d = recursion_coefficients(p, basis)
    f = [1.0]
    for n in range(basis.N_m):
        below = d[n - 1] * f[n - 1] if n else 0.0
        f.append(-(g[n] * f[n] + below) / c[n])
    return SeriesSolution(energy=E_m, basis=basis, branch=branch_window(p),
                          coeffs=tuple(f))


def _recursion_terms(n: int, mu: float, nu: float):
    """Diagonal, sub- and super-diagonal factors of the Q_n recursion.

    Returns (a_n, b_n, c_n) with
      y Q_n = a_n Q_n + b_n Q_{n-1} + c_n Q_{n+1}.
    """
    s = mu + nu
    d0 = (2 * n + s) * (2 * n + s + 2)
    d1 = (2 * n + s) * (2 * n + s + 1)
    d2 = (2 * n + s + 1) * (2 * n + s + 2)
    if d0 == 0.0 or d1 == 0.0 or d2 == 0.0:
        raise SingularParameterError(
            f"recursion denominator vanishes at n={n}, mu+nu={s}")
    a = (nu**2 - mu**2) / d0
    b = 2.0 * (n + mu) * (n + nu) / d1
    c = 2.0 * (n + 1) * (n + s + 1) / d2
    return a, b, c


def _q_forward(n: int, mu: float, nu: float, y: np.ndarray) -> list[np.ndarray]:
    """Q_0 .. Q_n at y by forward recursion from Q_0 = 1."""
    qs = [np.zeros_like(y), np.ones_like(y)]  # Q_{-1} = 0, Q_0 = 1
    for k in range(n):
        a, b, c = _recursion_terms(k, mu, nu)
        qs.append(((y - a) * qs[-1] - b * qs[-2]) / c)
    return qs[1:]


def eval_wavefunction(sol: SeriesSolution, p: HyperbolicParams | TrigParams,
                      x_grid) -> tuple[np.ndarray, np.ndarray]:
    """Sample the (un-normalized) wavefunction series on x_grid.

    Grid points on or outside the open domain are excluded with a warning.
    Returns (kept_x, psi). A sample that is not finite (far out, the
    prefactor can be 0 * inf) raises TraValidityError.
    """
    x = np.asarray(x_grid, dtype=float)
    if isinstance(p, HyperbolicParams):
        keep = x > 0.0
    else:
        keep = (x > 0.0) & (x < p.a)
    if not np.all(keep):
        warnings.warn(f"excluded {int((~keep).sum())} grid points outside "
                      "the open domain", RuntimeWarning, stacklevel=2)
    x = x[keep]
    mu, nu = sol.basis.mu, sol.basis.nu
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if isinstance(p, HyperbolicParams):
            u = p.kappa * x
            y = 2.0 / np.tanh(u) ** 2 - 1.0
            prefactor = (math.sqrt(2.0) ** (mu + nu + 0.5)
                         * np.cosh(u) ** (nu + 0.5)
                         * np.sinh(u) ** (-mu - nu - 0.5))
        else:
            u = p.rho * x
            y = 2.0 * np.tan(u) ** 2 + 1.0
            prefactor = (math.sqrt(2.0) ** (mu + nu + 0.5)
                         * np.sin(u) ** (mu + 0.5)
                         * np.cos(u) ** (-mu - nu - 0.5))
        series_sum = np.zeros_like(y)
        for f, q in zip(sol.coeffs, _q_forward(len(sol.coeffs) - 1, mu, nu, y)):
            series_sum += f * q
        psi = prefactor * series_sum
    bad = ~np.isfinite(psi)
    if bad.any():
        raise TraValidityError(f"wavefunction at E={sol.energy} is not finite "
                               f"in floating point from x={x[bad][0]:g}")
    return x, psi


def count_nodes(psi: np.ndarray) -> int:
    """Interior sign changes, ignoring exact zeros."""
    vals = psi[psi != 0.0]
    return int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
