"""Series-solution assembly: maps physical parameters plus a known bound-state
energy to basis/series parameters and evaluates the finite wavefunction series.

The energy spectrum itself always comes from the matrix solvers (dvr/hofd);
this module only reconstructs the analytic form of each bound state. All
wavefunctions are un-normalized (the series weight function has no known
closed form).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BranchBoundaryError, NoBranchError, TraValidityError
from .orthopoly import Branch, TraPolyParams, _q_forward, g_factor, tra_poly_coeffs
from .potentials import HyperbolicParams, TrigParams

GAMMA = 0.25  # gamma^2 = 1/16 for both potential families


@dataclass(frozen=True)
class TraBasisParams:
    """Energy-dependent basis parameters of one bound state."""

    mu: float
    nu: float
    alpha: float
    beta: float
    epsilon: float  # 2E/kappa^2 or 2E/rho^2 per family
    N_m: int


@dataclass(frozen=True)
class SeriesParams:
    """Argument bundle of the series polynomials (energy-independent)."""

    z: float
    theta: float
    branch: Branch


@dataclass(frozen=True)
class SeriesSolution:
    """One bound state: energy, basis, and the finite coefficient list."""

    energy: float
    basis: TraBasisParams
    series: SeriesParams
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
    return TraBasisParams(mu=mu, nu=nu, alpha=mu / 2.0, beta=(-nu - 0.5) / 2.0,
                          epsilon=eps, N_m=n_m)


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
    return TraBasisParams(mu=mu, nu=nu, alpha=(mu + 0.5) / 2.0, beta=-nu / 2.0,
                          epsilon=eps, N_m=n_m)


def branch_window(p: HyperbolicParams | TrigParams) -> Branch | None:
    """Which series branch the potential parameters select, or None."""
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


def series_params(p: HyperbolicParams | TrigParams) -> SeriesParams:
    """Energy-independent polynomial argument (z, theta) for the parameter set."""
    if isinstance(p, HyperbolicParams):
        if p.A in (0.0, p.V0):
            raise BranchBoundaryError(
                f"A={p.A} sits on a branch boundary (z diverges)")
        branch = branch_window(p)
        if branch is None:
            raise NoBranchError(f"A={p.A} outside both branch windows (V0={p.V0})")
        ratio = 1.0 - 2.0 * p.A / p.V0
        if branch is Branch.TRIG:
            theta = math.acos(ratio)
            z2 = 4.0 * p.kappa**4 / (p.A * (p.V0 - p.A))
        else:
            theta = math.acosh(ratio)
            z2 = 4.0 * p.kappa**4 / (p.A * (p.A - p.V0))
    else:
        if p.C in (0.0, -p.V0):
            raise BranchBoundaryError(
                f"C={p.C} sits on a branch boundary (z diverges)")
        branch = branch_window(p)
        if branch is None:
            raise NoBranchError(f"C={p.C} outside both branch windows (V0={p.V0})")
        ratio = -(2.0 * p.C / p.V0 + 1.0)
        rho4 = p.rho**4
        if branch is Branch.TRIG:
            theta = math.acos(ratio)
            z2 = -4.0 * rho4 / (p.C * (p.C + p.V0))
        else:
            theta = math.acosh(ratio)
            z2 = 4.0 * rho4 / (p.C * (p.C + p.V0))
    return SeriesParams(z=math.sqrt(z2), theta=theta, branch=branch)


def recursion_coefficients(p: HyperbolicParams | TrigParams,
                           basis: TraBasisParams):
    """Tridiagonal coefficients (g, c, d) of the coefficient recursion:
    lists g_0..g_N, c_0..c_{N-1}, d_0..d_{N-1}."""
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
        gn += (nu**2 - mu**2) / ((2 * n + mu + nu) * (2 * n + mu + nu + 2))
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
    """Full series record for the bound state at energy E_m."""
    if isinstance(p, HyperbolicParams):
        basis = hyperbolic_basis(p, E_m)
    else:
        basis = trig_basis(p, E_m)
    series = series_params(p)
    # Matching the coefficient recursion to the wave equation fixes the sign
    # of z*sin(theta): it must be negative. With z = +sqrt(z^2) and theta in
    # its principal range, that means evaluating the recursion at -theta.
    tp = TraPolyParams(mu=basis.mu, nu=basis.nu, gamma2=GAMMA**2,
                       z=series.z, theta=-series.theta, branch=series.branch)
    h = tra_poly_coeffs(tp, basis.N_m)
    coeffs = tuple(h[n] / g_factor(n, basis.mu, basis.nu)
                   for n in range(basis.N_m + 1))
    return SeriesSolution(energy=E_m, basis=basis, series=series, coeffs=coeffs)


def eval_wavefunction(sol: SeriesSolution, p: HyperbolicParams | TrigParams,
                      x_grid) -> tuple[np.ndarray, np.ndarray]:
    """Sample the (un-normalized) wavefunction series on x_grid.

    Grid points on or outside the open domain are excluded with a warning.
    Returns (kept_x, psi).
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
    for n, f in enumerate(sol.coeffs):
        series_sum += f * _q_forward(n, mu, nu, y)
    return x, prefactor * series_sum


def count_nodes(psi: np.ndarray) -> int:
    """Interior sign changes, ignoring exact zeros."""
    vals = psi[psi != 0.0]
    return int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
