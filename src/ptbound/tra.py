"""Series-solution assembly: from the physical parameters and a known
bound-state energy, solves the three-term recursion for the series
coefficients and evaluates the finite wavefunction series.

The series basis is the Jacobi polynomials Q_n on y >= 1, orthogonal with
weight (y-1)^mu (y+1)^nu up to the degree N with 2N + mu + nu + 1 < 0. The
coefficient recursion is the Q_n recursion transposed and shifted by an
energy term, so both read one table of factors, `_recursion_terms`.

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

from .errors import TraValidityError
from .potentials import HyperbolicParams, TrigParams


@dataclass(frozen=True)
class SeriesSolution:
    """One bound state: energy, basis parameters mu and nu, the paper's
    branch label ("trig", "hyper" or None, see `branch_window`) and the
    finite coefficient list f_0 .. f_N."""

    energy: float
    mu: float
    nu: float
    branch: str | None
    coeffs: tuple[float, ...]


def strict_floor(x: float) -> int:
    """Largest integer strictly less than x (so strict_floor(3.0) == 2)."""
    return math.ceil(x) - 1


def branch_window(p: HyperbolicParams | TrigParams) -> str | None:
    """The paper's branch label for the parameters, which (z, theta) window
    they fall in: "trig" for the circular window of H_n (cos/sin), "hyper"
    for the hyperbolic one (cosh/sinh), or None. The series itself needs no
    window."""
    if isinstance(p, HyperbolicParams):
        if 0.0 < p.A < p.V0:
            return "trig"
        if p.A < 0.0:
            return "hyper"
        return None
    if -p.V0 < p.C < 0.0:
        return "trig"
    if p.C < -p.V0:
        return "hyper"
    return None


def _recursion_terms(n: int, mu: float, nu: float):
    """Row n of the three-term recursion of Q_n,

      y Q_n = a_n Q_n + b_n Q_{n-1} + c_n Q_{n+1}:

    returns (a_n, b_{n+1}, c_n). TraValidityError where a_n or c_n has a
    pole (no series at those parameters); b_{n+1} is inf at its own pole mu + nu = -2n - 3, where c_{n+1}
    has one too, so only a caller that stops at row n meets it.
    """
    s = mu + nu
    # a_n rounds as (2n + mu + nu), b and c as (2n + s): the bits the series
    # coefficients are pinned to (test_series_coefficients_pinned)
    den_a = (2 * n + mu + nu) * (2 * n + mu + nu + 2)
    den_b = (2 * n + s + 2) * (2 * n + s + 3)
    den_c = (2 * n + s + 1) * (2 * n + s + 2)
    if den_a == 0.0 or den_c == 0.0:
        raise TraValidityError(
            f"recursion denominator vanishes at n={n}, mu+nu={s}")
    b = 2.0 * (n + mu + 1) * (n + nu + 1) / den_b if den_b else math.inf
    return (nu**2 - mu**2) / den_a, b, 2.0 * (n + 1) * (n + s + 1) / den_c


def assemble_solution(p: HyperbolicParams | TrigParams,
                      E_m: float) -> SeriesSolution:
    """Full series record for the bound state at energy E_m.

    The basis parameters are mu = sqrt(-2E/kappa^2), nu = -sqrt(1/4 -
    2B/kappa^2) for the hyperbolic family (E < 0, B <= kappa^2/8) and
    mu = sqrt(1/4 + 2D/rho^2), nu = -sqrt(2E/rho^2) for the finite well
    (E > 0); the series stops at N, the largest n with 2n + mu + nu + 1 < 0.
    The coefficients solve the transposed Q_n recursion from f_0 = 1:

      f_{n+1} = -(g_n f_n + c_{n-1} f_{n-1}) / b_{n+1}   for n < N,

    with the factors of `_recursion_terms` and g_n = a_n + (4 scale^2 / -V0)
    ((n + (mu+nu+1)/2)^2 - 1/16 + shift), where scale = kappa and shift =
    (V0 - 2A) / (4 kappa^2), or scale = rho and shift = -(V0 + 2C) /
    (4 rho^2) for the finite well. Inside the window every b_{n+1} is
    nonzero, and row N, where g_N can have a pole, is never read. A
    coefficient that is not finite in floating point raises
    TraValidityError: no wavefunction could be sampled from it.

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
        if E_m >= 0:
            raise TraValidityError(
                f"series solution requires E < 0, got E={E_m}")
        if p.B > p.kappa**2 / 8.0:
            raise TraValidityError(
                f"series solution requires B <= kappa^2/8, got B={p.B}")
        scale2 = p.kappa**2
        mu = math.sqrt(-2.0 * E_m / scale2)
        nu = -math.sqrt(0.25 - 2.0 * p.B / scale2)
        shift = (p.V0 - 2.0 * p.A) / (4.0 * scale2)
    else:
        if E_m <= 0:
            raise TraValidityError(
                f"series solution requires E > 0, got E={E_m}")
        scale2 = p.rho**2
        mu = math.sqrt(0.25 + 2.0 * p.D / scale2)
        nu = -math.sqrt(2.0 * E_m / scale2)
        shift = -(p.V0 + 2.0 * p.C) / (4.0 * scale2)
    n_top = strict_floor(0.5 * (-nu - mu - 1.0))
    if n_top < 0:
        raise TraValidityError(
            f"energy E={E_m} admits no series term (truncation index {n_top})")
    energy_scale = 4.0 * scale2 / -p.V0
    f = [0.0, 1.0]  # f_{-1} = 0, f_0 = 1
    c = 0.0
    for n in range(n_top):
        a, b, c_next = _recursion_terms(n, mu, nu)
        half = n + (mu + nu + 1.0) / 2.0
        g = (half**2 - 1.0 / 16.0 + shift) * energy_scale + a
        f.append(-(g * f[-1] + c * f[-2]) / b)
        if not math.isfinite(f[-1]):
            raise TraValidityError(
                f"series coefficient f_{n + 1} at E={E_m} is not finite "
                "in floating point")
        c = c_next
    return SeriesSolution(energy=E_m, mu=mu, nu=nu, branch=branch_window(p),
                          coeffs=tuple(f[1:]))


def _q_forward(n: int, mu: float, nu: float, y: np.ndarray) -> list[np.ndarray]:
    """Q_0 .. Q_n at y by forward recursion from Q_0 = 1, with b_k carried
    from row k - 1 of `_recursion_terms`."""
    qs = [np.zeros_like(y), np.ones_like(y)]  # Q_{-1} = 0, Q_0 = 1
    b = 0.0
    for k in range(n):
        a, b_next, c = _recursion_terms(k, mu, nu)
        qs.append(((y - a) * qs[-1] - b * qs[-2]) / c)
        b = b_next
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
    mu, nu = sol.mu, sol.nu
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
