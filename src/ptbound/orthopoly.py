"""Jacobi polynomials Q_n on the semi-infinite line y >= 1, the basis of
the series wavefunctions.

The Q_n family is orthogonal on y >= 1 with weight (y-1)^mu (y+1)^nu and
exists only for finitely many degrees: mu > -1 and mu + nu < -2N - 1.
Everything is evaluated by forward three-term recursion; a terminating
hypergeometric sum serves as an independent cross-check. The series
coefficients themselves come from `tra.recursion_coefficients`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, SingularParameterError


@dataclass(frozen=True)
class JacobiParams:
    """(mu, nu) pair with maximal admissible degree N."""

    mu: float
    nu: float
    N: int

    def __post_init__(self):
        if self.N < 0:
            raise AdmissibilityError(f"N must be >= 0, got {self.N}")
        if not self.mu > -1:
            raise AdmissibilityError(f"need mu > -1, got mu={self.mu}")
        if not self.mu + self.nu < -2 * self.N - 1:
            raise AdmissibilityError(
                f"need mu + nu < -2N - 1: mu+nu={self.mu + self.nu}, N={self.N}")


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n by iterated product (safe at negative x)."""
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def _recursion_terms(n: int, mu: float, nu: float):
    """Diagonal, sub- and super-diagonal factors of the shared recursion.

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


def _check_degree(n: int, jp: JacobiParams):
    if not 0 <= n <= jp.N:
        raise AdmissibilityError(f"degree n={n} outside [0, N={jp.N}]")


def _q_forward(n: int, mu: float, nu: float, y: np.ndarray) -> list[np.ndarray]:
    """Raw forward recursion for Q_0 .. Q_n; no admissibility policing."""
    qs = [np.zeros_like(y), np.ones_like(y)]  # Q_{-1} = 0, Q_0 = 1
    for k in range(n):
        a, b, c = _recursion_terms(k, mu, nu)
        qs.append(((y - a) * qs[-1] - b * qs[-2]) / c)
    return qs[1:]


def jacobi_q(n: int, jp: JacobiParams, y):
    """Q_n at y >= 1 by forward recursion from Q_0 = 1."""
    _check_degree(n, jp)
    y = np.asarray(y, dtype=float)
    if np.any(y < 1.0):
        raise ValueError("jacobi_q requires y >= 1")
    q = _q_forward(n, jp.mu, jp.nu, y)[-1]
    return q if q.ndim else float(q)


def jacobi_q_oracle(n: int, jp: JacobiParams, y):
    """Q_n via its terminating hypergeometric sum (independent of the recursion)."""
    _check_degree(n, jp)
    y = np.asarray(y, dtype=float)
    mu, nu = jp.mu, jp.nu
    for k in range(1, n + 1):
        if mu + k == 0.0:
            raise SingularParameterError(f"(mu+1)_k vanishes at k={k}")
    x = (1.0 - y) / 2.0
    total = np.zeros_like(y)
    term = np.ones_like(y)
    for k in range(n + 1):
        total = total + term
        # build the (k+1)-th term from the k-th
        term = term * ((-n + k) * (n + mu + nu + 1 + k)
                       / ((mu + 1 + k) * (k + 1))) * x
    prefactor = pochhammer(mu + 1, n) / math.factorial(n)
    out = prefactor * total
    return out if out.ndim else float(out)


def jacobi_q_norm(n: int, jp: JacobiParams) -> float:
    """Squared weighted L2 norm of Q_n on [1, inf), closed Gamma form."""
    _check_degree(n, jp)
    mu, nu = jp.mu, jp.nu
    try:
        num = (math.gamma(n + mu + 1) * math.gamma(n + nu + 1)
               * math.gamma(-n - mu - nu))
        den = math.gamma(n + 1) * math.gamma(-nu) * math.gamma(nu + 1)
    except ValueError as exc:
        raise SingularParameterError(f"Gamma pole in norm formula: {exc}") from exc
    return ((-1.0) ** (n + 1) * 2.0 ** (mu + nu + 1)
            / (2 * n + mu + nu + 1) * num / den)
