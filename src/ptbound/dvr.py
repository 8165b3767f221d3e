"""Discrete variable representation eigensolver on uniform grids.

Particle-in-a-box DVR: the kinetic energy matrix is analytic, the
potential is diagonal at the grid nodes. Two kinetic operators are
provided: one for the semi-infinite line (hyperbolic family) and one
for a finite box (trigonometric family). The index range 1..M-1 keeps
the grid away from the singular endpoints automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import ConfigError, DomainError
from .potentials import (
    ASYMPTOTE,
    HyperbolicParams,
    TrigParams,
    eval_hyperbolic,
    eval_trig,
)

# Converged defaults for the shipped parameter sets
DEFAULT_M_HYPERBOLIC = 200
DEFAULT_B = 10.0
DEFAULT_M_TRIG = 300


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenvalues with the configuration that produced them."""

    eigenvalues: tuple[float, ...]
    config: dict = field(default_factory=dict)
    max_residual: float = 0.0


def grid(M: int, length: float) -> np.ndarray:
    """Interior nodes x_i = i*length/M, i = 1..M-1."""
    return np.arange(1, M) * (length / M)


def kinetic_semiinfinite(M: int, b: float) -> np.ndarray:
    """-1/2 d^2/dx^2 on (0, inf) in the box basis, (M-1)x(M-1)."""
    if M < 3 or b <= 0:
        raise ConfigError("need M >= 3 and b > 0")
    dx = b / M
    i = np.arange(1, M, dtype=float)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    sign = (-1.0) ** (ii - jj)
    with np.errstate(divide="ignore"):
        off = 1.0 / (ii - jj) ** 2 - 1.0 / (ii + jj) ** 2
    diag = math.pi**2 / 6.0 - 1.0 / (4.0 * i**2)
    t = sign * off
    np.fill_diagonal(t, diag)
    return t / dx**2


def kinetic_box(M: int, a: float) -> np.ndarray:
    """-1/2 d^2/dx^2 on (0, a) with hard walls, (M-1)x(M-1)."""
    if M < 3 or a <= 0:
        raise ConfigError("need M >= 3 and a > 0")
    i = np.arange(1, M, dtype=float)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    sign = (-1.0) ** (ii - jj)
    with np.errstate(divide="ignore"):
        off = (1.0 / np.sin((ii - jj) * math.pi / (2 * M)) ** 2
               - 1.0 / np.sin((ii + jj) * math.pi / (2 * M)) ** 2)
    diag = (2.0 * M**2 + 1.0) / 3.0 - 1.0 / np.sin(i * math.pi / M) ** 2
    t = sign * off
    np.fill_diagonal(t, diag)
    return t * math.pi**2 / (4.0 * a**2)


def hamiltonian(kinetic: np.ndarray, potential_on_grid: np.ndarray) -> np.ndarray:
    """Kinetic matrix plus diagonal potential."""
    v = np.asarray(potential_on_grid, dtype=float)
    if v.shape != (kinetic.shape[0],):
        raise ValueError("potential sample count must match the kinetic matrix")
    if not np.all(np.isfinite(v)):
        raise DomainError("potential is non-finite at a grid node")
    h = kinetic.copy()
    h[np.diag_indices_from(h)] += v
    return h


def solve_spectrum(h: np.ndarray, count: int,
                   config: dict | None = None) -> SpectrumResult:
    """The `count` lowest eigenvalues of a symmetric Hamiltonian, ascending,
    with the largest eigen-residual among them."""
    w, _, resid = linalg.eig_symmetric(h)
    count = min(count, len(w))
    return SpectrumResult(eigenvalues=tuple(float(x) for x in w[:count]),
                          config=dict(config or {}),
                          max_residual=float(resid[:count].max(initial=0.0)))


def hyperbolic_spectrum(p: HyperbolicParams, M: int = DEFAULT_M_HYPERBOLIC,
                        b: float = DEFAULT_B, count: int | None = None) -> SpectrumResult:
    """Bound spectrum of the hyperbolic potential.

    Eigenvalues at or above the x -> infinity asymptote (zero) are
    discretized-continuum artifacts of the finite box and are dropped.
    """
    if count is not None and count < 0:
        raise ValueError("count must be >= 0")
    x = grid(M, b)
    h = hamiltonian(kinetic_semiinfinite(M, b), eval_hyperbolic(p, x))
    res = solve_spectrum(h, M - 1, config={"M": M, "b": b})
    bound = tuple(e for e in res.eigenvalues if e < ASYMPTOTE)
    return replace(res, eigenvalues=bound[:count])


def trig_spectrum(p: TrigParams, M: int = DEFAULT_M_TRIG, count: int = 10,
                  reflected: bool = False) -> SpectrumResult:
    """Lowest `count` eigenvalues of the trigonometric potential well."""
    if count < 0:
        raise ValueError("count must be >= 0")
    x = grid(M, p.a)
    h = hamiltonian(kinetic_box(M, p.a), eval_trig(p, x, reflected=reflected))
    return solve_spectrum(h, count, config={"M": M, "a": p.a})
