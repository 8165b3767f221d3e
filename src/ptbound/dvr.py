"""Discrete variable representation eigensolver on uniform grids.

Particle-in-a-box DVR: the kinetic energy matrix is analytic, the
potential is diagonal at the grid nodes. Two kinetic operators are
provided: one for the semi-infinite line (hyperbolic family) and one
for a finite box (trigonometric family), both Colbert-Miller closed
forms (J. Chem. Phys. 96, 1982 (1992)). Off the diagonal each is a
Toeplitz part minus a Hankel part of one signed 1-D table over
n = 0..2M-2. The index range 1..M-1 keeps the grid away from the
singular endpoints automatically. `solve_spectrum` picks the operator
from the parameters' family and keeps the lowest levels (under an
asymptote, for the hyperbolic family); the eigen-residual contract
covers exactly those kept pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg
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
# finite-well levels kept when no count is given
TRIG_LEVELS = 10


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenvalues with the configuration that produced them."""

    eigenvalues: tuple[float, ...]
    config: dict = field(default_factory=dict)
    max_residual: float = 0.0


def grid(M: int, length: float) -> np.ndarray:
    """Interior nodes x_i = i*length/M, i = 1..M-1."""
    return np.arange(1, M) * (length / M)


def _toeplitz_minus_hankel(table: np.ndarray) -> np.ndarray:
    """The (M-1)x(M-1) matrix s(|i-j|) - s(i+j), i, j = 1..M-1, with
    s(n) = (-1)^n table[n] over n = 0..2M-2. The sign is applied to the
    table in place; the Hankel part is a strided view of it and the
    Toeplitz part one of its mirror, so the matrix costs one subtraction."""
    n = (len(table) - 1) // 2
    table[1::2] *= -1.0
    mirrored = np.concatenate((table[n - 1:0:-1], table[:n]))
    toeplitz = sliding_window_view(mirrored, n)[::-1]
    hankel = sliding_window_view(table[2:], n)
    return toeplitz - hankel


def kinetic_semiinfinite(M: int, b: float) -> np.ndarray:
    """-1/2 d^2/dx^2 on (0, inf) in the box basis, (M-1)x(M-1): entry
    (-1)^(i-j) (g(|i-j|) - g(i+j)) / dx^2 off the diagonal, g(n) = 1/n^2."""
    if M < 3 or not 0 < b < math.inf:
        raise ValueError(f"need M >= 3 and finite b > 0, got M={M}, b={b}")
    dx = b / M
    n = np.arange(2 * M - 1, dtype=float)
    with np.errstate(divide="ignore"):
        t = _toeplitz_minus_hankel(1.0 / n**2)
    i = np.arange(1, M, dtype=float)
    np.fill_diagonal(t, math.pi**2 / 6.0 - 1.0 / (4.0 * i**2))
    # dx^2 may underflow to 0; the solver rejects the inf that gives
    with np.errstate(divide="ignore"):
        return t / dx**2


def kinetic_box(M: int, a: float) -> np.ndarray:
    """-1/2 d^2/dx^2 on (0, a) with hard walls, (M-1)x(M-1): entry
    (-1)^(i-j) (g(|i-j|) - g(i+j)) pi^2/(4a^2) off the diagonal,
    g(n) = 1/sin^2(n pi/2M)."""
    if M < 3 or not 0 < a < math.inf:
        raise ValueError(f"need M >= 3 and finite a > 0, got M={M}, a={a}")
    n = np.arange(2 * M - 1, dtype=float)
    with np.errstate(divide="ignore"):
        t = _toeplitz_minus_hankel(1.0 / np.sin(n * math.pi / (2 * M)) ** 2)
    i = np.arange(1, M, dtype=float)
    np.fill_diagonal(t, (2.0 * M**2 + 1.0) / 3.0
                     - 1.0 / np.sin(i * math.pi / M) ** 2)
    # 4a^2 may underflow to 0; the solver rejects the inf that gives
    with np.errstate(divide="ignore"):
        return t * math.pi**2 / (4.0 * a**2)


def solve_spectrum(p: HyperbolicParams | TrigParams, M: int | None = None,
                   b: float = DEFAULT_B, count: int | None = None) -> SpectrumResult:
    """The `count` lowest levels of p's family, ascending, with the largest
    eigen-residual among them, relative to max(|h|, 1). The hyperbolic
    family is solved on (0, b) and keeps only levels below the asymptote
    (the others are continuum artifacts of the box), all of them if `count`
    is None; the finite well is solved on (0, a), `b` unused, and keeps
    TRIG_LEVELS levels if `count` is None. M defaults per family."""
    if count is not None and count < 0:
        raise ValueError("count must be >= 0")
    if isinstance(p, HyperbolicParams):
        M = DEFAULT_M_HYPERBOLIC if M is None else M
        h, v = kinetic_semiinfinite(M, b), eval_hyperbolic(p, grid(M, b))
        config, below = {"M": M, "b": b}, ASYMPTOTE
    else:
        M = DEFAULT_M_TRIG if M is None else M
        h, v = kinetic_box(M, p.a), eval_trig(p, grid(M, p.a))
        config, below = {"M": M, "a": p.a}, math.inf
        if count is None:
            count = TRIG_LEVELS
    h[np.diag_indices_from(h)] += v  # the kinetic matrix is ours to overwrite
    w, _, worst = linalg.eig_symmetric(h, count, below)
    return SpectrumResult(eigenvalues=tuple(float(x) for x in w),
                          config=config, max_residual=worst)
