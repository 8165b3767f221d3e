"""Generalized Pöschl-Teller potential families and spectral-phase classification.

Hyperbolic family (semi-infinite line, x > 0):

    V(x) = V0/sinh^4(kx) + A/sinh^2(kx) + B/cosh^2(kx)

Trigonometric family (finite well, 0 < x < a, rho = pi/2a):

    V(x) = V0/cos^4(rho x) + C/cos^2(rho x) + D/sin^2(rho x)

and its mirror image V(a - x), which is isospectral.

Critical points of the hyperbolic potential are roots of a cubic in
s = sinh^2(kx); the sign pattern of that cubic drives the phase
classification (bound / bound+resonance / resonance / scattering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

# Double roots of the critical cubic sit on phase boundaries; collapse
# them toward the fewer-roots phase.
ROOT_DEDUP_RTOL = 1e-9
# A root must leave a residual of at most this times max|c| * max(1, s)^3.
ROOT_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class HyperbolicParams:
    """Parameters of the hyperbolic family (atomic units)."""

    V0: float
    A: float
    B: float
    kappa: float

    def __post_init__(self):
        if not self.V0 > 0:
            raise ValueError(f"V0 must be positive, got {self.V0}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


@dataclass(frozen=True)
class TrigParams:
    """Parameters of the trigonometric family (atomic units)."""

    V0: float
    C: float
    D: float
    a: float

    def __post_init__(self):
        if not self.V0 > 0:
            raise ValueError(f"V0 must be positive, got {self.V0}")
        if not self.D > 0:
            raise ValueError(f"D must be positive, got {self.D}")
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")

    @property
    def rho(self) -> float:
        """Angular scale pi/(2a), always derived from a."""
        return math.pi / (2.0 * self.a)


class Phase(Enum):
    """Spectral phase of the hyperbolic potential."""

    B = "B"        # bound states only
    BR = "B&R"     # bound states and resonances
    R = "R"        # resonances only
    S = "S"        # scattering states only


@dataclass(frozen=True)
class SpectralPhase:
    """Phase tag plus the critical-point evidence that produced it."""

    phase: Phase
    positive_roots: tuple[float, ...]
    min_value: float | None  # potential at the well minimum; None for S


def eval_hyperbolic(p: HyperbolicParams, x):
    """Evaluate the hyperbolic potential at x > 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("hyperbolic potential requires x > 0")
    # sinh overflows for large arguments; every term then underflows to 0,
    # which is the correct asymptote
    with np.errstate(over="ignore"):
        s = np.sinh(p.kappa * x) ** 2
        out = p.V0 / s**2 + p.A / s + p.B / (1.0 + s)
    return out if out.ndim else float(out)


def eval_trig(p: TrigParams, x, reflected: bool = False):
    """Evaluate the trigonometric potential (or its mirror) at 0 < x < a."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= p.a):
        raise DomainError("trigonometric potential requires 0 < x < a")
    u = p.rho * x
    if reflected:
        sn, cs = np.cos(u), np.sin(u)  # swap roles: V(a-x)
    else:
        sn, cs = np.sin(u), np.cos(u)
    out = p.V0 / cs**4 + p.C / cs**2 + p.D / sn**2
    return out if out.ndim else float(out)


def critical_cubic(p: HyperbolicParams) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the critical-point cubic in s = sinh^2(kx)."""
    return (p.A + p.B, 2.0 * (p.V0 + p.A), 4.0 * p.V0 + p.A, 2.0 * p.V0)


def _newton_polish(coeffs, r, steps=40):
    c3, c2, c1, c0 = coeffs
    for _ in range(steps):
        f = ((c3 * r + c2) * r + c1) * r + c0
        df = (3.0 * c3 * r + 2.0 * c2) * r + c1
        if df == 0.0 or f == 0.0:
            break
        step = f / df
        r -= step
        if abs(step) <= 1e-15 * max(abs(r), 1.0):
            break
    return r


def _confirmed(coeffs, r: float, scale: float) -> bool:
    """|c3 r^3 + c2 r^2 + c1 r + c0| <= ROOT_RESIDUAL_RTOL * scale * max(1, r)^3."""
    c3, c2, c1, c0 = coeffs
    if r <= 1.0:
        f = ((c3 * r + c2) * r + c1) * r + c0
    else:  # the cubic over r^3, which cannot overflow
        f = ((c0 / r + c1) / r + c2) / r + c3
    return abs(f) <= ROOT_RESIDUAL_RTOL * scale


def positive_real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """All real roots s > 0 of c3 s^3 + c2 s^2 + c1 s + c0, ascending.

    Closed-form discriminant classification with a Newton polish per root;
    degenerate leading coefficients fall back to the quadratic/linear case.
    Roots closer than ROOT_DEDUP_RTOL (relative) are merged, and a polished
    candidate the cubic does not confirm (see `_confirmed`) is dropped.
    """
    if c3 == 0.0 and c2 == 0.0 and c1 == 0.0 and c0 == 0.0:
        raise ValueError("all cubic coefficients are zero")

    # Python floats: numpy scalars (spd_grid passes them) make every step slower
    c3, c2, c1, c0 = cubic = (float(c3), float(c2), float(c1), float(c0))
    # a leading coefficient negligible against the others makes the closed
    # form overflow; treat it as the degenerate lower-order case
    scale = max(abs(c) for c in cubic)
    if abs(c3) <= 1e-13 * scale:
        c3 = 0.0
    if c3 == 0.0 and abs(c2) <= 1e-13 * scale:
        c2 = 0.0
    if c3 == 0.0 and c2 == 0.0 and abs(c1) <= 1e-13 * scale:
        c1 = 0.0

    if c3 == 0.0:
        if c2 == 0.0:
            roots = [] if c1 == 0.0 else [-c0 / c1]
        else:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc < 0.0:
                roots = []
            else:
                q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1 if c1 != 0 else 1.0))
                roots = []
                if q != 0.0:
                    roots.append(c0 / q)
                if c2 != 0.0 and q != 0.0:
                    roots.append(q / c2)
                elif q == 0.0:
                    roots = [0.0, 0.0]
    else:
        # depressed cubic t^3 + pt + q with s = t - c2/(3 c3); rescale t by
        # lam so the classification cannot under/overflow for extreme inputs
        b, c, d = c2 / c3, c1 / c3, c0 / c3
        pp = c - b * b / 3.0
        qq = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
        shift = -b / 3.0
        lam = max(math.sqrt(abs(pp)), abs(qq) ** (1.0 / 3.0))
        if lam == 0.0:
            roots = [shift]
        else:
            pp /= lam * lam
            qq /= lam**3
            disc = -4.0 * pp**3 - 27.0 * qq * qq
            if disc > 0.0:
                # three distinct real roots (trigonometric form)
                m = 2.0 * math.sqrt(-pp / 3.0)
                arg = 3.0 * qq / (pp * m)
                arg = min(1.0, max(-1.0, arg))
                phi = math.acos(arg)
                roots = [m * math.cos((phi - 2.0 * math.pi * k) / 3.0)
                         for k in range(3)]
            elif disc == 0.0:
                if pp == 0.0:
                    roots = [0.0]
                else:
                    roots = [3.0 * qq / pp, -1.5 * qq / pp, -1.5 * qq / pp]
            else:
                # one real root (Cardano)
                half_q = -qq / 2.0
                rad = math.sqrt(qq * qq / 4.0 + pp**3 / 27.0)
                u = math.copysign(abs(half_q + rad) ** (1.0 / 3.0), half_q + rad)
                v = math.copysign(abs(half_q - rad) ** (1.0 / 3.0), half_q - rad)
                roots = [u + v]
            roots = [lam * r + shift for r in roots]

    coeffs = (c3, c2, c1, c0)
    polished = [_newton_polish(coeffs, r) for r in roots]
    out: list[float] = []
    # Newton started at a spurious double root (its pair went complex) can
    # run off to inf or NaN, and one started from a closed form that
    # cancelled can stop far from any root
    for r in sorted([r for r in polished
                     if 0.0 < r < math.inf and _confirmed(cubic, r, scale)]):
        if out and abs(r - out[-1]) <= ROOT_DEDUP_RTOL * max(abs(r), abs(out[-1])):
            continue
        out.append(r)
    return out


def _v_of_s(p: HyperbolicParams, s: float) -> float:
    return p.V0 / s**2 + p.A / s + p.B / (1.0 + s)


def _v2_of_s(p: HyperbolicParams, s: float) -> float:
    # d^2V/ds^2; sign matches d^2V/dx^2 at critical points since ds/dx > 0
    return 6.0 * p.V0 / s**4 + 2.0 * p.A / s**3 + 2.0 * p.B / (1.0 + s) ** 3


# The potential vanishes as x -> infinity: every term decays.
ASYMPTOTE = 0.0


def classify_phase(p: HyperbolicParams) -> SpectralPhase:
    """Classify the hyperbolic potential's spectral phase.

    Necessary-condition logic: a well minimum below the asymptote admits
    bound states; a barrier above the asymptote admits resonances. The
    exact sufficiency boundary is not decided here; two-critical-point
    configurations with a non-negative minimum but a positive barrier are
    tagged R heuristically.
    """
    roots = positive_real_roots(*critical_cubic(p))
    crit = [(s, _v_of_s(p, s), _v2_of_s(p, s)) for s in roots]
    minima = [(s, v) for s, v, v2 in crit if v2 > 0.0]
    maxima = [(s, v) for s, v, v2 in crit if v2 < 0.0]

    min_value = min((v for _, v in minima), default=None)
    has_well = min_value is not None and min_value < 0.0
    has_barrier = any(v > ASYMPTOTE for _, v in maxima)

    if has_well and len(roots) == 1:
        phase = Phase.B
    elif has_well and has_barrier:
        phase = Phase.BR
    elif has_well:
        phase = Phase.B
    elif has_barrier and min_value is not None and min_value >= 0.0:
        phase = Phase.R
    else:
        phase = Phase.S
        min_value = None

    return SpectralPhase(phase=phase, positive_roots=tuple(roots), min_value=min_value)


def spd_grid(V0: float, kappa: float, A_range: tuple[float, float],
             B_range: tuple[float, float], resolution: int | tuple[int, int]):
    """Phase classification over a rectangular (A, B) grid.

    Returns (A_values, B_values, phases, tra_rectangle) where phases is a
    (len(B), len(A)) array of Phase members and tra_rectangle holds the
    series-solution validity lines B = kappa^2/8 and A = V0.
    """
    if isinstance(resolution, int):
        res_a = res_b = resolution
    else:
        res_a, res_b = resolution
    if res_a < 2 or res_b < 2:
        raise ValueError("resolution must be >= 2 per axis")

    A_vals = np.linspace(A_range[0], A_range[1], res_a)
    B_vals = np.linspace(B_range[0], B_range[1], res_b)
    phases = np.empty((res_b, res_a), dtype=object)
    for i, B in enumerate(B_vals):
        for j, A in enumerate(A_vals):
            phases[i, j] = classify_phase(
                HyperbolicParams(V0=V0, A=A, B=B, kappa=kappa)).phase
    rectangle = {"B_max": kappa**2 / 8.0, "A_max": V0}
    return A_vals, B_vals, phases, rectangle
