"""Generalized Pöschl-Teller potential families and spectral-phase classification.

Hyperbolic family (semi-infinite line, x > 0):

    V(x) = V0/sinh^4(kx) + A/sinh^2(kx) + B/cosh^2(kx)

Trigonometric family (finite well, 0 < x < a, rho = pi/2a):

    V(x) = V0/cos^4(rho x) + C/cos^2(rho x) + D/sin^2(rho x)

and its mirror image V(a - x), which is isospectral.

Critical points of the hyperbolic potential are roots of a cubic in
s = sinh^2(kx); the sign pattern of that cubic drives the phase
classification (B / B&R / R / S), a necessary condition: a well below
the asymptote can hold bound states, but a B well may hold no level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import DomainError

# Double roots of the critical cubic sit on phase boundaries; collapse
# them toward the fewer-roots phase.
ROOT_DEDUP_RTOL = 1e-9
# A root must leave a residual of at most this times max|c| * max(1, s)^3.
ROOT_RESIDUAL_RTOL = 1e-10


def _check_finite(params) -> None:
    """ValueError if a field is, or (an array field) holds, inf or nan."""
    for f in fields(params):
        if not np.isfinite(getattr(params, f.name)).all():
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class HyperbolicParams:
    """Parameters of the hyperbolic family (atomic units)."""

    V0: float
    A: float
    B: float
    kappa: float

    def __post_init__(self):
        _check_finite(self)
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
        _check_finite(self)
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
    """Spectral phase of the hyperbolic potential (a necessary condition)."""

    B = "B"        # a well below the asymptote, no barrier above it
    BR = "B&R"     # a well below the asymptote and a barrier above it
    R = "R"        # a barrier above the asymptote, no well below it
    S = "S"        # neither: scattering states only


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
    # sinh overflows for large arguments (every term then underflows to 0, the
    # asymptote) or underflows to 0 (inf or nan, rejected by the solvers)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.sinh(p.kappa * x) ** 2
        out = p.V0 / s**2 + p.A / s + p.B / (1.0 + s)
    return out if out.ndim else float(out)


def eval_trig(p: TrigParams, x):
    """Evaluate the trigonometric potential at 0 < x < a."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= p.a):
        raise DomainError("trigonometric potential requires 0 < x < a")
    u = p.rho * x
    sn, cs = np.sin(u), np.cos(u)
    out = p.V0 / cs**4 + p.C / cs**2 + p.D / sn**2
    return out if out.ndim else float(out)


def critical_cubic(p: HyperbolicParams) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the critical-point cubic in s = sinh^2(kx)."""
    return (p.A + p.B, 2.0 * (p.V0 + p.A), 4.0 * p.V0 + p.A, 2.0 * p.V0)


def _newton_polish(cubic, r, steps=40):
    """Newton steps from every finite candidate r[i, j] toward a root of the
    cubic with coefficients cubic[:, i]. Each candidate stops on its own rule,
    and only the unfinished ones are stepped."""
    r = r.copy()
    flat = r.reshape(-1)
    active = np.flatnonzero(np.isfinite(flat))
    c3, c2, c1, c0 = np.repeat(cubic, r.shape[1], axis=1)[:, active]
    x = flat[active]
    for _ in range(steps):
        if not active.size:
            break
        f = ((c3 * x + c2) * x + c1) * x + c0
        df = (3.0 * c3 * x + 2.0 * c2) * x + c1
        go = np.flatnonzero((df != 0.0) & (f != 0.0))
        step = f[go] / df[go]
        x = x[go] - step
        flat[active[go]] = x
        # a non-finite iterate stays non-finite, and is dropped later
        more = np.abs(step) > 1e-15 * np.maximum(np.abs(x), 1.0)
        keep = go[more]
        active, x = active[keep], x[more]
        c3, c2, c1, c0 = c3[keep], c2[keep], c1[keep], c0[keep]
    return r


def _quadratic_roots(a, b, c):
    """Both real roots of a s^2 + b s + c (a != 0) in the cancellation-free
    form, as an (n, 2) array; NaN where they are complex."""
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(disc), np.where(b != 0.0, b, 1.0)))
    return np.stack([c / q, q / a], axis=1)


def _dominant_root(c3, c2, c1, c0):
    """The closed-form real root of largest magnitude of each cubic with
    c3 != 0 (the simple one beside a double root), and the mask of triple
    roots, which are not deflated."""
    # depressed cubic t^3 + pt + q with s = t - c2/(3 c3); rescale t by
    # lam so the classification cannot under/overflow for extreme inputs
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    pp = c - b * b / 3.0
    qq = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    lam = np.maximum(np.sqrt(np.abs(pp)), np.abs(qq) ** (1.0 / 3.0))
    pp /= lam * lam
    qq /= lam**3
    disc = -4.0 * pp**3 - 27.0 * qq * qq
    # three distinct real roots (trigonometric form)
    m = 2.0 * np.sqrt(-pp / 3.0)
    phi = np.arccos(np.clip(3.0 * qq / (pp * m), -1.0, 1.0))
    trig = m[:, None] * np.cos((phi[:, None] - 2.0 * np.pi * np.arange(3)) / 3.0)
    # the simple root beside a double root, else the one real root (Cardano)
    half_q = -qq / 2.0
    rad = np.sqrt(qq * qq / 4.0 + pp**3 / 27.0)
    u = np.copysign(np.abs(half_q + rad) ** (1.0 / 3.0), half_q + rad)
    v = np.copysign(np.abs(half_q - rad) ** (1.0 / 3.0), half_q - rad)
    one = np.where(disc == 0.0, 3.0 * qq / pp, u + v)
    t = np.where((disc > 0.0)[:, None], trig, one[:, None])
    s = lam[:, None] * t + shift[:, None]
    flat = lam == 0.0
    s[flat] = shift[flat, None]
    return np.take_along_axis(s, np.abs(s).argmax(axis=1)[:, None], 1)[:, 0], flat


def _real_roots(c3, c2, c1, c0):
    """Real roots s > 0 of c3 s^3 + c2 s^2 + c1 s + c0 for each element of the
    1-D coefficient arrays: an (n, 3) array, ascending per row, NaN-padded.

    The closed form (discriminant classification of the depressed cubic)
    gives the root of largest magnitude; the other two are the roots of the
    quadratic left after deflating by it, since for small c3 the closed form
    cancels and can report one root where there are three. Every candidate
    gets a Newton polish on the cubic. Degenerate leading coefficients fall
    back to the quadratic/linear case.
    Roots closer than ROOT_DEDUP_RTOL (relative) are merged, and a polished
    candidate the cubic does not confirm is dropped: its residual must be at
    most ROOT_RESIDUAL_RTOL * max|c| * max(1, s)^3.
    """
    cubic = np.array(np.broadcast_arrays(c3, c2, c1, c0), dtype=float).reshape(4, -1)
    scale = np.abs(cubic).max(axis=0)
    if not scale.all():
        raise ValueError("all cubic coefficients are zero")
    # a leading coefficient negligible against the others makes the closed
    # form overflow; treat it as the degenerate lower-order case
    cut = cubic.copy()
    c3, c2, c1, c0 = cut
    c3[np.abs(c3) <= 1e-13 * scale] = 0.0
    c2[(c3 == 0.0) & (np.abs(c2) <= 1e-13 * scale)] = 0.0
    c1[(c3 == 0.0) & (c2 == 0.0) & (np.abs(c1) <= 1e-13 * scale)] = 0.0

    r = np.full((len(scale), 3), np.nan)
    with np.errstate(all="ignore"):
        lin = (c3 == 0.0) & (c2 == 0.0) & (c1 != 0.0)
        r[lin, 0] = -c0[lin] / c1[lin]
        quad = (c3 == 0.0) & (c2 != 0.0)
        r[quad, :2] = _quadratic_roots(c2[quad], c1[quad], c0[quad])
        cub = np.flatnonzero(c3 != 0.0)
        r[cub, 0], flat = _dominant_root(c3[cub], c2[cub], c1[cub], c0[cub])
        r = _newton_polish(cut, r)
        # the other two roots: backward deflation by the polished dominant
        # root is stable, and their quadratic cannot cancel as the closed
        # form does for small c3
        rows = cub[~flat]
        r1 = r[rows, 0]
        b0 = -c0[rows] / r1
        b1 = (b0 - c1[rows]) / r1
        r[rows, 1:] = _newton_polish(cut[:, rows],
                                     _quadratic_roots(c3[rows], b1, b0))

        # Newton started at a spurious double root (its pair went complex)
        # can run off to inf or NaN, and one started from a closed form that
        # cancelled can stop far from any root
        o3, o2, o1, o0 = cubic[:, :, None]
        resid = np.where(r <= 1.0, ((o3 * r + o2) * r + o1) * r + o0,
                         ((o0 / r + o1) / r + o2) / r + o3)  # no overflow
        ok = (r > 0.0) & (r < np.inf) & (
            np.abs(resid) <= ROOT_RESIDUAL_RTOL * scale[:, None])
    r = np.sort(np.where(ok, r, np.nan), axis=1)
    last = r[:, 0]
    for j in (1, 2):
        dup = (np.abs(r[:, j] - last)
               <= ROOT_DEDUP_RTOL * np.maximum(np.abs(r[:, j]), np.abs(last)))
        r[dup, j] = np.nan
        last = np.where(np.isnan(r[:, j]), last, r[:, j])
    return np.sort(r, axis=1)


def positive_real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """All real roots s > 0 of c3 s^3 + c2 s^2 + c1 s + c0, ascending (see
    `_real_roots`)."""
    return [float(s) for s in _real_roots(c3, c2, c1, c0)[0] if s == s]


# The potential vanishes as x -> infinity: every term decays.
ASYMPTOTE = 0.0
PHASES = np.array(list(Phase), dtype=object)
# B rows classified at once by spd_grid; bounds its temporary arrays
SPD_BLOCK_ROWS = 20


def _phases(p: HyperbolicParams):
    """Phase of every (A, B) in p, whose A and B may be arrays (broadcast).

    Returns flat arrays: indices into PHASES, the (n, 3) NaN-padded roots of
    the critical cubic, and the well minimum (NaN for S).
    """
    V0, A, B, *cubic = np.broadcast_arrays(p.V0, p.A, p.B, *critical_cubic(p))
    s = _real_roots(*(np.ravel(c) for c in cubic))
    V0, A, B = (np.ravel(x)[:, None] for x in (V0, A, B))
    with np.errstate(all="ignore"):
        v = V0 / s**2 + A / s + B / (1.0 + s)
        # d^2V/ds^2; sign matches d^2V/dx^2 at critical points since ds/dx > 0
        v2 = 6.0 * V0 / s**4 + 2.0 * A / s**3 + 2.0 * B / (1.0 + s) ** 3
    minimum = v2 > 0.0
    has_min = minimum.any(axis=1)
    min_value = np.where(minimum, v, np.inf).min(axis=1)
    well = has_min & (min_value < 0.0)
    barrier = ((v2 < 0.0) & (v > ASYMPTOTE)).any(axis=1)
    # indices into PHASES (B, B&R, R, S). A well and a barrier need two
    # distinct roots; without a well, a barrier over a non-negative minimum is R
    code = np.select([well & barrier, well, barrier & has_min], [1, 0, 2], 3)
    return code, s, np.where(code == 3, np.nan, min_value)


def classify_phase(p: HyperbolicParams) -> SpectralPhase:
    """Classify the hyperbolic potential's spectral phase.

    Necessary-condition logic: a well minimum below the asymptote admits
    bound states; a barrier above the asymptote admits resonances. The
    exact sufficiency boundary is not decided here; two-critical-point
    configurations with a non-negative minimum but a positive barrier are
    tagged R heuristically.
    """
    code, roots, min_value = _phases(p)
    phase = PHASES[code[0]]
    return SpectralPhase(
        phase=phase, positive_roots=tuple(float(s) for s in roots[0] if s == s),
        min_value=None if phase is Phase.S else float(min_value[0]))


def spd_grid(V0: float, kappa: float, A_range: tuple[float, float],
             B_range: tuple[float, float], resolution: int):
    """Phase classification over a rectangular (A, B) grid with
    `resolution` nodes per axis.

    Returns (A_values, B_values, phases, tra_rectangle) where phases is a
    (len(B), len(A)) array of Phase members and tra_rectangle holds the
    series-solution validity lines B = kappa^2/8 and A = V0.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    for name, bounds in (("A", A_range), ("B", B_range)):
        if not np.isfinite(bounds).all():
            raise ValueError(f"{name} must be finite")

    A_vals = np.linspace(A_range[0], A_range[1], resolution)
    B_vals = np.linspace(B_range[0], B_range[1], resolution)
    phases = np.empty((resolution, resolution), dtype=object)
    for i in range(0, resolution, SPD_BLOCK_ROWS):
        rows = slice(i, i + SPD_BLOCK_ROWS)
        p = HyperbolicParams(V0=V0, A=A_vals, B=B_vals[rows, None], kappa=kappa)
        phases[rows] = PHASES[_phases(p)[0]].reshape(-1, resolution)
    rectangle = {"B_max": kappa**2 / 8.0, "A_max": V0}
    return A_vals, B_vals, phases, rectangle
