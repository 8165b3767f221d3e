"""Generalized Pöschl-Teller potential families and spectral-phase classification.

Hyperbolic family (semi-infinite line, x > 0):

    V(x) = V0/sinh^4(kx) + A/sinh^2(kx) + B/cosh^2(kx)

Trigonometric family (finite well, 0 < x < a, rho = pi/2a):

    V(x) = V0/cos^4(rho x) + C/cos^2(rho x) + D/sin^2(rho x)

and its mirror image V(a - x), which is isospectral.

Critical points of the hyperbolic potential are roots of a cubic in
s = sinh^2(kx). Two sign tests on that cubic's coefficients, one for a
well below the asymptote and one (its discriminant) for two critical
points, give the phase label (B / B&R / R / S) without finding a root.
The signs of two coefficients settle most nodes, so each test runs only
at the nodes whose label it decides. `spd_grid` returns the labels of a
grid as int8 indices into PHASES, filled a band of B rows at a time, so
no float temporary is grid-sized.
A label is a necessary condition: a well below the asymptote can hold
bound states, but a B well may hold no level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .errors import DomainError


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
    """Coefficients (c3, c2, c1, c0) of the critical-point cubic in s = sinh^2(kx);
    at a node where one overflows, those of the same cubic from (V0, A, B) / 8."""
    def cubic(V0, A, B):
        return (A + B, 2.0 * (V0 + A), 4.0 * V0 + A, 2.0 * V0)
    with np.errstate(over="ignore"):
        c = cubic(p.V0, p.A, p.B)
    big = ~functools.reduce(np.logical_and, map(np.isfinite, c))
    if big.any():
        scaled = cubic(p.V0 / 8, p.A / 8, p.B / 8)
        c = tuple(np.where(big, s, x) for s, x in zip(scaled, c))
    return c


# The potential vanishes as x -> infinity: every term decays.
ASYMPTOTE = 0.0
PHASES = np.array(list(Phase), dtype=object)


def classify_phase(p: HyperbolicParams):
    """Spectral phase of the hyperbolic potential: a Phase, or an object
    array of them when A and B are arrays (broadcast).

    With s = sinh^2(kx) > 0, V = V0/s^2 + A/s + B/(1+s), and dV/ds = 0 is
    c(s) = c3 s^3 + c2 s^2 + c1 s + c0 = 0 (`critical_cubic`). The label is
    read off two sign tests on c, homogeneous in (V0, A, B), so it is
    scale-free, and no root is computed:

    - well (V < 0 somewhere): s^2 (1+s) V = (A+B) s^2 + (V0+A) s + V0 is
      negative for some s > 0, i.e. c3 < 0, or c2 < 0 and c2^2 > 8 c3 c0;
    - two critical points: c3 > 0, c2 < 0 and the discriminant
      D = 18 c3 c2 c1 c0 - 4 c2^3 c0 + c2^2 c1^2 - 4 c3 c1^3 - 27 c3^2 c0^2
      is positive.

    Why this is exact: c0 = 2 V0 > 0 and c1 - c2/2 = 3 V0 > 0 (so c1 < 0
    implies c2 < 0), so by Descartes' rule of signs c has exactly one
    positive root when c3 < 0, and zero or two when c3 > 0: two when D > 0
    (three real roots) and c2 < 0 (the signs of c change). V starts at +inf
    as s -> 0. With a well and c3 > 0, V runs +inf -> below 0 -> above 0 ->
    0+, so a barrier follows the well: B&R. With a well otherwise, B.
    Without a well, two critical points are a minimum >= 0 followed by a
    higher maximum: R. Otherwise V has at most one critical point, or a
    double one (D = 0), and has no barrier: S.

    A leading coefficient |c3| <= 1e-13 max|c| counts as A + B = 0 wherever
    the sign of c3 is read, so a well is then B and no well S; c2^2 > 8 c3 c0
    reads c3 as it is. The products in the tests are formed from the
    mantissas and powers of 2 of c, so they hold for any finite c, and c
    comes scaled by 2^-3 at the nodes where it would overflow: exact but for
    bits below 2^-1019, which V0 or A, near 1.8e308 there, dwarf. Each
    product test runs only at the nodes whose label it decides; the signs
    of c3 and c2 label the rest.

    A label is a necessary condition: a well below the asymptote admits
    bound states, a barrier above it resonances, but a B well may hold no
    level.
    """
    return PHASES[_phase_codes(p)]


def _positive(c, *terms):
    """Whether the sum of k c3^n3 c2^n2 c1^n1 c0^n0 over the terms
    (k, (n3, n2, n1, n0)) is positive, at each node of the equal-length
    1-D arrays c = (c3, c2, c1, c0). Each product is taken over the
    mantissas and scaled by 2 to its power less the largest power among the
    products, so none under- or overflows."""
    # c = mant * 2^power with 0.5 <= |mant| < 1; a zero coefficient's power
    # is put far below any other's
    mant, power = zip(*map(np.frexp, c))
    power = [np.where(x != 0.0, y, -2**20) for x, y in zip(mant, power)]
    top = functools.reduce(np.maximum, (
        sum(n * y for y, n in zip(power, ns)) for _, ns in terms))
    total, m = np.zeros(np.shape(top)), np.empty(np.shape(top))
    e = np.empty_like(top)
    for k, ns in terms:
        m[...], e[...] = k, -top
        for x, y, n in zip(mant, power, ns):
            for _ in range(n):
                m *= x
                e += y
        total += np.ldexp(m, e, out=m)
    return total > 0.0


def _phase_codes(p: HyperbolicParams) -> np.ndarray:
    """`classify_phase`'s labels as int8 indices into PHASES (B, B&R, R, S),
    in the broadcast shape of A and B. c3 < 0 is B and c2 >= 0 with c3 not
    negative is S; c2^2 - 8 c3 c0 is formed only at the other nodes, and the
    discriminant only at those of them with c3 > 0 and no well."""
    c = critical_cubic(p)
    # |c3| <= 1e-13 max|c| counts as A + B = 0 (c3 need not enter the max:
    # when it is the largest, only c3 = 0 passes)
    cut = 1e-13 * np.maximum(np.maximum(abs(c[1]), abs(c[2])), abs(c[3]))
    c3_pos, c3_neg = c[0] > cut, c[0] < -cut
    c = [np.broadcast_to(x, c3_pos.shape) for x in c]
    codes = np.where(c3_neg, np.int8(0), np.int8(3))  # B, else S so far
    # c3 not negative and c2 < 0: a well where c2^2 - 8 c3 c0 > 0, B&R if
    # c3 > 0 and B if not
    test = ~c3_neg & (c[1] < 0.0)
    sub = [x[test] for x in c]
    well = _positive(sub, (1, (0, 2, 0, 0)), (-8, (1, 0, 0, 1)))
    pos = c3_pos[test]
    label = np.where(well, np.where(pos, 1, 0), 3)
    # no well and c3 > 0: R where the discriminant D > 0
    rest = pos & ~well
    label[rest] = np.where(_positive(
        [x[rest] for x in sub], (18, (1, 1, 1, 1)), (-4, (0, 3, 0, 1)),
        (1, (0, 2, 2, 0)), (-4, (1, 0, 3, 0)), (-27, (2, 0, 0, 2))), 2, 3)
    codes[test] = label
    return codes


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced nodes from lo to hi; a span past the float range is
    laid out at half scale and doubled, exact for normal floats."""
    if math.isinf(float(hi) - float(lo)):
        return 2.0 * np.linspace(lo / 2.0, hi / 2.0, n)
    return np.linspace(lo, hi, n)


# nodes that spd_grid labels at once, a band of whole B rows (at least one):
# it bounds the float temporaries of the classification
_BAND_NODES = 2**16


def spd_grid(V0: float, kappa: float, A_range: tuple[float, float],
             B_range: tuple[float, float], resolution: int):
    """Phase classification over a rectangular (A, B) grid with
    `resolution` nodes per axis.

    Returns (A_values, B_values, codes, tra_rectangle) where codes is a
    (len(B), len(A)) int8 array of indices into PHASES, labelled as
    `classify_phase` labels each node, a band of whole B rows (at most
    _BAND_NODES nodes, or one row) at a time; tra_rectangle holds the
    series-solution validity lines B = kappa^2/8 and A = V0.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    for name, bounds in (("A", A_range), ("B", B_range)):
        if not np.isfinite(bounds).all():
            raise ValueError(f"{name} must be finite")

    A_vals = _axis(*A_range, resolution)
    B_vals = _axis(*B_range, resolution)
    p = HyperbolicParams(V0=V0, A=A_vals, B=B_vals[:, None], kappa=kappa)
    codes = np.empty((len(B_vals), len(A_vals)), dtype=np.int8)
    rows = max(1, _BAND_NODES // len(A_vals))
    for i in range(0, len(B_vals), rows):
        codes[i:i + rows] = _phase_codes(replace(p, B=p.B[i:i + rows]))
    rectangle = {"B_max": kappa**2 / 8.0, "A_max": V0}
    return A_vals, B_vals, codes, rectangle
