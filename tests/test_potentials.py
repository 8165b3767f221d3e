import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbound.errors import DomainError
from ptbound.potentials import (
    ASYMPTOTE,
    HyperbolicParams,
    Phase,
    TrigParams,
    classify_phase,
    critical_cubic,
    eval_hyperbolic,
    eval_trig,
    spd_grid,
)

S1 = HyperbolicParams(V0=10.0, A=-20.0, B=-30.0, kappa=1.0)
S3 = TrigParams(V0=5.0, C=-10.0, D=2.0, a=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        HyperbolicParams(V0=-1.0, A=0.0, B=0.0, kappa=1.0)
    with pytest.raises(ValueError):
        HyperbolicParams(V0=1.0, A=0.0, B=0.0, kappa=0.0)
    with pytest.raises(ValueError):
        TrigParams(V0=1.0, C=0.0, D=-1.0, a=1.0)
    with pytest.raises(ValueError):
        TrigParams(V0=1.0, C=0.0, D=1.0, a=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_nonfinite(bad):
    hyperbolic = {"V0": 1.0, "A": 0.0, "B": 0.0, "kappa": 1.0}
    trig = {"V0": 1.0, "C": 0.0, "D": 1.0, "a": 1.0}
    for cls, good in ((HyperbolicParams, hyperbolic), (TrigParams, trig)):
        for name in good:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                cls(**{**good, name: bad})
    # spd_grid passes A and B as arrays
    with pytest.raises(ValueError, match="A must be finite"):
        HyperbolicParams(V0=1.0, A=np.array([0.0, bad]), B=np.zeros((2, 1)),
                         kappa=1.0)


def test_rho_derived_from_a():
    p = TrigParams(V0=1.0, C=0.0, D=1.0, a=2.5)
    assert p.rho == math.pi / 5.0


def test_eval_hyperbolic_unit_sinh():
    p = HyperbolicParams(V0=1.0, A=0.0, B=0.0, kappa=1.0)
    assert eval_hyperbolic(p, math.asinh(1.0)) == pytest.approx(1.0, abs=1e-14)


def test_eval_hyperbolic_identity_point():
    # sinh^2 = 1 implies cosh^2 = 2
    p = HyperbolicParams(V0=3.0, A=-1.5, B=4.0, kappa=2.0)
    x = math.asinh(1.0) / p.kappa
    assert eval_hyperbolic(p, x) == pytest.approx(3.0 - 1.5 + 2.0, abs=1e-12)


def test_eval_hyperbolic_s1_frozen():
    # direct high-precision evaluation of the closed formula at x = 1
    assert eval_hyperbolic(S1, 1.0) == pytest.approx(-21.837810578934068,
                                                     abs=1e-12)


def test_eval_hyperbolic_domain():
    with pytest.raises(DomainError):
        eval_hyperbolic(S1, 0.0)
    with pytest.raises(DomainError):
        eval_hyperbolic(S1, np.array([0.5, -1.0]))


def test_eval_hyperbolic_asymptote():
    assert abs(eval_hyperbolic(S1, 30.0 / S1.kappa) - ASYMPTOTE) <= 1e-12


def _mirror_trig(p, x):
    # V(a - x) written out: rho*a = pi/2 swaps sin and cos
    sn, cs = np.cos(p.rho * x), np.sin(p.rho * x)
    return p.V0 / cs**4 + p.C / cs**2 + p.D / sn**2


def test_eval_trig_midpoint():
    p = TrigParams(V0=2.0, C=-1.0, D=3.0, a=1.0)
    got = eval_trig(p, 0.5)
    assert got == pytest.approx(4 * 2.0 + 2 * (-1.0) + 2 * 3.0, abs=1e-12)
    assert _mirror_trig(p, 0.5) == pytest.approx(got, abs=1e-12)


def test_eval_trig_reflection():
    assert eval_trig(S3, 0.25) == pytest.approx(_mirror_trig(S3, 0.75), rel=1e-14)
    x = np.linspace(0.05, 0.95, 19)
    assert np.allclose(eval_trig(S3, x), _mirror_trig(S3, S3.a - x), rtol=1e-13)


def test_eval_trig_domain():
    with pytest.raises(DomainError):
        eval_trig(S3, 0.0)
    with pytest.raises(DomainError):
        eval_trig(S3, 1.0)


def test_critical_cubic():
    assert critical_cubic(S1) == (-50.0, -20.0, 20.0, 20.0)
    p = HyperbolicParams(V0=7.0, A=0.0, B=0.0, kappa=1.0)
    assert critical_cubic(p) == (0.0, 14.0, 28.0, 14.0)


def test_critical_cubic_constant_positive():
    # constant term is 2 V0 > 0 always
    for v0 in (0.5, 3.0, 100.0):
        assert critical_cubic(HyperbolicParams(v0, -1.0, 1.0, 1.0))[3] > 0


def exact_phase(V0, A, B):
    """Phase in exact rational arithmetic, by another route than the sign
    tests: V < 0 somewhere iff s^2 (1+s) V = (A+B) s^2 + (V0+A) s + V0
    changes sign at some s > 0, and the critical points of V are the
    positive roots of odd multiplicity of the critical cubic, counted by
    Sturm sequences (V is monotone through a double root)."""
    V0, A, B = (sympy.Rational(x) for x in (V0, A, B))

    def crossings(*coeffs):
        poly = sympy.Poly(coeffs, sympy.Symbol("s"), domain="QQ")
        return sum(f.count_roots(0) for f, k in poly.sqf_list()[1] if k % 2)

    well = crossings(A + B, V0 + A, V0) > 0
    two = crossings(A + B, 2 * (V0 + A), 4 * V0 + A, 2 * V0) == 2
    if well:
        return Phase.BR if two else Phase.B
    return Phase.R if two else Phase.S


def phase_of(V0, A, B):
    return classify_phase(HyperbolicParams(V0=V0, A=A, B=B, kappa=1.0))


# The positive real roots of the critical cubic are the critical points of
# V. The classifier counts them with two sign tests instead of finding them;
# the test_positive_real_roots_* tests hold that count, through the label,
# to exact arithmetic in the regimes that are hard for a root finder.


def test_positive_real_roots_cases():
    # no critical point, one (c3 < 0: the well's minimum), two with and
    # without a well
    for (V0, A, B), phase in [((5.0, 5.0, 5.0), Phase.S),
                              ((10.0, -20.0, -30.0), Phase.B),
                              ((1.0, -20.0, 30.0), Phase.BR),
                              ((1.0, -14.0, 57.0), Phase.R)]:
        assert phase_of(V0, A, B) is phase is exact_phase(V0, A, B)


def test_positive_real_roots_near_double_root():
    # (5, -20, 40) has a double root at s = 1: moving B down splits it into
    # a minimum >= 0 and a maximum (R), moving it up makes the pair complex
    for delta in (1e-3, 1e-6, 1e-9):
        assert phase_of(5.0, -20.0, 40.0 - delta) is Phase.R
        assert phase_of(5.0, -20.0, 40.0 + delta) is Phase.S
        assert exact_phase(5.0, -20.0, 40.0 - delta) is Phase.R
        assert exact_phase(5.0, -20.0, 40.0 + delta) is Phase.S


@pytest.mark.parametrize("coeffs", [
    (1.0, 1.0, -1.0 + 1e-9),
    (1.0, 0.0, 2.571749488061649e-09),
    (3.5, 0.0, 3.263243941448208e-08),
])
def test_positive_real_roots_unconfirmed_candidate(coeffs):
    # A + B small and positive, c2 and c1 positive: the cubic's signs do
    # not change, so there is no positive critical point however small c3
    assert phase_of(*coeffs) is Phase.S is exact_phase(*coeffs)


def test_positive_real_roots_small_c3():
    # A + B = +-1e-9 beside c2 = -38: for c3 > 0 a second critical point,
    # a barrier about 1e-10 high near s = 4e10, makes the well B&R
    assert phase_of(1.0, -20.0, 20.0 + 1e-9) is Phase.BR
    assert phase_of(1.0, -20.0, 20.0 - 1e-9) is Phase.B
    assert exact_phase(1.0, -20.0, 20.0 + 1e-9) is Phase.BR
    assert exact_phase(1.0, -20.0, 20.0 - 1e-9) is Phase.B


def test_positive_real_roots_tiny_root_beside_double_root():
    # the cubic of (V0, -1, 0) is -(s - 2 V0)(s + 1)^2: the well's minimum
    # is the tiny root 2 V0, beside a double root at -1; B = 2 adds a
    # barrier near s = 1 + sqrt(2)
    for V0 in (1e-200, 5e-239):
        assert critical_cubic(HyperbolicParams(V0, -1.0, 0.0, 1.0)) == (
            -1.0, 2.0 * (V0 - 1.0), 4.0 * V0 - 1.0, 2.0 * V0)
        assert phase_of(V0, -1.0, 0.0) is Phase.B is exact_phase(V0, -1.0, 0.0)
        assert phase_of(V0, -1.0, 2.0) is Phase.BR is exact_phase(V0, -1.0, 2.0)


@pytest.mark.parametrize("V0, A, B", [
    # 4 V0 overflows: A + B < 0 at the first node is a well
    (1e308, [-1e304, 0.0, 1e304], [-1e302, 0.0, 1e302]),
    (1.7976931348623157e308, [-1.7976931348623157e308, 0.0], [-1e300, 1e308]),
    # (5, -20, 40) and (1, -4, 1) scaled to the top of the range
    (5.0 * 2.0**1018, [-20.0 * 2.0**1018], [40.0 * 2.0**1018, 30.0 * 2.0**1018]),
    (4e307, [-1.6e308], [4e307]),
    # V0 / 8 would round to 0 at (A, B) = (-8u, 1) and (-16u, 2^1021), where
    # nothing overflows, beside nodes at A = 1.7e308 that do (u = 2^-1074)
    (1e-323, [-4e-323, 8e307, 1.7e308], [0.0, 1.0, 1.7e308]),
    (2e-323, [-8e-323, 1.7e308], [2.0**1021]),
    # V0 = u beside A and B near 2^1021: nothing overflows
    (5e-324, [-8e307, 0.0, 8e307], [-8e307, 0.0, 8e307]),
])
def test_classify_phase_near_overflow(V0, A, B):
    # the nodes whose critical cubic would overflow are scaled by a power
    # of 2 first, so no warning is raised and the labels stay exact
    A, B = np.array(A), np.array(B)[:, None]
    with np.errstate(over="raise", invalid="raise"):
        got = classify_phase(HyperbolicParams(V0=V0, A=A, B=B, kappa=1.0))
    assert got.tolist() == [[exact_phase(V0, a, b) for a in A] for b in B[:, 0]]


def test_positive_real_roots_lower_order():
    # A + B = 0: the cubic is a quadratic, a well without a barrier if
    # c2 < 0 and no critical point otherwise (two positive roots would need
    # c2 > 0 > c1, but c1 - c2/2 = 3 V0 > 0)
    assert phase_of(10.0, -20.0, 20.0) is Phase.B is exact_phase(10.0, -20.0, 20.0)
    assert phase_of(10.0, 5.0, -5.0) is Phase.S is exact_phase(10.0, 5.0, -5.0)
    # A = -V0, B = V0: c3 = c2 = 0, and c1 s + c0 has no positive root
    assert phase_of(4.0, -4.0, 4.0) is Phase.S is exact_phase(4.0, -4.0, 4.0)
    # |A + B| <= 1e-13 max|c| counts as A + B = 0: the barrier far out
    # that exact arithmetic finds is not reported
    assert phase_of(10.0, -20.0, 20.0 + 1e-12) is Phase.B
    assert exact_phase(10.0, -20.0, 20.0 + 1e-12) is Phase.BR
    # but within the cut a well still needs c2^2 > 8 c3 c0 on c3 as it is:
    # here (all exact binary values) A + B = 2^-46 and c2 = -2^-29 give
    # (V0 + A)^2 < 4 (A + B) V0, no well, and a monotone V
    V0, A, B = 1.0, -1.0 - 2.0**-30, 1.0 + 2.0**-30 + 2.0**-46
    assert A + B == 2.0**-46
    assert phase_of(V0, A, B) is Phase.S is exact_phase(V0, A, B)
    # no triple root: (s - r)^3 times c3 with c1 - c2/2 = 3 c0/2 forces
    # r (r + 1)^2 = 0


@settings(max_examples=150, deadline=None)
@given(st.floats(0.1, 40), st.floats(-60, 60), st.floats(-60, 60))
def test_positive_real_roots_residual(V0, A, B):
    # labels match exact arithmetic away from the phase boundaries, where
    # rounding decides; the boundaries have the explicit tests above
    label = exact_phase(V0, A, B)
    for dv0, da, db in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        for sign in (-1e-9, 1e-9):
            moved = (V0 * (1 + sign * dv0), A + sign * da * max(abs(A), 1.0),
                     B + sign * db * max(abs(B), 1.0))
            if exact_phase(*moved) is not label:
                return
    assert phase_of(V0, A, B) is label


@settings(max_examples=150, deadline=None)
@given(st.floats(0.1, 40), st.floats(-60, 60), st.floats(-60, 60))
def test_positive_real_roots_vs_numpy(V0, A, B):
    # against numpy.roots where its roots are well separated simple roots
    # away from 0, and A + B is not small (clustered or near-zero roots sit
    # on phase boundaries)
    if abs(A + B) < 1e-3:
        return
    ref = np.roots([A + B, 2.0 * (V0 + A), 4.0 * V0 + A, 2.0 * V0])
    real = sorted(r.real for r in ref if abs(r.imag) <= 1e-9 * max(1, abs(r)))
    if any(abs(r) <= 1e-5 for r in real) or any(
            abs(r - q) < 1e-5 for r, q in zip(real, real[1:])):
        return
    assert phase_of(V0, A, B) is oracle_phase(V0, A, B)


def test_classify_phase_examples():
    assert classify_phase(S1) is Phase.B
    p = HyperbolicParams(V0=5.0, A=5.0, B=5.0, kappa=1.0)
    assert classify_phase(p) is Phase.S


def test_classify_phase_evidence():
    # each label's shape, read off V on a fine grid: a well dips below the
    # asymptote, a barrier is a maximum above it
    x = np.geomspace(1e-3, 30.0, 20001)
    for (V0, A, B), phase in [((10.0, -20.0, -30.0), Phase.B),
                              ((1.0, -20.0, 30.0), Phase.BR),
                              ((1.0, -14.0, 57.0), Phase.R),
                              ((5.0, 5.0, 5.0), Phase.S)]:
        p = HyperbolicParams(V0=V0, A=A, B=B, kappa=1.0)
        assert classify_phase(p) is phase
        v = eval_hyperbolic(p, x)
        slope = np.sign(np.diff(v))
        peaks = np.flatnonzero((slope[:-1] > 0) & (slope[1:] < 0)) + 1
        assert (v.min() < ASYMPTOTE) == (phase in (Phase.B, Phase.BR))
        assert bool((v[peaks] > ASYMPTOTE).any()) == (phase in (Phase.BR, Phase.R))


def test_classify_phase_double_critical_point():
    # c = 10 (s - 1)^2 (2 s + 1) >= 0 for s > 0: V is monotone, and the
    # double root is no critical point (numpy.roots splits it and says R)
    p = HyperbolicParams(V0=5.0, A=-20.0, B=40.0, kappa=1.0)
    c3, c2, c1, c0 = critical_cubic(p)
    s = np.linspace(0.0, 5.0, 11)
    assert np.allclose(((c3 * s + c2) * s + c1) * s + c0,
                       10.0 * (s - 1.0) ** 2 * (2.0 * s + 1.0), rtol=0, atol=1e-12)
    assert classify_phase(p) is Phase.S


def test_classify_phase_far_apart_magnitudes():
    # V0, |A| and |B| up to 600 decades apart. The first case is R, and its
    # c spans 420 decades: in plain floating point the terms of D overflow,
    # or, with c divided by max|c|, all underflow to 0
    rng = np.random.default_rng(23)
    cases = [(4.515956337203186e-172, -3.743891500069849e+29,
              2.6997730275639682e+249)]
    for _ in range(300):
        e = rng.uniform(-300.0, 300.0, 3)
        sign = rng.choice([-1.0, 1.0], 2)
        cases.append((10.0 ** e[0], sign[0] * 10.0 ** e[1], sign[1] * 10.0 ** e[2]))
    assert exact_phase(*cases[0]) is Phase.R
    for V0, A, B in cases:
        c3, *rest = critical_cubic(HyperbolicParams(V0, A, B, 1.0))
        if 0.0 < abs(c3) <= 1e-13 * max(abs(c) for c in rest):
            continue  # counts as A + B = 0 (test_positive_real_roots_lower_order)
        assert phase_of(V0, A, B) is exact_phase(V0, A, B), (V0, A, B)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
def test_classify_phase_scale_free(scale):
    # V0, A and B scaled together scale c, and both sign tests are
    # homogeneous in c
    rng = np.random.default_rng(19)
    for V0 in rng.uniform(0.1, 40.0, 20):
        A, B = rng.uniform(-60.0, 60.0, (2, 100))
        plain = classify_phase(HyperbolicParams(V0, A, B, 1.0))
        scaled = classify_phase(HyperbolicParams(scale * V0, scale * A,
                                                 scale * B, 1.0))
        assert (scaled == plain).all()
    assert phase_of(1e200, -4e200, 1e200) is Phase.B is phase_of(1.0, -4.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 40), st.floats(-60, 60), st.floats(-60, 60),
       st.floats(0.2, 4))
def test_a_plus_b_nonnegative_never_bound(v0, a, b, kappa):
    # for A + B > 0, V -> (A + B)/s > 0 far out, so a well has a barrier
    # beyond it (B&R). Within the cut, which counts A + B as 0, a well is
    # B, as at A + B = 0, where V = ((V0 + A) s + V0) / (s^2 (1 + s)) dips
    # below 0 exactly when V0 + A < 0, as for (1, -2, 2)
    if a + b < 0:
        return
    p = HyperbolicParams(V0=v0, A=a, B=b, kappa=kappa)
    c3, *rest = critical_cubic(p)
    if abs(c3) <= 1e-13 * max(abs(c) for c in rest):
        assert (classify_phase(p) is Phase.B) == (
            exact_phase(v0, a, b) in (Phase.B, Phase.BR))
    else:
        assert classify_phase(p) is not Phase.B


def test_spd_grid_node_and_determinism():
    a_vals, b_vals, phases, rect = spd_grid(
        10.0, 1.0, (-40.0, 20.0), (-30.0, 10.0), 4)
    assert phases.shape == (4, 4)
    assert phases[0, 0] is Phase.B  # node (A, B) = (-40, -30)
    # rows run over B: (A, B) = (20, -50/3) is S, its transpose (-20, 10) is B
    assert phases[1, 3] is Phase.S and phases[3, 1] is Phase.B
    assert rect == {"B_max": 0.125, "A_max": 10.0}
    again = spd_grid(10.0, 1.0, (-40.0, 20.0), (-30.0, 10.0), 4)
    assert (again[2] == phases).all()


def test_spd_grid_resolution_validation():
    with pytest.raises(ValueError):
        spd_grid(10.0, 1.0, (-1.0, 1.0), (-1.0, 1.0), 1)


def oracle_phase(V0, A, B):
    """Phase from the critical cubic solved by numpy.roots, with the
    classifier's rule restated: a minimum below 0 is a well, a maximum
    above 0 a barrier; R needs a barrier over a non-negative minimum."""
    roots = np.roots([A + B, 2.0 * (V0 + A), 4.0 * V0 + A, 2.0 * V0])
    real = sorted(r.real for r in roots
                  if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > 0.0)
    crit = []
    for s in real:
        if not crit or abs(s - crit[-1]) > 1e-9 * s:
            crit.append(s)
    minima, maxima = [], []
    for s in crit:
        v = V0 / s**2 + A / s + B / (1.0 + s)
        v2 = 6.0 * V0 / s**4 + 2.0 * A / s**3 + 2.0 * B / (1.0 + s) ** 3
        (minima if v2 > 0.0 else maxima if v2 < 0.0 else []).append(v)
    well = bool(minima) and min(minima) < 0.0
    barrier = any(v > 0.0 for v in maxima)
    if well:
        return Phase.BR if barrier else Phase.B
    return Phase.R if barrier and minima else Phase.S


@pytest.mark.parametrize("V0", [0.7, 5.0, 10.0, 23.0])
def test_spd_grid_matches_numpy_roots(V0):
    rng = np.random.default_rng(int(V0 * 10))
    kappa = float(rng.uniform(0.5, 1.5))
    a_vals, b_vals, phases, _ = spd_grid(V0, kappa, (-60.0, 40.0),
                                         (-60.0, 40.0), 60)
    bad = [(a, b) for i, b in enumerate(b_vals) for j, a in enumerate(a_vals)
           if phases[i, j] is not oracle_phase(V0, a, b)]
    assert bad == []


def test_classify_phase_near_anti_diagonal():
    # c3 = A + B within 1e-6 of 0: the closed form cancels here
    rng = np.random.default_rng(2024)
    for _ in range(400):
        V0 = float(rng.uniform(0.5, 40.0))
        A = float(rng.uniform(-60.0, 40.0))
        B = -A + float(rng.uniform(-1e-6, 1e-6))
        p = HyperbolicParams(V0=V0, A=A, B=B, kappa=1.0)
        assert classify_phase(p) is oracle_phase(V0, A, B), (V0, A, B)


def test_spd_grid_anti_diagonal_on_nodes():
    # A = -B exactly on 101 nodes: c3 = 0 there, the quadratic branch
    a_vals, b_vals, phases, _ = spd_grid(10.0, 1.0, (-50.0, 50.0),
                                         (-50.0, 50.0), 101)
    nodes = [(i, j) for i in range(101) for j in range(101)
             if a_vals[j] + b_vals[i] == 0.0]
    assert len(nodes) == 101
    for i, j in nodes:
        assert phases[i, j] is oracle_phase(10.0, a_vals[j], b_vals[i])


def test_classify_phase_linear_branch():
    # A = -V0, B = V0: c3 = c2 = 0, and the one root -2/3 is not positive
    p = HyperbolicParams(V0=4.0, A=-4.0, B=4.0, kappa=1.0)
    assert classify_phase(p) is Phase.S is oracle_phase(4.0, -4.0, 4.0)


def test_spd_grid_block_matches_point():
    # a node classified with the whole grid gets the same label as alone
    V0, kappa = 7.5, 1.2
    a_vals, b_vals, phases, _ = spd_grid(V0, kappa, (-60.0, 40.0),
                                         (-60.0, 40.0), 45)
    rng = np.random.default_rng(5)
    for i, j in rng.integers(0, 45, size=(60, 2)):
        alone = classify_phase(HyperbolicParams(V0, a_vals[j], b_vals[i], kappa))
        assert phases[i, j] is alone
