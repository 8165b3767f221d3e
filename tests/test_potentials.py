import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbound.errors import DomainError
from ptbound.potentials import (
    ASYMPTOTE,
    HyperbolicParams,
    Phase,
    _phases,
    TrigParams,
    classify_phase,
    critical_cubic,
    eval_hyperbolic,
    eval_trig,
    positive_real_roots,
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


def test_positive_real_roots_cases():
    assert positive_real_roots(0.0, 2.0, 4.0, 2.0) == []
    assert np.allclose(positive_real_roots(1.0, -6.0, 11.0, -6.0),
                       [1.0, 2.0, 3.0])
    assert len(positive_real_roots(*critical_cubic(S1))) == 1


def test_positive_real_roots_near_double_root():
    # the closed form sees a double root at 0 whose pair is complex; Newton
    # from there runs off to NaN, which must not be reported as a root
    assert positive_real_roots(1.0, 1.0, 1.776015632033046e-238,
                               1.5554858616727102e-21) == []
    assert positive_real_roots(1.0, 1.0, 4.645334400100871e-268,
                               7.763637517537695e-30) == []


@pytest.mark.parametrize("coeffs", [
    (1e-9, 3.0, 1.0, 1.0),
    (2.571749488061649e-09, 1.0, 0.0, 2.0),
    (3.263243941448208e-08, 7.0, 0.0, 1.0),
])
def test_positive_real_roots_unconfirmed_candidate(coeffs):
    # a small c3 makes the closed form cancel; Newton from its candidates
    # stops where the cubic is far from zero, and no positive root exists
    assert positive_real_roots(*coeffs) == []


def test_positive_real_roots_small_c3():
    # the closed form cancels for small c3 and sees one real root; the
    # other two come from deflating by it (numpy.roots: 2.17e9, 4.32, -1.32)
    roots = positive_real_roots(2.3250014162161796e-09, -5.050893521126184,
                                15.15929727227629, 28.872335113551316)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(4.3234635608495, rel=1e-12)
    assert roots[1] == pytest.approx(2172425994.6336737, rel=1e-12)


def test_positive_real_roots_tiny_root_beside_double_root():
    # the closed form sees a double root at 0; Newton from there runs off,
    # while the quadratic left after deflation holds the root 3.94e-11
    roots = positive_real_roots(1.0, 1.0, 1.776015632033046e-238,
                                -1.5554858616727102e-21)
    assert roots == [pytest.approx(3.943964834543232e-11, rel=1e-12)]


def test_positive_real_roots_lower_order():
    assert positive_real_roots(0.0, 0.0, 2.0, -4.0) == [2.0]
    assert positive_real_roots(0.0, 1.0, -3.0, 2.0) == [1.0, 2.0]
    assert positive_real_roots(1.0, -3.0, 3.0, -1.0) == [1.0]  # triple root
    with pytest.raises(ValueError):
        positive_real_roots(0.0, 0.0, 0.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
       st.floats(-50, 50))
def test_positive_real_roots_residual(c3, c2, c1, c0):
    if max(abs(c) for c in (c3, c2, c1, c0)) < 1e-6:
        return
    roots = positive_real_roots(c3, c2, c1, c0)
    scale = max(abs(c) for c in (c3, c2, c1, c0))
    for r in roots:
        resid = ((c3 * r + c2) * r + c1) * r + c0
        assert abs(resid) <= 1e-10 * scale * max(1.0, abs(r)) ** 3


@settings(max_examples=150, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
       st.floats(-50, 50))
def test_positive_real_roots_vs_numpy(c3, c2, c1, c0):
    coeffs = (c3, c2, c1, c0)
    if max(abs(c) for c in coeffs) < 1e-3 or abs(c3) < 1e-3:
        return
    got = [r for r in positive_real_roots(*coeffs) if r > 1e-6]
    ref = np.roots(coeffs)
    # well-separated simple real positive roots only; clustered or
    # near-zero roots sit on classification boundaries and are skipped
    all_real = [r.real for r in ref if abs(r.imag) <= 1e-9 * max(1, abs(r))]
    if any(abs(r) <= 1e-5 for r in all_real):
        return
    real = sorted(r for r in all_real if r > 0)
    if len(real) > 1 and min(abs(real[i + 1] - real[i])
                             for i in range(len(real) - 1)) < 1e-5:
        return
    assert len(got) == len(real)
    for g, r in zip(got, real):
        assert abs(g - r) <= 1e-6 * max(1.0, abs(r))


def test_classify_phase_examples():
    assert classify_phase(S1).phase is Phase.B
    p = HyperbolicParams(V0=5.0, A=5.0, B=5.0, kappa=1.0)
    assert classify_phase(p).phase is Phase.S


def test_classify_phase_evidence():
    res = classify_phase(S1)
    assert len(res.positive_roots) == 1
    assert res.min_value is not None and res.min_value < 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 40), st.floats(-60, 60), st.floats(-60, 60),
       st.floats(0.2, 4))
def test_a_plus_b_nonnegative_never_bound(v0, a, b, kappa):
    if a + b < 0:
        return
    p = HyperbolicParams(V0=v0, A=a, B=b, kappa=kappa)
    assert classify_phase(p).phase is not Phase.B


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
        assert classify_phase(p).phase is oracle_phase(V0, A, B), (V0, A, B)


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
    res = classify_phase(HyperbolicParams(V0=4.0, A=-4.0, B=4.0, kappa=1.0))
    assert res.phase is Phase.S is oracle_phase(4.0, -4.0, 4.0)
    assert res.positive_roots == () and res.min_value is None


def test_spd_grid_block_matches_point():
    # a node classified inside its block gives the same evidence as alone
    V0, kappa = 7.5, 1.2
    a_vals, b_vals, phases, _ = spd_grid(V0, kappa, (-60.0, 40.0),
                                         (-60.0, 40.0), 45)
    codes, roots, min_value = _phases(HyperbolicParams(
        V0=V0, A=a_vals, B=b_vals[:, None], kappa=kappa))
    rng = np.random.default_rng(5)
    for i, j in rng.integers(0, 45, size=(60, 2)):
        alone = classify_phase(HyperbolicParams(V0, a_vals[j], b_vals[i], kappa))
        k = i * 45 + j
        assert phases[i, j] is alone.phase
        assert alone.positive_roots == tuple(roots[k][~np.isnan(roots[k])])
        expected = None if np.isnan(min_value[k]) else min_value[k]
        assert alone.min_value == expected
