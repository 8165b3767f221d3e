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


def test_eval_trig_midpoint():
    p = TrigParams(V0=2.0, C=-1.0, D=3.0, a=1.0)
    got = eval_trig(p, 0.5)
    assert got == pytest.approx(4 * 2.0 + 2 * (-1.0) + 2 * 3.0, abs=1e-12)
    assert eval_trig(p, 0.5, reflected=True) == pytest.approx(got, abs=1e-12)


def test_eval_trig_reflection():
    assert eval_trig(S3, 0.25, reflected=False) == pytest.approx(
        eval_trig(S3, 0.75, reflected=True), rel=1e-14)
    x = np.linspace(0.05, 0.95, 19)
    assert np.allclose(eval_trig(S3, x), eval_trig(S3, S3.a - x, reflected=True),
                       rtol=1e-13)


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
        10.0, 1.0, (-20.0, 0.0), (-30.0, 0.0), (3, 4))
    assert phases.shape == (4, 3)
    assert phases[0, 0] is Phase.B  # node (A, B) = (-20, -30)
    assert rect == {"B_max": 0.125, "A_max": 10.0}
    again = spd_grid(10.0, 1.0, (-20.0, 0.0), (-30.0, 0.0), (3, 4))
    assert (again[2] == phases).all()


def test_spd_grid_resolution_validation():
    with pytest.raises(ValueError):
        spd_grid(10.0, 1.0, (-1.0, 1.0), (-1.0, 1.0), 1)
