import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from conftest import jacobi_q_norm

from ptbound import orthopoly as op
from ptbound.errors import (
    AdmissibilityError,
    SingularParameterError,
)


@st.composite
def admissible(draw, max_degree=5):
    """Random (JacobiParams, n) in the admissibility window."""
    n_max = draw(st.integers(0, max_degree))
    mu = draw(st.floats(-0.9, 3.0))
    slack = draw(st.floats(0.05, 8.0))
    nu = -mu - 2 * n_max - 1 - slack
    n = draw(st.integers(0, n_max))
    return op.JacobiParams(mu=mu, nu=nu, N=n_max), n


def hyp_sum(mu, nu, n, y):
    """Independent terminating-sum oracle; returns (value, cancellation scale)."""
    total, mag = 0.0, 0.0
    for k in range(n + 1):
        term = (op.pochhammer(-n, k) * op.pochhammer(n + mu + nu + 1, k)
                / (op.pochhammer(mu + 1, k) * math.factorial(k))
                * ((1.0 - y) / 2.0) ** k)
        total += term
        mag += abs(term)
    pre = op.pochhammer(mu + 1, n) / math.factorial(n)
    return pre * total, abs(pre) * mag


def test_admissibility_window():
    with pytest.raises(AdmissibilityError):
        op.JacobiParams(mu=-1.0, nu=-10.0, N=2)
    with pytest.raises(AdmissibilityError):
        op.JacobiParams(mu=0.5, nu=-3.0, N=1)  # mu + nu = -2.5 >= -3
    op.JacobiParams(mu=0.5, nu=-4.0, N=1)


def test_q0_is_one():
    jp = op.JacobiParams(mu=0.3, nu=-9.0, N=3)
    assert op.jacobi_q(0, jp, 5.0) == 1.0


def test_q1_explicit():
    jp = op.JacobiParams(mu=0.7, nu=-6.0, N=1)
    mu, nu = jp.mu, jp.nu
    for y in (1.0, 2.5, 40.0):
        expect = (mu + 1) + (mu + nu + 2) * (y - 1) / 2.0
        assert op.jacobi_q(1, jp, y) == pytest.approx(expect, rel=1e-13)
    assert op.jacobi_q(1, jp, 1.0) == pytest.approx(mu + 1, rel=1e-13)


def test_degree_window_enforced():
    jp = op.JacobiParams(mu=0.0, nu=-8.0, N=2)
    with pytest.raises(AdmissibilityError):
        op.jacobi_q(3, jp, 2.0)


@settings(max_examples=200, deadline=None)
@given(admissible(), st.floats(1.0, 100.0))
def test_recursion_matches_hypergeometric(case, y):
    jp, n = case
    q_rec = op.jacobi_q(n, jp, y)
    q_hyp = op.jacobi_q_oracle(n, jp, y)
    assert abs(q_rec - q_hyp) <= 1e-10 * max(1.0, abs(q_hyp))


def test_oracle_log_spaced_grid():
    jp = op.JacobiParams(mu=-0.3, nu=-12.0, N=4)
    for n in range(jp.N + 1):
        for y in np.logspace(0.0, 3.0, 25):
            a = op.jacobi_q(n, jp, y)
            b = op.jacobi_q_oracle(n, jp, y)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@settings(max_examples=100, deadline=None)
@given(admissible(max_degree=4), st.floats(-20.0, 20.0))
def test_parity_identity(case, y):
    jp, n = case
    direct, mag1 = hyp_sum(jp.mu, jp.nu, n, y)
    swapped, mag2 = hyp_sum(jp.nu, jp.mu, n, -y)
    scale = max(mag1, mag2, 1.0)
    assert abs(direct - (-1.0) ** n * swapped) <= 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(admissible(), st.floats(1.5, 20.0))
@example(case=(op.JacobiParams(mu=-0.5635259574721794, nu=-2.561474042527821,
                               N=1), 1), y=17.0)
@example(case=(op.JacobiParams(mu=0.0, nu=-3.05, N=1), 1), y=19.0)
def test_differential_equation_residual(case, y):
    jp, n = case
    mu, nu = jp.mu, jp.nu
    h = 1e-3 * y  # a step relative to y keeps the round-off below the bound
    f = np.array([op.jacobi_q(n, jp, y + m * h) for m in (-2, -1, 0, 1, 2)])
    qp = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    qpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    terms = ((y * y - 1) * qpp, ((mu + nu + 2) * y + mu - nu) * qp,
             -n * (n + mu + nu + 1) * f[2])
    scale = max(1.0, *(abs(t) for t in terms))
    assert abs(sum(terms)) <= 1e-7 * scale


def _weighted_inner(jp, n, m, scale):
    def integrand(y):
        return ((y - 1.0) ** jp.mu * (y + 1.0) ** jp.nu
                * op.jacobi_q(n, jp, y) * op.jacobi_q(m, jp, y))
    val, _ = integrate.quad(integrand, 1.0, np.inf, limit=500,
                            epsabs=1e-11 * scale, epsrel=1e-11)
    return val


GRAM_CASES = [op.JacobiParams(mu=-0.3, nu=-8.4, N=3),
              op.JacobiParams(mu=0.6, nu=-10.5, N=3),
              op.JacobiParams(mu=1.8, nu=-16.7, N=4)]


@pytest.mark.parametrize("jp", GRAM_CASES)
def test_orthogonality_gram(jp):
    norms = [jacobi_q_norm(n, jp) for n in range(jp.N + 1)]
    for n in range(jp.N + 1):
        assert norms[n] > 0.0
        quad_norm = _weighted_inner(jp, n, n, norms[n])
        assert quad_norm == pytest.approx(norms[n], rel=1e-6)
        for m in range(n):
            geo = math.sqrt(norms[n] * norms[m])
            leak = _weighted_inner(jp, n, m, geo)
            assert abs(leak) <= 1e-8 * geo


@settings(max_examples=100, deadline=None)
@given(admissible())
def test_norm_positive(case):
    jp, n = case
    try:
        norm = jacobi_q_norm(n, jp)
    except SingularParameterError:
        assume(False)  # integer nu lands on a Gamma pole, a documented error
    assert norm > 0.0


def test_pochhammer():
    assert op.pochhammer(3.0, 0) == 1.0
    assert op.pochhammer(3.0, 3) == 60.0
    assert op.pochhammer(-2.0, 3) == 0.0
    assert op.pochhammer(-1.5, 2) == pytest.approx(0.75)
