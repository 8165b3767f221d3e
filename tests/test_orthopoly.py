"""The Jacobi polynomials Q_n of the series basis, as `tra._q_forward`
evaluates them, against the hypergeometric sum and Gamma-form norm in
conftest."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from conftest import hyp_sum, jacobi_q_norm, pochhammer

from ptbound.errors import TraValidityError
from ptbound.tra import _q_forward


@st.composite
def admissible(draw, max_degree=5):
    """Random (mu, nu, n) with mu > -1 and mu + nu < -2N - 1 for some
    N >= n, the window where Q_0 .. Q_N are orthogonal."""
    n_max = draw(st.integers(0, max_degree))
    mu = draw(st.floats(-0.9, 3.0))
    slack = draw(st.floats(0.05, 8.0))
    nu = -mu - 2 * n_max - 1 - slack
    n = draw(st.integers(0, n_max))
    return mu, nu, n


def test_q0_is_one():
    assert _q_forward(0, 0.3, -9.0, 5.0)[-1] == 1.0


def test_q1_explicit():
    mu, nu = 0.7, -6.0
    for y in (1.0, 2.5, 40.0):
        expect = (mu + 1) + (mu + nu + 2) * (y - 1) / 2.0
        assert _q_forward(1, mu, nu, y)[-1] == pytest.approx(expect, rel=1e-13)
    assert _q_forward(1, mu, nu, 1.0)[-1] == pytest.approx(mu + 1, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(admissible(), st.floats(1.0, 100.0))
def test_recursion_matches_hypergeometric(case, y):
    mu, nu, n = case
    q_rec = _q_forward(n, mu, nu, y)[-1]
    q_hyp, _ = hyp_sum(n, mu, nu, y)
    assert abs(q_rec - q_hyp) <= 1e-10 * max(1.0, abs(q_hyp))


def test_oracle_log_spaced_grid():
    mu, nu = -0.3, -12.0
    y = np.logspace(0.0, 3.0, 25)
    for n in range(5):
        got = _q_forward(n, mu, nu, y)[-1]
        for a, yk in zip(got, y):
            b, _ = hyp_sum(n, mu, nu, yk)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@settings(max_examples=100, deadline=None)
@given(admissible(max_degree=4), st.floats(-20.0, 20.0))
def test_parity_identity(case, y):
    mu, nu, n = case
    direct, mag1 = hyp_sum(n, mu, nu, y)
    swapped, mag2 = hyp_sum(n, nu, mu, -y)
    scale = max(mag1, mag2, 1.0)
    assert abs(direct - (-1.0) ** n * swapped) <= 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(admissible(), st.floats(1.5, 20.0))
@example(case=(-0.5635259574721794, -2.561474042527821, 1), y=17.0)
@example(case=(0.0, -3.05, 1), y=19.0)
def test_differential_equation_residual(case, y):
    mu, nu, n = case
    h = 1e-3 * y  # a step relative to y keeps the round-off below the bound
    f = _q_forward(n, mu, nu, y + h * np.arange(-2.0, 3.0))[-1]
    qp = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    qpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    terms = ((y * y - 1) * qpp, ((mu + nu + 2) * y + mu - nu) * qp,
             -n * (n + mu + nu + 1) * f[2])
    scale = max(1.0, *(abs(t) for t in terms))
    assert abs(sum(terms)) <= 1e-7 * scale


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_singular_set_edge(n):
    # mu + nu = -2n - 1 is a pole of the recursion for Q_{n+1}, not of the
    # rows Q_0 .. Q_n read: Q_n comes back, Q_{n+1} raises
    mu, y = 0.5, 3.0
    nu = -2 * n - 1 - mu
    got = _q_forward(n, mu, nu, y)[-1]
    want, mag = hyp_sum(n, mu, nu, y)
    assert abs(got - want) <= 1e-10 * max(1.0, mag)
    with pytest.raises(TraValidityError, match="recursion denominator vanishes"):
        _q_forward(n + 1, mu, nu, y)


def _weighted_inner(mu, nu, n, m, scale):
    def integrand(y):
        q = _q_forward(max(n, m), mu, nu, y)
        return (y - 1.0) ** mu * (y + 1.0) ** nu * q[n] * q[m]
    val, _ = integrate.quad(integrand, 1.0, np.inf, limit=500,
                            epsabs=1e-11 * scale, epsrel=1e-11)
    return val


# (mu, nu, N): N the highest degree with 2N + mu + nu + 1 < 0
GRAM_CASES = [(-0.3, -8.4, 3), (0.6, -10.5, 3), (1.8, -16.7, 4)]


@pytest.mark.parametrize("mu, nu, n_max", GRAM_CASES,
                         ids=[f"jp{i}" for i in range(len(GRAM_CASES))])
def test_orthogonality_gram(mu, nu, n_max):
    norms = [jacobi_q_norm(n, mu, nu) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        assert norms[n] > 0.0
        quad_norm = _weighted_inner(mu, nu, n, n, norms[n])
        assert quad_norm == pytest.approx(norms[n], rel=1e-6)
        for m in range(n):
            geo = math.sqrt(norms[n] * norms[m])
            leak = _weighted_inner(mu, nu, n, m, geo)
            assert abs(leak) <= 1e-8 * geo


@settings(max_examples=100, deadline=None)
@given(admissible())
def test_norm_positive(case):
    mu, nu, n = case
    try:
        norm = jacobi_q_norm(n, mu, nu)
    except TraValidityError:
        assume(False)  # integer nu lands on a Gamma pole, a documented error
    assert norm > 0.0


def test_pochhammer():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 3) == 60.0
    assert pochhammer(-2.0, 3) == 0.0
    assert pochhammer(-1.5, 2) == pytest.approx(0.75)
