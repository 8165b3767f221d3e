"""DVR and HOFD against the conventional Poschl-Teller levels, the V0 -> 0
limit of both families, known in closed form (Cooper, Khare & Sukhatme,
Phys. Rep. 251 (1995) 267, Table 4.1). Neither solver produced this truth.
The limit is analytic in V0 only where the V0 wall's exponent exceeds 3/2
(lambda > 3/2 here, l > 3/2 for the finite well)."""

import math

import numpy as np
import pytest

from ptbound import dvr, hofd, reference
from ptbound.potentials import HyperbolicParams

# lambda = 4 (A = kappa^2 lambda(lambda-1)/2), nu = 10 (B = -kappa^2 nu(nu+1)/2)
LIMIT_HYP = HyperbolicParams(V0=1e-12, A=6.0, B=-55.0, kappa=1.0)


def hyperbolic_levels(p):
    """E_n = -(kappa^2/2)(nu - lambda - 2n)^2 while nu - lambda - 2n > 0."""
    k2 = p.kappa**2
    lam = (1.0 + math.sqrt(1.0 + 8.0 * p.A / k2)) / 2.0
    nu = (-1.0 + math.sqrt(1.0 - 8.0 * p.B / k2)) / 2.0
    return [-k2 / 2.0 * (nu - lam - 2 * n) ** 2
            for n in range(math.ceil((nu - lam) / 2.0))]


def trig_levels(p, count):
    """E_n = (rho^2/2)(k + l + 2n)^2 with D = rho^2 k(k-1)/2 and
    C = rho^2 l(l-1)/2."""
    r2 = p.rho**2
    k = (1.0 + math.sqrt(1.0 + 8.0 * p.D / r2)) / 2.0
    l = (1.0 + math.sqrt(1.0 + 8.0 * p.C / r2)) / 2.0
    return [r2 / 2.0 * (k + l + 2 * n) ** 2 for n in range(count)]


def test_hyperbolic_closed_form():
    assert hyperbolic_levels(LIMIT_HYP) == [-18.0, -8.0, -2.0]


def _worst(got, exact):
    assert len(got) == len(exact)
    return float(np.max(np.abs(np.asarray(got) - exact)))


@pytest.mark.parametrize("method, bound", [("dvr", 2e-7), ("hofd", 1e-11)])
def test_hyperbolic_limit_at_defaults(method, bound):
    # measured at the defaults: DVR 8.9e-8, HOFD 4.3e-12
    exact = hyperbolic_levels(LIMIT_HYP)
    got = (dvr.solve_spectrum(LIMIT_HYP) if method == "dvr"
           else hofd.hofd_spectrum(LIMIT_HYP, count=len(exact))).eigenvalues
    assert _worst(got, exact) <= bound


@pytest.mark.parametrize("method, ladder", [("dvr", (100, 200, 400)),
                                            ("hofd", (60, 125, 250))])
def test_hyperbolic_limit_error_shrinks(method, ladder):
    # each doubling of M cut the worst error by 130x or more where measured
    exact = hyperbolic_levels(LIMIT_HYP)
    worst = []
    for M in ladder:
        got = (dvr.solve_spectrum(LIMIT_HYP, M) if method == "dvr"
               else hofd.hofd_spectrum(LIMIT_HYP, M, count=len(exact))).eigenvalues
        worst.append(_worst(got, exact))
    assert all(fine <= coarse / 10.0 for coarse, fine in zip(worst, worst[1:]))


def test_limits_table_is_the_closed_form():
    for name, p in reference.LIMIT_SETS.items():
        for levels in reference.LIMIT_REFERENCE[name].values():
            assert levels == pytest.approx(trig_levels(p, len(levels)),
                                           rel=1e-14, abs=0.0)
