import math

import numpy as np
import pytest

from ptbound import dvr, tra
from ptbound.errors import BranchBoundaryError, NoBranchError, TraValidityError
from ptbound.orthopoly import Branch
from ptbound.potentials import HyperbolicParams, TrigParams

S1 = HyperbolicParams(V0=10.0, A=-20.0, B=-30.0, kappa=1.0)
S2 = HyperbolicParams(V0=5.0, A=2.0, B=-60.0, kappa=1.0)
S3 = TrigParams(V0=5.0, C=-10.0, D=2.0, a=1.0)
S4 = TrigParams(V0=5.0, C=-2.0, D=2.0, a=1.0)

E1 = (-17.292792568552, -6.137201742096, -0.888027613576)


def test_strict_floor():
    assert tra.strict_floor(3.0) == 2
    assert tra.strict_floor(2.7) == 2
    assert tra.strict_floor(-0.2) == -1
    assert tra.strict_floor(0.0) == -1


def test_hyperbolic_basis_s1_ground():
    basis = tra.hyperbolic_basis(S1, E1[0])
    assert basis.epsilon == pytest.approx(2 * E1[0], rel=1e-12)
    assert basis.mu == pytest.approx(5.880951, abs=1e-6)
    assert basis.nu == pytest.approx(-math.sqrt(60.25), rel=1e-12)
    assert basis.N_m == 0
    assert basis.alpha == pytest.approx(basis.mu / 2.0)
    assert basis.beta == pytest.approx((-basis.nu - 0.5) / 2.0)


def test_hyperbolic_basis_s1_second_excited():
    basis = tra.hyperbolic_basis(S1, E1[2])
    assert basis.mu == pytest.approx(1.332687, abs=1e-6)
    assert basis.N_m == 2


def test_hyperbolic_basis_validity():
    with pytest.raises(TraValidityError):
        tra.hyperbolic_basis(S1, 1.0)
    bad = HyperbolicParams(V0=10.0, A=-20.0, B=1.0, kappa=1.0)  # B > k^2/8
    with pytest.raises(TraValidityError):
        tra.hyperbolic_basis(bad, -1.0)


def test_trig_basis_s3():
    e0 = 16.797026
    basis = tra.trig_basis(S3, e0)
    rho2 = S3.rho**2
    assert basis.epsilon == pytest.approx(2 * e0 / rho2, rel=1e-10)
    assert basis.mu == pytest.approx(math.sqrt(0.25 + 2 * 2.0 / rho2), rel=1e-12)
    assert basis.nu == pytest.approx(-math.sqrt(basis.epsilon), rel=1e-12)
    assert basis.N_m == 0
    assert tra.trig_basis(S3, 805.155660).N_m == 11


def test_trig_basis_validity():
    with pytest.raises(TraValidityError):
        tra.trig_basis(S3, -1.0)


def test_series_params_hyperbolic_branches():
    # A = V0/2 sits mid-window: theta = pi/2, z^2 = 16 k^4 / V0^2
    p = HyperbolicParams(V0=10.0, A=5.0, B=0.0, kappa=1.0)
    sp = tra.series_params(p)
    assert sp.branch is Branch.TRIG
    assert sp.theta == pytest.approx(math.pi / 2.0)
    assert sp.z**2 == pytest.approx(16.0 / 100.0)
    sp = tra.series_params(S1)  # A < 0
    assert sp.branch is Branch.HYPER
    assert math.cosh(sp.theta) == pytest.approx(1 - 2 * S1.A / S1.V0, rel=1e-12)


def test_series_params_trig_branches():
    sp = tra.series_params(S3)  # C < -V0
    assert sp.branch is Branch.HYPER
    assert math.cosh(sp.theta) == pytest.approx(3.0, rel=1e-12)
    assert sp.z**2 == pytest.approx(4.0 * S3.rho**4 / 50.0, rel=1e-12)
    sp = tra.series_params(S4)  # -V0 < C < 0
    assert sp.branch is Branch.TRIG
    assert math.cos(sp.theta) == pytest.approx(-0.2, rel=1e-12)


def test_series_params_boundaries():
    with pytest.raises(BranchBoundaryError):
        tra.series_params(HyperbolicParams(10.0, 0.0, 0.0, 1.0))
    with pytest.raises(BranchBoundaryError):
        tra.series_params(HyperbolicParams(10.0, 10.0, 0.0, 1.0))
    with pytest.raises(NoBranchError):
        tra.series_params(HyperbolicParams(10.0, 15.0, 0.0, 1.0))
    with pytest.raises(NoBranchError):
        tra.series_params(TrigParams(5.0, 1.0, 2.0, 1.0))


def test_branch_window():
    assert tra.branch_window(S1) is Branch.HYPER
    assert tra.branch_window(S2) is Branch.TRIG
    assert tra.branch_window(HyperbolicParams(10.0, 0.0, 0.0, 1.0)) is None


def test_recursion_coefficients_favard():
    for p, energies in (
            (S1, dvr.hyperbolic_spectrum(S1).eigenvalues),
            (S4, dvr.trig_spectrum(S4).eigenvalues)):
        for e in energies:
            if isinstance(p, HyperbolicParams):
                basis = tra.hyperbolic_basis(p, e)
            else:
                basis = tra.trig_basis(p, e)
            g, c, d = tra.recursion_coefficients(p, basis)
            assert len(g) == basis.N_m + 1
            assert len(c) == len(d) == basis.N_m
            for cn, dn in zip(c, d):
                assert cn * dn > 0.0


def test_recursion_coefficients_single_term():
    basis = tra.hyperbolic_basis(S1, E1[0])  # N = 0
    g, c, d = tra.recursion_coefficients(S1, basis)
    assert len(g) == 1 and c == [] and d == []


def test_assemble_solution_single_term():
    sol = tra.assemble_solution(S1, E1[0])
    assert sol.coeffs == (1.0,)
    sol = tra.assemble_solution(S3, 16.797026)
    assert sol.coeffs == (1.0,)


def test_assemble_solution_leading_coefficient():
    for e in E1:
        sol = tra.assemble_solution(S1, e)
        assert sol.coeffs[0] == 1.0
        assert len(sol.coeffs) == sol.basis.N_m + 1


def test_coefficients_satisfy_recursion():
    # the assembled G_n^{-1} H_n coefficients solve the three-term relation
    for p, e in ((S1, E1[2]), (S4, 68.685118)):
        sol = tra.assemble_solution(p, e)
        if isinstance(p, HyperbolicParams):
            basis = tra.hyperbolic_basis(p, e)
        else:
            basis = tra.trig_basis(p, e)
        g, c, d = tra.recursion_coefficients(p, basis)
        f = sol.coeffs
        for n in range(basis.N_m):
            lhs = g[n] * f[n] + c[n] * f[n + 1]
            if n >= 1:
                lhs += d[n - 1] * f[n - 1]
            scale = max(abs(g[n] * f[n]), abs(c[n] * f[n + 1]), 1.0)
            assert abs(lhs) <= 1e-10 * scale


def test_eval_wavefunction_hyperbolic_decay():
    sol = tra.assemble_solution(S1, E1[1])
    x = np.linspace(0.01, 30.0, 3000)
    _, psi = tra.eval_wavefunction(sol, S1, x)
    assert abs(psi[-1]) < 1e-8 * np.abs(psi).max()
    # vanishing toward the origin too
    assert abs(psi[0]) < 0.5 * np.abs(psi).max()


def test_eval_wavefunction_trig_decay():
    sol = tra.assemble_solution(S4, 29.961374)
    x = np.array([1e-4, 0.5, 1.0 - 1e-4])
    _, psi = tra.eval_wavefunction(sol, S4, x)
    assert abs(psi[0]) < 1e-2 * abs(psi[1])
    assert abs(psi[2]) < 1e-2 * abs(psi[1])


def test_eval_wavefunction_excludes_boundary():
    sol = tra.assemble_solution(S4, 29.961374)
    with pytest.warns(RuntimeWarning):
        kept, psi = tra.eval_wavefunction(sol, S4, np.array([0.0, 0.5, 1.0]))
    assert kept.tolist() == [0.5]
    assert psi.shape == (1,)


def test_truncation_monotone_trig():
    energies = dvr.trig_spectrum(S3).eigenvalues
    ns = [tra.trig_basis(S3, e).N_m for e in energies]
    assert all(a <= b for a, b in zip(ns, ns[1:]))


def test_count_nodes():
    assert tra.count_nodes(np.array([1.0, 2.0, -1.0, 0.0, -2.0, 3.0])) == 2
    assert tra.count_nodes(np.array([1.0, 1.0])) == 0
