"""Acceptance suite: one test per shipped criterion, each printing a single
PASS/FAIL line with the measured worst-case quantity."""

import math

import numpy as np
import pytest
from conftest import dense

from ptbound import dvr, hofd, orthopoly, reference, tra
from ptbound.potentials import HyperbolicParams, Phase, classify_phase, eval_trig

HYP = reference.HYPERBOLIC_SETS
TRIG = reference.TRIG_SETS


def _report(num, label, worst, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num} ({label}): "
          f"worst deviation {worst:.3e}")


def test_criterion_1_table1_dvr():
    # M = 200, b = 10; n = 0, 1 to 1e-8 absolute, n = 2 to 1e-6
    worst = 0.0
    ok = True
    for name, p in HYP.items():
        got = dvr.solve_spectrum(p).eigenvalues
        exp = reference.HYPERBOLIC_REFERENCE[name]["DVR"]
        assert len(got) == 3
        for n, (g, e) in enumerate(zip(got, exp)):
            tol = 1e-8 if n < 2 else 1e-6
            worst = max(worst, abs(g - e))
            ok &= abs(g - e) <= tol
    _report(1, "bound spectrum, DVR", worst, ok)
    assert ok


def test_criterion_2_table1_hofd():
    # M = 500, default k; 1e-7 absolute; DVR/HOFD within 2e-8 for n = 0, 1
    worst = 0.0
    ok = True
    for name, p in HYP.items():
        got = hofd.hofd_spectrum(p, count=3).eigenvalues
        exp = reference.HYPERBOLIC_REFERENCE[name]["HOFD"]
        for g, e in zip(got, exp):
            worst = max(worst, abs(g - e))
            ok &= abs(g - e) <= 1e-7
        got_dvr = dvr.solve_spectrum(p).eigenvalues
        for n in (0, 1):
            ok &= abs(got[n] - got_dvr[n]) <= 2e-8
    _report(2, "bound spectrum, HOFD + cross-solver", worst, ok)
    assert ok


def test_criterion_3_table2():
    # DVR M = 300 and HOFD M = 500; n <= 4 to 1e-4, n = 5..9 to 1e-3
    worst = 0.0
    ok = True
    for name, p in TRIG.items():
        for method, got in (("DVR", dvr.solve_spectrum(p).eigenvalues),
                            ("HOFD", hofd.hofd_spectrum(p, count=10).eigenvalues)):
            exp = reference.TRIG_REFERENCE[name][method]
            for n, (g, e) in enumerate(zip(got, exp)):
                tol = 1e-4 if n <= 4 else 1e-3
                worst = max(worst, abs(g - e))
                ok &= abs(g - e) <= tol
    _report(3, "finite-well spectrum, both solvers", worst, ok)
    assert ok


def test_criterion_4_free_box():
    cfg = hofd.HofdConfig(M=300, k=4)
    op = hofd.operator(cfg, -0.5, 0.0, 0.0)  # V = 0, a = 1
    from ptbound import linalg
    w, _ = linalg.eig_general(dense(op))
    levels = linalg.near_real_sorted(w)[:5]
    worst = 0.0
    for n, e in enumerate(levels, start=1):
        exact = n**2 * math.pi**2 / 2.0
        worst = max(worst, abs(e - exact) / exact)
    ok = worst <= 1e-6
    _report(4, "free box levels", worst, ok)
    assert ok


def test_criterion_5_polynomial_identities():
    rng = np.random.default_rng(20240815)
    worst = 0.0
    ok = True
    cases = []
    for _ in range(200):
        n_max = int(rng.integers(0, 6))
        mu = float(rng.uniform(-0.9, 3.0))
        nu = -mu - 2 * n_max - 1 - float(rng.uniform(0.1, 5.0))
        cases.append((orthopoly.JacobiParams(mu=mu, nu=nu, N=n_max),
                      int(rng.integers(0, n_max + 1))))
    # recursion vs hypergeometric, 1e-10 relative
    for jp, n in cases:
        y = float(rng.uniform(1.0, 100.0))
        a = orthopoly.jacobi_q(n, jp, y)
        b = orthopoly.jacobi_q_oracle(n, jp, y)
        rel = abs(a - b) / max(1.0, abs(b))
        worst = max(worst, rel)
        ok &= rel <= 1e-10
    # Gram diagonality, off-diagonal leakage <= 1e-8 relative
    from scipy import integrate
    jp = orthopoly.JacobiParams(mu=0.6, nu=-10.5, N=3)
    norms = [orthopoly.jacobi_q_norm(n, jp) for n in range(jp.N + 1)]
    for n in range(jp.N + 1):
        for m in range(n):
            geo = math.sqrt(norms[n] * norms[m])
            val, _ = integrate.quad(
                lambda y: ((y - 1) ** jp.mu * (y + 1) ** jp.nu
                           * orthopoly.jacobi_q(n, jp, y)
                           * orthopoly.jacobi_q(m, jp, y)),
                1.0, np.inf, limit=500, epsabs=1e-11 * geo, epsrel=1e-11)
            ok &= abs(val) <= 1e-8 * geo
    # differential-equation residual <= 1e-7 relative (5-point stencils)
    for jp, n in cases[:50]:
        y, h = float(rng.uniform(1.5, 20.0)), 1e-3
        f = [orthopoly.jacobi_q(n, jp, y + m * h) for m in (-2, -1, 0, 1, 2)]
        qp = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        qpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        terms = ((y * y - 1) * qpp,
                 ((jp.mu + jp.nu + 2) * y + jp.mu - jp.nu) * qp,
                 -n * (n + jp.mu + jp.nu + 1) * f[2])
        ok &= abs(sum(terms)) <= 1e-7 * max(1.0, *(abs(t) for t in terms))
    # Favard positivity of the series recursion products
    for name, p in HYP.items():
        for e in dvr.solve_spectrum(p).eigenvalues:
            basis = tra.hyperbolic_basis(p, e)
            _, c, d = tra.recursion_coefficients(p, basis)
            ok &= all(cn * dn > 0 for cn, dn in zip(c, d))
    _report(5, "polynomial identities", worst, ok)
    assert ok


def _rayleigh_quotient(h, psi):
    return float(psi @ h @ psi / (psi @ psi))


def test_criterion_6_series_solver_consistency():
    """Rayleigh quotient of the assembled series within 1e-3 relative of the
    eigenvalue, and node count m, for every in-window bound state.

    Implemented exactly as stated. The finite truncated series is only an
    approximation of the eigenfunction near the quartic singular wall, so
    this criterion fails for most states; see the failure message for the
    measured values.
    """
    failures = []
    worst = 0.0
    from ptbound.dvr import grid, kinetic_box, kinetic_semiinfinite
    from ptbound.potentials import eval_hyperbolic, eval_trig

    for name, p in HYP.items():
        if tra.branch_window(p) is None:
            continue
        x = grid(200, 10.0)
        h = kinetic_semiinfinite(200, 10.0) + np.diag(eval_hyperbolic(p, x))
        fine = np.linspace(0.0, 10.0, 2002)[1:-1]
        for m, e in enumerate(dvr.solve_spectrum(p).eigenvalues):
            sol = tra.assemble_solution(p, e)
            _, psi = tra.eval_wavefunction(sol, p, x)
            rq = _rayleigh_quotient(h, psi)
            rel = abs(rq - e) / abs(e)
            worst = max(worst, rel)
            _, psi_fine = tra.eval_wavefunction(sol, p, fine)
            nodes = tra.count_nodes(psi_fine)
            if rel > 1e-3 or nodes != m:
                failures.append(f"{name} m={m}: RQ rel err {rel:.2e}, "
                                f"nodes {nodes}")
    for name, p in TRIG.items():
        if tra.branch_window(p) is None:
            continue
        x = grid(300, p.a)
        h = kinetic_box(300, p.a) + np.diag(eval_trig(p, x))
        fine = np.linspace(0.0, p.a, 2002)[1:-1]
        for m, e in enumerate(dvr.solve_spectrum(p).eigenvalues):
            sol = tra.assemble_solution(p, e)
            _, psi = tra.eval_wavefunction(sol, p, x)
            rq = _rayleigh_quotient(h, psi)
            rel = abs(rq - e) / abs(e)
            worst = max(worst, rel)
            _, psi_fine = tra.eval_wavefunction(sol, p, fine)
            nodes = tra.count_nodes(psi_fine)
            if rel > 1e-3 or nodes != m:
                failures.append(f"{name} m={m}: RQ rel err {rel:.2e}, "
                                f"nodes {nodes}")
    ok = not failures
    _report(6, "series/solver consistency", worst, ok)
    assert ok, "series wavefunction checks failed:\n" + "\n".join(failures)


def test_criterion_7_isospectrality():
    # the mirror well V(a - x), sampled on the same grid
    p = TRIG["S3"]
    plain = dvr.solve_spectrum(p).eigenvalues
    x = dvr.grid(dvr.DEFAULT_M_TRIG, p.a)
    h = dvr.kinetic_box(dvr.DEFAULT_M_TRIG, p.a) + np.diag(eval_trig(p, p.a - x))
    mirror = np.linalg.eigh(h)[0][:len(plain)]
    worst = max(abs(a - b) / abs(a) for a, b in zip(plain, mirror))
    ok = worst <= 1e-10
    _report(7, "mirror isospectrality", worst, ok)
    assert ok


def test_criterion_8_spd_necessary_condition():
    a_vals = np.linspace(-60.0, 40.0, 200)
    b_vals = np.linspace(-60.0, 40.0, 200)
    bad = 0
    for b in b_vals:
        for a in a_vals:
            if a + b >= 0:
                phase = classify_phase(
                    HyperbolicParams(V0=10.0, A=a, B=b, kappa=1.0)).phase
                if phase is Phase.B:
                    bad += 1
    ok = bad == 0
    _report(8, "phase-diagram necessary condition", float(bad), ok)
    assert ok
