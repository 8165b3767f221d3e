import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from conftest import pochhammer

from ptbound import dvr, reference, tra
from ptbound.errors import DomainError, TraValidityError
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


def _n_top(sol):
    """The truncation index N: the largest n with 2n + mu + nu + 1 < 0."""
    return tra.strict_floor(0.5 * (-sol.nu - sol.mu - 1.0))


def test_hyperbolic_basis_s1_ground():
    sol = tra.assemble_solution(S1, E1[0])
    assert sol.mu**2 == pytest.approx(-2 * E1[0], rel=1e-12)
    assert sol.mu == pytest.approx(5.880951, abs=1e-6)
    assert sol.nu == pytest.approx(-math.sqrt(60.25), rel=1e-12)
    assert len(sol.coeffs) - 1 == _n_top(sol) == 0


def test_hyperbolic_basis_s1_second_excited():
    sol = tra.assemble_solution(S1, E1[2])
    assert sol.mu == pytest.approx(1.332687, abs=1e-6)
    assert len(sol.coeffs) - 1 == _n_top(sol) == 2


def test_hyperbolic_basis_validity():
    with pytest.raises(TraValidityError):
        tra.assemble_solution(S1, 1.0)
    bad = HyperbolicParams(V0=10.0, A=-20.0, B=1.0, kappa=1.0)  # B > k^2/8
    with pytest.raises(TraValidityError):
        tra.assemble_solution(bad, -1.0)
    # mu >= -nu - 1: below the window, for either family
    for p, e in ((S1, -30.0), (S3, 1e-3)):
        with pytest.raises(TraValidityError, match="admits no series term"):
            tra.assemble_solution(p, e)


def test_trig_basis_s3():
    e0 = 16.797026
    sol = tra.assemble_solution(S3, e0)
    rho2 = S3.rho**2
    assert sol.nu**2 == pytest.approx(2 * e0 / rho2, rel=1e-10)
    assert sol.mu == pytest.approx(math.sqrt(0.25 + 2 * 2.0 / rho2), rel=1e-12)
    assert sol.nu == pytest.approx(-math.sqrt(2 * e0 / rho2), rel=1e-12)
    assert len(sol.coeffs) - 1 == _n_top(sol) == 0
    assert len(tra.assemble_solution(S3, 805.155660).coeffs) - 1 == 11


def test_trig_basis_validity():
    with pytest.raises(TraValidityError):
        tra.assemble_solution(S3, -1.0)


def test_series_params_hyperbolic_branches():
    # A = V0/2 sits mid-window: theta = pi/2, z^2 = 16 k^4 / V0^2
    p = HyperbolicParams(V0=10.0, A=5.0, B=0.0, kappa=1.0)
    assert tra.branch_window(p) == "trig"
    z, theta = _paper_z_theta(p)
    assert theta == pytest.approx(math.pi / 2.0)
    assert z**2 == pytest.approx(16.0 / 100.0)
    for e in E1:  # A < 0
        assert tra.assemble_solution(S1, e).branch == "hyper"
    z, theta = _paper_z_theta(S1)
    assert math.cosh(theta) == pytest.approx(1 - 2 * S1.A / S1.V0, rel=1e-12)
    assert z**2 == pytest.approx(4.0 / (S1.A * (S1.A - S1.V0)), rel=1e-12)


def test_series_params_trig_branches():
    for e in _levels(S3):  # C < -V0
        assert tra.assemble_solution(S3, e).branch == "hyper"
    z, theta = _paper_z_theta(S3)
    assert math.cosh(theta) == pytest.approx(3.0, rel=1e-12)
    assert z**2 == pytest.approx(4.0 * S3.rho**4 / 50.0, rel=1e-12)
    for e in _levels(S4):  # -V0 < C < 0
        assert tra.assemble_solution(S4, e).branch == "trig"
    _, theta = _paper_z_theta(S4)
    assert math.cos(theta) == pytest.approx(-0.2, rel=1e-12)


def test_series_params_boundaries():
    # on a window edge or outside both windows the series has no branch
    # label, but the recursion still gives finite coefficients
    for p in (HyperbolicParams(10.0, 0.0, -30.0, 1.0),
              HyperbolicParams(10.0, 10.0, -30.0, 1.0),
              HyperbolicParams(10.0, 15.0, -30.0, 1.0),
              TrigParams(5.0, -5.0, 2.0, 1.0),
              TrigParams(5.0, 1.0, 2.0, 1.0)):
        assert tra.branch_window(p) is None
        levels = _levels(p)
        assert len(levels) > 0
        for e in levels:
            sol = tra.assemble_solution(p, e)
            assert sol.branch is None
            assert len(sol.coeffs) == _n_top(sol) + 1
            assert all(math.isfinite(f) for f in sol.coeffs)


def test_branch_window():
    assert tra.branch_window(S1) == "hyper"
    assert tra.branch_window(S2) == "trig"
    assert tra.branch_window(HyperbolicParams(10.0, 0.0, 0.0, 1.0)) is None


def test_recursion_coefficients_favard():
    # b_{n+1} c_n > 0 on every row of the table the coefficients read
    for p in (S1, S4):
        for e in _levels(p):
            sol = tra.assemble_solution(p, e)
            for n in range(len(sol.coeffs) - 1):
                _, b, c = tra._recursion_terms(n, sol.mu, sol.nu)
                assert b * c > 0.0


def test_recursion_coefficients_single_term(monkeypatch):
    # the coefficients read rows 0 .. N-1 of the table, never row N (where
    # g_N can have a pole); N = 0 reads none
    rows, terms = [], tra._recursion_terms
    monkeypatch.setattr(tra, "_recursion_terms",
                        lambda n, mu, nu: rows.append(n) or terms(n, mu, nu))
    assert tra.assemble_solution(S1, E1[0]).coeffs == (1.0,)
    assert rows == []
    assert len(tra.assemble_solution(S1, E1[2]).coeffs) == 3
    assert rows == [0, 1]


def test_assemble_solution_single_term():
    sol = tra.assemble_solution(S1, E1[0])
    assert sol.coeffs == (1.0,)
    sol = tra.assemble_solution(S3, 16.797026)
    assert sol.coeffs == (1.0,)


def test_assemble_solution_at_recursion_pole():
    # mu + nu = -2N - 2 exactly: g_N has a pole, the coefficients do not
    for B, e, n_top in ((-4.375, -0.5, 0), (-10.0, -0.125, 1)):
        p = HyperbolicParams(V0=10.0, A=-20.0, B=B, kappa=1.0)
        sol = tra.assemble_solution(p, e)
        assert sol.mu + sol.nu == -2 * n_top - 2
        assert sol.coeffs == pytest.approx(_paper_coefficients(p, sol),
                                           rel=1e-14)


def test_assemble_solution_leading_coefficient():
    for e in E1:
        sol = tra.assemble_solution(S1, e)
        assert sol.coeffs[0] == 1.0
        assert len(sol.coeffs) == _n_top(sol) + 1


def test_assemble_solution_nonfinite_coefficient_raises():
    # N = 88295 here, and f_90 already overflows: the series stops with an
    # error instead of running on towards N (N is kept small enough that a
    # regression returns rather than exhausts memory; the CLI test
    # `test_wavefunction_deep_well_stops` runs N = 8.8e11 in a child)
    p = HyperbolicParams(V0=10.0, A=-20.0, B=-1e16, kappa=1.0)
    with pytest.raises(TraValidityError, match="f_90 .* not finite"):
        tra.assemble_solution(p, -9975041606125778.0)


# sha256 of repr([(mu, nu, coeffs), ...]) at the published energies of
# S1-S4, both columns: a new digest means a series coefficient moved
COEFFS_DIGEST = "acc670df2321f012dc4265e8b62f6f46561aa66d18add1c2f2d546cea912dcd7"


def test_series_coefficients_pinned():
    cases = []
    for table in ("table1", "table2"):
        sets, spectra = reference.TABLES[table]
        for name, p in sets.items():
            for method in ("DVR", "HOFD"):
                for e in spectra[name][method]:
                    sol = tra.assemble_solution(p, e)
                    cases.append((sol.mu, sol.nu, sol.coeffs))
    assert len(cases) == 52
    assert hashlib.sha256(repr(cases).encode()).hexdigest() == COEFFS_DIGEST


def _g(p, mu, nu, n):
    """Diagonal g_n of the coefficient recursion, from the formula of
    `assemble_solution`: the energy term plus a_n (floats or mpmath)."""
    if isinstance(p, HyperbolicParams):
        scale2, shift = p.kappa**2, (p.V0 - 2 * p.A) / (4 * p.kappa**2)
    else:
        scale2, shift = p.rho**2, -(p.V0 + 2 * p.C) / (4 * p.rho**2)
    half = n + (mu + nu + 1) / 2
    return ((half**2 - 0.0625 + shift) * (4 * scale2) / -p.V0
            + (nu**2 - mu**2) / ((2 * n + mu + nu) * (2 * n + mu + nu + 2)))


def _c(n, mu, nu):
    """c_n of the Q_n recursion (floats or mpmath)."""
    s = mu + nu
    return 2 * (n + 1) * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2))


def test_coefficients_satisfy_recursion():
    # the assembled coefficients solve the three-term relation
    for p, e in ((S1, E1[2]), (S4, 68.685118)):
        sol = tra.assemble_solution(p, e)
        f = sol.coeffs
        for n in range(len(f) - 1):
            _, b, c = tra._recursion_terms(n, sol.mu, sol.nu)
            g = _g(p, sol.mu, sol.nu, n)
            lhs = g * f[n] + b * f[n + 1]
            if n >= 1:
                lhs += _c(n - 1, sol.mu, sol.nu) * f[n - 1]
            scale = max(abs(g * f[n]), abs(b * f[n + 1]), 1.0)
            assert abs(lhs) <= 1e-10 * scale


def _paper_z_theta(p):
    """(z, theta) of the paper's H_n, for parameters inside a window of
    `branch_window`."""
    if isinstance(p, HyperbolicParams):
        ratio, scale4, prod = 1.0 - 2.0 * p.A / p.V0, p.kappa**4, p.A * (p.V0 - p.A)
    else:
        ratio, scale4, prod = -(2.0 * p.C / p.V0 + 1.0), p.rho**4, -p.C * (p.C + p.V0)
    if tra.branch_window(p) == "trig":
        return math.sqrt(4.0 * scale4 / prod), math.acos(ratio)
    return math.sqrt(4.0 * scale4 / -prod), math.acosh(ratio)


def _paper_coefficients(p, sol):
    """H_n(z^-1; gamma, -theta) / G_n from the paper's recursion and
    normalization, for parameters inside a window of `branch_window`."""
    mu, nu, n_top = sol.mu, sol.nu, len(sol.coeffs) - 1
    z, theta = _paper_z_theta(p)
    if tra.branch_window(p) == "trig":
        cs, sn = math.cos(theta), -math.sin(theta)
    else:
        cs, sn = math.cosh(theta), -math.sinh(theta)
    h = [1.0]
    h_prev, b = 0.0, 0.0
    for n in range(n_top):
        a, b_next, c = tra._recursion_terms(n, mu, nu)
        diag = ((n + (mu + nu + 1) / 2.0) ** 2 - 1.0 / 16.0) * z * sn + a
        h_prev, h_n = h[-1], ((cs - diag) * h[-1] - b * h_prev) / c
        h.append(h_n)
        b = b_next
    s = mu + nu
    g_n = [pochhammer(mu + 1, n) * pochhammer(nu + 1, n)
           / (math.factorial(n) * pochhammer(s + 1, n))
           * (s + 1) / (2 * n + s + 1) for n in range(n_top + 1)]
    return [hn / gn for hn, gn in zip(h, g_n)]


@pytest.mark.parametrize("p", [S1, S2, S3, S4], ids=["S1", "S2", "S3", "S4"])
def test_coefficients_match_paper_polynomials(p):
    # f_n = H_n / G_n, as the `assemble_solution` docstring states
    for e in _levels(p):
        sol = tra.assemble_solution(p, e)
        paper = _paper_coefficients(p, sol)
        top = max(abs(f) for f in sol.coeffs)
        for f, ref in zip(sol.coeffs, paper, strict=True):
            assert abs(f - ref) <= 1e-12 * top


def _q_mp(n_max, mu, nu, y):
    """[Q_0(y), ..., Q_nmax(y)] from the terminating hypergeometric sums."""
    x = (1 - y) / 2
    out = []
    lead = mpmath.mpf(1)  # (mu+1)_n / n!
    for n in range(n_max + 1):
        total, term = mpmath.mpf(0), mpmath.mpf(1)
        for k in range(n + 1):
            total += term
            term *= (k - n) * (n + mu + nu + 1 + k) / ((mu + 1 + k) * (k + 1)) * x
        out.append(lead * total)
        lead *= (mu + 1 + n) / (n + 1)
    return out


def _identity_error(p, e, points=8):
    """Largest |(H - E)psi - closed form| over sample points, relative to the
    largest |closed form|, where the closed form is

        (V0/4) (y -+ 1) P(y) [d_N f_N Q_{N+1}(y) + t_N Q_N(y)],

    - for the hyperbolic family and + for the finite well, P is the
    prefactor of `eval_wavefunction`, d_N = c_N of the Q_n recursion and
    t_N = g_N f_N + c_{N-1} f_{N-1}, all worked out in mpmath. psi'' comes
    from mpmath at 40 digits.
    """
    sol = tra.assemble_solution(p, e)
    n_top = len(sol.coeffs) - 1
    with mpmath.workdps(40):
        mu, nu = mpmath.mpf(sol.mu), mpmath.mpf(sol.nu)
        f = [mpmath.mpf(c) for c in sol.coeffs]
        s = mu + nu
        d_top = _c(n_top, mu, nu)
        t_top = _g(p, mu, nu, n_top) * f[n_top]
        if n_top:
            t_top += _c(n_top - 1, mu, nu) * f[n_top - 1]
        if isinstance(p, HyperbolicParams):
            sign, length, scale = -1, 6.0 / p.kappa, mpmath.mpf(p.kappa)

            def parts(x):
                ch, sh = mpmath.cosh(scale * x), mpmath.sinh(scale * x)
                y = 2 * ch**2 / sh**2 - 1
                pre = (mpmath.sqrt(2) ** (s + 0.5) * ch ** (nu + 0.5)
                       * sh ** (-s - 0.5))
                v = p.V0 / sh**4 + p.A / sh**2 + p.B / ch**2
                return y, pre, v
        else:
            sign, length, scale = 1, p.a, mpmath.pi / (2 * p.a)

            def parts(x):
                sn, cs = mpmath.sin(scale * x), mpmath.cos(scale * x)
                y = 2 * sn**2 / cs**2 + 1
                pre = (mpmath.sqrt(2) ** (s + 0.5) * sn ** (mu + 0.5)
                       * cs ** (-s - 0.5))
                v = p.V0 / cs**4 + p.C / cs**2 + p.D / sn**2
                return y, pre, v

        def psi(x):
            y, pre, _ = parts(x)
            return pre * mpmath.fsum(fn * qn for fn, qn
                                     in zip(f, _q_mp(n_top, mu, nu, y)))

        worst_gap, worst_rhs = 0, 0
        for i in range(1, points + 1):
            x = mpmath.mpf(length) * i / (points + 1)
            y, pre, v = parts(x)
            lhs = -mpmath.diff(psi, x, 2) / 2 + (v - e) * psi(x)
            q = _q_mp(n_top + 1, mu, nu, y)
            rhs = (mpmath.mpf(p.V0) / 4 * (y + sign) * pre
                   * (d_top * f[n_top] * q[n_top + 1] + t_top * q[n_top]))
            worst_gap = max(worst_gap, abs(lhs - rhs))
            worst_rhs = max(worst_rhs, abs(rhs))
        return float(worst_gap / worst_rhs)


def _levels(p):
    return dvr.solve_spectrum(p).eigenvalues


@pytest.mark.parametrize("p", [
    S1, S2, S3, S4,
    HyperbolicParams(10.0, 12.0, -30.0, 1.0),  # A >= V0
    HyperbolicParams(10.0, 0.0, -30.0, 1.0),
    HyperbolicParams(10.0, 10.0, -30.0, 1.0),
    TrigParams(5.0, -5.0, 2.0, 1.0),           # C = -V0
    TrigParams(5.0, 0.0, 2.0, 1.0),
    TrigParams(5.0, 3.0, 2.0, 1.0),
], ids=["S1", "S2", "S3", "S4", "A12", "A0", "A10", "C-5", "C0", "C3"])
def test_residual_identity(p):
    # every bound state, in and outside the windows of `branch_window`
    for e in _levels(p):
        assert _identity_error(p, e) <= 1e-10, e


def test_residual_identity_sweep():
    # energies need not be levels: the identity holds wherever N >= 0
    rng = np.random.default_rng(12)
    for _ in range(6):
        kappa = float(rng.uniform(0.5, 2.0))
        p = HyperbolicParams(V0=float(rng.uniform(1.0, 20.0)),
                             A=float(rng.uniform(-40.0, 30.0)),
                             B=float(rng.uniform(-60.0, -5.0)), kappa=kappa)
        top = math.sqrt(0.25 - 2.0 * p.B / kappa**2) - 1.0  # mu < -nu - 1
        mu = float(rng.uniform(0.05, 0.95)) * top
        assert _identity_error(p, -0.5 * (kappa * mu) ** 2) <= 1e-10, p
    for _ in range(6):
        p = TrigParams(V0=float(rng.uniform(1.0, 20.0)),
                       C=float(rng.uniform(-30.0, 10.0)),
                       D=float(rng.uniform(0.5, 10.0)),
                       a=float(rng.uniform(0.5, 2.0)))
        mu = math.sqrt(0.25 + 2.0 * p.D / p.rho**2)
        nu = -(mu + 1.0) - float(rng.uniform(0.1, 16.0))  # mu + nu < -1
        assert _identity_error(p, 0.5 * (p.rho * nu) ** 2) <= 1e-10, p


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


def test_eval_wavefunction_nonfinite_raises():
    # far out, cosh^(nu + 1/2) underflows to 0 while sinh^(-mu - nu - 1/2)
    # overflows; those 0 * inf samples were once returned as nan
    deep = HyperbolicParams(10.0, -20.0, -4000.0, 1.0)
    for p, e, near, far in ((deep, dvr.solve_spectrum(deep).eigenvalues[34],
                             8.5, 9.5), (S1, E1[2], 119.0, 121.0)):
        sol = tra.assemble_solution(p, e)
        _, psi = tra.eval_wavefunction(sol, p, np.array([1.0, near]))
        assert np.isfinite(psi).all()
        with pytest.raises(TraValidityError, match=f"from x={far:g}"):
            tra.eval_wavefunction(sol, p, np.array([1.0, near, far]))


def test_eval_wavefunction_outside_domain_raises():
    # points on or outside the open domain were once dropped with a
    # warning; they are an error, as in the potentials
    cases = [(S4, 29.961374, x) for x in (0.0, S4.a)]
    cases += [(S1, E1[1], x) for x in (0.0, -1.0)]
    for p, energy, bad in cases:
        sol = tra.assemble_solution(p, energy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="requires"):
                tra.eval_wavefunction(sol, p, np.array([0.5, bad]))


def test_truncation_monotone_trig():
    energies = dvr.solve_spectrum(S3).eigenvalues
    ns = [len(tra.assemble_solution(S3, e).coeffs) - 1 for e in energies]
    assert all(a <= b for a, b in zip(ns, ns[1:]))


def test_count_nodes():
    assert tra.count_nodes(np.array([1.0, 2.0, -1.0, 0.0, -2.0, 3.0])) == 2
    assert tra.count_nodes(np.array([1.0, 1.0])) == 0
