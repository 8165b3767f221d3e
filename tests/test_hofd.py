import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense, eig_general, near_real_sorted

from ptbound import hofd, linalg, reference
from ptbound.potentials import HyperbolicParams, TrigParams

S1 = HyperbolicParams(V0=10.0, A=-20.0, B=-30.0, kappa=1.0)
S2 = HyperbolicParams(V0=5.0, A=2.0, B=-60.0, kappa=1.0)
SHALLOW = HyperbolicParams(V0=11.2128, A=2.41442, B=-12.5675, kappa=1.01828)
WIDE = HyperbolicParams(V0=10.0, A=-20.0, B=-30.0, kappa=0.05)
S3 = TrigParams(V0=5.0, C=-10.0, D=2.0, a=1.0)
S4 = TrigParams(V0=5.0, C=-2.0, D=2.0, a=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        hofd.HofdConfig(M=5, k=4)
    with pytest.raises(ValueError):
        hofd.HofdConfig(M=100, k=0)
    cfg = hofd.HofdConfig(M=9, k=2)
    assert cfg.h == 0.1
    assert np.allclose(cfg.s, np.arange(1, 10) / 10.0)


def test_zeta_rule():
    assert hofd.zeta(1) == 0.6
    vals = [hofd.zeta(j) for j in range(1, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        hofd.zeta(0)


def test_fd_weights_classic():
    assert np.allclose(hofd.fd_weights(2, [-1, 0, 1], 0), [1.0, -2.0, 1.0])
    assert np.allclose(hofd.fd_weights(1, [-1, 0, 1], 0), [-0.5, 0.0, 0.5])
    assert np.allclose(hofd.fd_weights(2, [-2, -1, 0, 1, 2], 0),
                       [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12])


def test_fd_weights_symmetry():
    w1 = hofd.fd_weights(1, list(range(-3, 4)), 0)
    w2 = hofd.fd_weights(2, list(range(-3, 4)), 0)
    assert np.allclose(w1, -w1[::-1])  # first derivative antisymmetric
    assert np.allclose(w2, w2[::-1])   # second derivative symmetric


def test_fd_weights_validation():
    with pytest.raises(ValueError):
        hofd.fd_weights(3, [-1, 0, 1], 0)
    with pytest.raises(ValueError):
        hofd.fd_weights(2, [0, 0, 1], 0)
    with pytest.raises(ValueError):
        hofd.fd_weights(2, [0, 1], 0)


def _exact_weights(l, nodes, x0):
    """l-th derivative at x0 of each Lagrange basis polynomial, in rationals."""
    weights = []
    for j, xj in enumerate(nodes):
        coeffs, denom = [Fraction(1)], Fraction(1)  # powers of (x - x0)
        for xm in nodes[:j] + nodes[j + 1:]:
            shifted = [Fraction(0)] * (len(coeffs) + 1)
            for p, c in enumerate(coeffs):  # times (x - x0) - (xm - x0)
                shifted[p + 1] += c
                shifted[p] -= (xm - x0) * c
            coeffs, denom = shifted, denom * (xj - xm)
        weights.append(coeffs[l] * math.factorial(l) / denom)
    return weights


def test_fd_weights_exact():
    for k in range(1, 9):
        window = list(range(2 * k + 1))
        cases = [(list(range(-k, k + 1)), 0)] + [(window, r) for r in range(1, k)]
        for nodes, x0 in cases:
            for l in (1, 2):
                exact = _exact_weights(l, nodes, x0)
                got = hofd.fd_weights(l, nodes, x0)
                bound = 4e-15 * max(1.0, max(abs(float(e)) for e in exact))
                err = max(abs(Fraction(float(w)) - e) for w, e in zip(got, exact))
                assert err <= bound, (k, x0, l, float(err))


def test_delta_matrices_k1_tridiagonal():
    cfg = hofd.HofdConfig(M=6, k=1)
    d2 = dense(hofd.operator(cfg, 1.0, 0.0, 0.0))
    lap = (np.diag([-2.0] * 6) + np.diag([1.0] * 5, 1)
           + np.diag([1.0] * 5, -1)) / cfg.h**2
    assert np.abs(d2 - lap).max() == 0.0


def test_delta_matrices_moment_conditions():
    cfg = hofd.HofdConfig(M=40, k=3)
    d1 = dense(hofd.operator(cfg, 0.0, 1.0, 0.0))
    d2 = dense(hofd.operator(cfg, 1.0, 0.0, 0.0))
    s = cfg.s
    # rows whose stencil window avoids the Dirichlet endpoints see the full
    # moment conditions: Delta1 kills constants, Delta2 on s^2 gives 2
    inner = slice(cfg.k, cfg.M - cfg.k)
    assert np.abs((d1 @ np.ones_like(s))[inner]).max() <= 1e-9
    assert np.abs((d2 @ s**2)[inner] - 2.0).max() <= 1e-8


def test_consistency_order():
    # global error on sin(pi s) decays at roughly h^(2k-1) (boundary rows
    # cost one order); measured rate hovers just below the ideal 3 at k=2
    k = 2
    errs = []
    for m in (64, 128, 256):
        cfg = hofd.HofdConfig(M=m, k=k)
        d2 = dense(hofd.operator(cfg, 1.0, 0.0, 0.0))
        f = np.sin(math.pi * cfg.s)
        errs.append(np.abs(d2 @ f + math.pi**2 * f).max())
    for e0, e1 in zip(errs, errs[1:]):
        assert math.log2(e0 / e1) >= 2 * k - 1.25


def test_hyperbolic_operator_nonsymmetric():
    cfg = hofd.HofdConfig(M=50, k=2)
    j = dense(hofd.hyperbolic_operator(S1, cfg, 1)[0])
    assert np.abs(j - j.T).max() > 0.0


def test_free_box_levels():
    p = TrigParams(V0=1e-30, C=0.0, D=1e-30, a=1.0)  # numerically V = 0
    cfg = hofd.HofdConfig(M=300, k=4)
    res = hofd.hofd_spectrum(p, cfg, count=5)
    for n, e in enumerate(res.eigenvalues, start=1):
        exact = n**2 * math.pi**2 / 2.0
        assert abs(e - exact) <= 1e-6 * exact


def test_hofd_spectrum_s1():
    res = hofd.hofd_spectrum(S1, count=3)
    expect = (-17.292792568575, -6.137201742113, -0.888027616853)
    for got, ref in zip(res.eigenvalues, expect):
        assert got == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize("k", [6, 7, 8])
@pytest.mark.parametrize("name", ["S1", "S2"])
def test_hofd_wide_stencil_matches_reference(name, k):
    # wide stencils resolve the levels as well as the default k = 4 does
    expect = reference.HYPERBOLIC_REFERENCE[name]["DVR"]
    p = reference.HYPERBOLIC_SETS[name]
    res = hofd.hofd_spectrum(p, hofd.HofdConfig(M=500, k=k), count=len(expect))
    assert len(res.eigenvalues) == len(expect)
    for got, ref in zip(res.eigenvalues, expect):
        assert abs(got - ref) <= 1e-8


def test_hofd_spectrum_s4_lowest():
    res = hofd.hofd_spectrum(S4, count=1)
    assert res.eigenvalues[0] == pytest.approx(29.961382, abs=1e-4)


def test_near_real_filter():
    w = np.array([1.0 + 0j, 2.0 + 1e-3j, 3.0 + 1e-12j])
    real = near_real_sorted(w)
    assert np.allclose(real, [1.0, 3.0])


def _delta_matrices_by_row(cfg):
    """Reference build: one pair of weight solves per row."""
    M, k, h = cfg.M, cfg.k, cfg.h
    d1 = np.zeros((M, M))
    d2 = np.zeros((M, M))
    t = M - 2 * k + 1
    for i in range(1, M + 1):
        if i < k:
            window = list(range(0, 2 * k + 1))
        elif i <= M + 1 - k:
            window = list(range(i - k, i + k + 1))
        else:
            window = list(range(t, t + 2 * k + 1))
        w1 = hofd.fd_weights(1, window, i)
        w2 = hofd.fd_weights(2, window, i)
        for node, a1, a2 in zip(window, w1, w2):
            if 1 <= node <= M:
                d1[i - 1, node - 1] += a1
                d2[i - 1, node - 1] += a2
    return d1 / h, d2 / h**2


@pytest.mark.parametrize("M,k", [
    (9, 2), (10, 4), (12, 1), (20, 3), (40, 1), (40, 3), (60, 4), (200, 6),
    (250, 4), (300, 7), (500, 2), (500, 4), (500, 8), (1000, 4)])
def test_delta_matrices_match_row_by_row(M, k):
    # the operator is a*D2 + b*D1 + diag(c) over the reference matrices,
    # bitwise, signed zeros included; the box operator is -D2/(2a^2) + diag(V)
    cfg = hofd.HofdConfig(M=M, k=k)
    d1, d2 = _delta_matrices_by_row(cfg)
    a, b, c = np.random.default_rng(100 * M + k).uniform(-5.0, 5.0, (3, M))
    want = a[:, None] * d2 + b[:, None] * d1 + np.diag(c)
    for _ in range(2):  # a second build reads the shared weight tables
        assert dense(hofd.operator(cfg, a, b, c)).tobytes() == want.tobytes()
    p = TrigParams(V0=5.0, C=-10.0, D=2.0, a=1.037)
    op, v = hofd.box_operator(p, cfg)
    assert dense(op).tobytes() == (-d2 / (2.0 * p.a**2) + np.diag(v)).tobytes()


def test_weight_tables_shared_read_only():
    # every operator build reads these same two arrays for k = 4
    for order in (1, 2):
        table = hofd._weight_table(order, 4)
        assert table is hofd._weight_table(order, 4)
        assert table.shape == (7, 9)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


def _dense_levels(p, cfg, count):
    """The j-th smallest near-real eigenvalue of the dense spectrum of the
    zeta(j) operator, j = 1..count, up to the first continuum artifact."""
    levels = []
    for j in range(1, count + 1):
        w, _ = eig_general(dense(hofd.hyperbolic_operator(p, cfg, j)[0]))
        lam = near_real_sorted(w)[j - 1]
        if lam >= 0.0:
            break
        levels.append(lam)
    return levels


def _assert_matches_dense(p, M, count):
    cfg = hofd.HofdConfig(M=M)
    got = hofd.hofd_spectrum(p, cfg, count=count).eigenvalues
    ref = _dense_levels(p, cfg, count)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert abs(g - r) <= 1e-10 * max(1.0, abs(r))


@pytest.mark.parametrize("M", [60, 250, 500])
@pytest.mark.parametrize("p", [S1, S2, SHALLOW, WIDE],
                         ids=["S1", "S2", "shallow", "kappa0.05"])
def test_hyperbolic_levels_match_dense_eig(p, M):
    _assert_matches_dense(p, M, count=10)


def test_hyperbolic_levels_match_dense_eig_random_sets():
    rng = np.random.default_rng(20261018)
    for _ in range(30):
        p = HyperbolicParams(V0=float(rng.uniform(1.0, 20.0)),
                             A=float(rng.uniform(-40.0, 10.0)),
                             B=float(rng.uniform(-80.0, -5.0)),
                             kappa=float(rng.uniform(0.5, 2.0)))
        _assert_matches_dense(p, M=120, count=4)


@pytest.mark.parametrize("M", [500, 1000])
@pytest.mark.parametrize("p", [S3, S4], ids=["S3", "S4"])
def test_finite_well_levels_match_dense_eig(p, M):
    # the operator's own conditioning limits agreement to about 1e-6
    cfg = hofd.HofdConfig(M=M)
    got = hofd.hofd_spectrum(p, cfg, count=10).eigenvalues
    w, _ = eig_general(dense(hofd.box_operator(p, cfg)[0]))
    ref = near_real_sorted(w)[:10]
    assert len(got) == 10
    for g, r in zip(got, ref):
        assert abs(g - r) <= 2e-6 * abs(r)


@pytest.mark.parametrize("p", [S1, S3], ids=["S1", "S3"])
def test_shift_below_spectrum(p, monkeypatch):
    # eig_shift_invert's contract: no eigenvalue left of the shift
    solve = linalg.eig_shift_invert
    shifts = []

    def recorded(a, sigma, count):
        w, _ = eig_general(dense(a))
        shifts.append((sigma, w.real.min()))
        return solve(a, sigma, count)

    monkeypatch.setattr(linalg, "eig_shift_invert", recorded)
    hofd.hofd_spectrum(p, hofd.HofdConfig(M=60), count=3)
    assert shifts
    assert all(sigma < lowest for sigma, lowest in shifts)
