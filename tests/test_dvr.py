import math

import numpy as np
import pytest

from ptbound import dvr, linalg
from ptbound.errors import SolverError
from ptbound.potentials import (
    HyperbolicParams,
    TrigParams,
    eval_hyperbolic,
    eval_trig,
)

S1 = HyperbolicParams(V0=10.0, A=-20.0, B=-30.0, kappa=1.0)
S3 = TrigParams(V0=5.0, C=-10.0, D=2.0, a=1.0)


def test_kinetic_semiinfinite_entries():
    t = dvr.kinetic_semiinfinite(5, 5.0)  # dx = 1
    assert t[0, 0] == pytest.approx(math.pi**2 / 6.0 - 0.25, rel=1e-14)
    assert t[0, 1] == pytest.approx(-(1.0 - 1.0 / 9.0), rel=1e-14)


def test_kinetic_semiinfinite_exact_symmetry():
    t = dvr.kinetic_semiinfinite(40, 7.0)
    assert np.abs(t - t.T).max() == 0.0


def test_kinetic_box_exact_symmetry_and_positive_diagonal():
    t = dvr.kinetic_box(300, 1.0)
    assert np.abs(t - t.T).max() == 0.0
    assert np.diag(t).min() > 0.0


def test_kinetic_limit_consistency():
    # the box operator approaches the semi-infinite one as a, M grow
    kb = dvr.kinetic_box(2000, 10.0)[0, 0]
    ks = dvr.kinetic_semiinfinite(2000, 10.0)[0, 0]
    assert abs(kb - ks) <= 1e-4 * abs(ks)


def _kinetic_semiinfinite_oracle(M, b):
    # the elementwise meshgrid build the 1-D table replaced
    dx = b / M
    i = np.arange(1, M, dtype=float)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    sign = (-1.0) ** (ii - jj)
    with np.errstate(divide="ignore"):
        off = 1.0 / (ii - jj) ** 2 - 1.0 / (ii + jj) ** 2
    t = sign * off
    np.fill_diagonal(t, math.pi**2 / 6.0 - 1.0 / (4.0 * i**2))
    return t / dx**2


def _kinetic_box_oracle(M, a):
    i = np.arange(1, M, dtype=float)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    sign = (-1.0) ** (ii - jj)
    with np.errstate(divide="ignore"):
        off = (1.0 / np.sin((ii - jj) * math.pi / (2 * M)) ** 2
               - 1.0 / np.sin((ii + jj) * math.pi / (2 * M)) ** 2)
    t = sign * off
    np.fill_diagonal(t, (2.0 * M**2 + 1.0) / 3.0
                     - 1.0 / np.sin(i * math.pi / M) ** 2)
    return t * math.pi**2 / (4.0 * a**2)


@pytest.mark.parametrize("M", [3, 4, 5, 64, 201, 301, 800])
@pytest.mark.parametrize("length", [1.0, 40.0])
def test_kinetic_bitwise_elementwise_oracle(M, length):
    # Toeplitz minus Hankel views of one table round every entry as the
    # elementwise formulas do, so the eigenvalues cannot move
    assert np.array_equal(dvr.kinetic_semiinfinite(M, length),
                          _kinetic_semiinfinite_oracle(M, length))
    assert np.array_equal(dvr.kinetic_box(M, length),
                          _kinetic_box_oracle(M, length))


def test_config_validation():
    for kinetic in (dvr.kinetic_semiinfinite, dvr.kinetic_box):
        for M, length in ((2, 1.0), (1, 1.0), (10, 0.0), (10, -1.0),
                          (10, math.nan), (10, math.inf)):
            with pytest.raises(ValueError):
                kinetic(M, length)


def _hamiltonian_oracle(p, M, length, x=None):
    # kinetic matrix plus the potential at the nodes x (the grid's by
    # default) as a diagonal matrix, built outside solve_spectrum
    if isinstance(p, HyperbolicParams):
        kinetic, potential = dvr.kinetic_semiinfinite, eval_hyperbolic
    else:
        kinetic, potential = dvr.kinetic_box, eval_trig
    x = dvr.grid(M, length) if x is None else x
    return kinetic(M, length) + np.diag(potential(p, x))


def test_hamiltonian_assembly(monkeypatch):
    # the matrix solve_spectrum hands to the eigensolver is the kinetic
    # matrix plus the diagonal potential, bit for bit, for either family
    eig_symmetric = linalg.eig_symmetric
    seen = []

    def spy(h, *args):
        seen.append(h.copy())
        return eig_symmetric(h, *args)

    monkeypatch.setattr(linalg, "eig_symmetric", spy)
    dvr.solve_spectrum(S1, 40, 7.0, count=2)
    dvr.solve_spectrum(S3, 40, count=2)
    assert np.array_equal(seen[0], _hamiltonian_oracle(S1, 40, 7.0))
    assert np.array_equal(seen[1], _hamiltonian_oracle(S3, 40, S3.a))
    # a non-finite potential is the eigensolver's to reject
    t = dvr.kinetic_box(10, 1.0)
    with pytest.raises(SolverError, match="not finite"):
        eig_symmetric(t + np.diag(np.full(9, np.inf)), 3)


def test_solve_spectrum_diagonal():
    w, _, _ = linalg.eig_symmetric(np.diag([4.0, 1.0]), 2)
    assert tuple(w) == (1.0, 4.0)


@pytest.mark.parametrize("p, M, length, count, config", [
    (S1, 200, 10.0, None, {"M": 200, "b": 10.0}),
    (S3, 300, S3.a, 10, {"M": 300, "a": S3.a})], ids=["S1", "S3"])
def test_solve_spectrum_bitwise_oracle(p, M, length, count, config):
    # every level below 0 of S1 and ten of the finite well, as eigh of the
    # independently assembled Hamiltonian gives them
    res = dvr.solve_spectrum(p, M, 10.0, count)
    w = np.linalg.eigh(_hamiltonian_oracle(p, M, length))[0]
    kept = count if count is not None else int(np.count_nonzero(w < 0.0))
    assert res.eigenvalues == tuple(float(e) for e in w[:kept])
    assert res.config == config


@pytest.mark.parametrize("p", [S1, S3], ids=["hyperbolic", "trig"])
def test_solve_spectrum_negative_count(p):
    with pytest.raises(ValueError, match="count must be >= 0"):
        dvr.solve_spectrum(p, count=-1)


def test_solve_spectrum_defaults_per_family():
    # M defaults per family, and b has no effect on the finite well
    assert dvr.solve_spectrum(S1).config == {"M": dvr.DEFAULT_M_HYPERBOLIC,
                                             "b": dvr.DEFAULT_B}
    trig = dvr.solve_spectrum(S3)
    assert trig.config == {"M": dvr.DEFAULT_M_TRIG, "a": S3.a}
    assert len(trig.eigenvalues) == dvr.TRIG_LEVELS
    assert dvr.solve_spectrum(S3, b=40.0) == trig


def _box_hamiltonian():
    return dvr.kinetic_box(40, 1.0) + np.diag(np.linspace(-5.0, 5.0, 39))


def _max_residual(h, w, v, k):
    # the contract's product, formed independently on the k lowest pairs and
    # taken relative to max(|h|, 1)
    scale = max(np.abs(h).sum(axis=1).max(), 1.0)
    return np.abs(h @ v[:, :k] - v[:, :k] * w[:k]).max(initial=0.0) / scale


def test_solve_spectrum_residual_of_kept_pairs():
    # the largest residual among the `count` kept pairs, not all pairs
    h = _box_hamiltonian()
    w, v = np.linalg.eigh(h)
    assert linalg.eig_symmetric(h, 0)[2] == 0.0
    for count in (1, 3, 39):
        got, _, resid = linalg.eig_symmetric(h, count)
        assert tuple(got) == tuple(w[:count])
        assert resid == _max_residual(h, w, v, count)


def test_hyperbolic_residual_of_bound_levels():
    # the continuum pairs above E = 0 are dropped, and so is their residual
    res = dvr.solve_spectrum(S1)
    h = _hamiltonian_oracle(S1, dvr.DEFAULT_M_HYPERBOLIC, dvr.DEFAULT_B)
    w, v = np.linalg.eigh(h)
    kept = len(res.eigenvalues)
    assert w[kept] >= 0.0 > w[kept - 1]
    assert res.eigenvalues == tuple(w[:kept])
    assert res.max_residual == _max_residual(h, w, v, kept)
    assert (dvr.solve_spectrum(S1, count=1).max_residual
            == _max_residual(h, w, v, 1))
    assert dvr.solve_spectrum(S1, count=0).max_residual == 0.0


def test_residual_contract_covers_kept_pairs_only(monkeypatch):
    # a wrong eigenvector among the returned pairs fails the contract; one
    # among the dropped pairs is never used, so it is not checked
    h = _box_hamiltonian()
    eigh = np.linalg.eigh

    def corrupted(column):
        def solve(a):
            w, v = eigh(a)
            v[:, column] = v[:, column + 1]
            return w, v
        return solve

    monkeypatch.setattr(np.linalg, "eigh", corrupted(2))
    with pytest.raises(SolverError):
        linalg.eig_symmetric(h, 3)
    with pytest.raises(SolverError):
        linalg.eig_symmetric(h)
    monkeypatch.setattr(np.linalg, "eigh", corrupted(3))
    w, v, resid = linalg.eig_symmetric(h, 3)
    assert tuple(w) == tuple(eigh(h)[0][:3])
    assert w.shape == (3,) and v.shape == (39, 3) and resid <= linalg.RESIDUAL_RTOL


def test_count_zero_keeps_no_pair():
    h = _box_hamiltonian()
    w, v, resid = linalg.eig_symmetric(h, 0)
    assert w.shape == (0,) and v.shape == (39, 0) and resid == 0.0
    for p in (S1, S3):
        res = dvr.solve_spectrum(p, count=0)
        assert res.eigenvalues == () and res.max_residual == 0.0
    w, _, resid = linalg.eig_symmetric(h, below=-math.inf)
    assert w.shape == (0,) and resid == 0.0


def test_hyperbolic_spectrum_s1():
    res = dvr.solve_spectrum(S1)
    assert len(res.eigenvalues) == 3
    assert res.eigenvalues[0] == pytest.approx(-17.292792568552, abs=1e-8)
    assert all(e < 0.0 for e in res.eigenvalues)
    assert list(res.eigenvalues) == sorted(res.eigenvalues)


def test_grid_refinement_convergence():
    e150 = dvr.solve_spectrum(S1, M=150).eigenvalues[0]
    e200 = dvr.solve_spectrum(S1, M=200).eigenvalues[0]
    assert abs(e200 - e150) < 1e-6


def test_isospectrality_reflection():
    # the mirror well V(a - x) on the same grid
    plain = dvr.solve_spectrum(S3).eigenvalues
    x = dvr.grid(dvr.DEFAULT_M_TRIG, S3.a)
    h = _hamiltonian_oracle(S3, dvr.DEFAULT_M_TRIG, S3.a, S3.a - x)
    mirror = np.linalg.eigh(h)[0][:len(plain)]
    for e1, e2 in zip(plain, mirror):
        assert abs(e1 - e2) <= 1e-10 * abs(e1)


def test_variational_bound():
    x = np.linspace(1e-3, 20.0, 20000)
    vmin = eval_hyperbolic(S1, x).min()
    for e in dvr.solve_spectrum(S1).eigenvalues:
        assert e > vmin


def test_trig_spectrum_s3():
    res = dvr.solve_spectrum(S3)
    assert res.eigenvalues[0] == pytest.approx(16.797026, abs=1e-4)
    assert len(res.eigenvalues) == 10
