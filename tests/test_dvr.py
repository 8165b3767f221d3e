import math

import numpy as np
import pytest

from ptbound import dvr, linalg
from ptbound.errors import DomainError, SolverError
from ptbound.potentials import HyperbolicParams, TrigParams, eval_hyperbolic

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
        for M, length in ((2, 1.0), (1, 1.0), (10, 0.0), (10, -1.0)):
            with pytest.raises(ValueError):
                kinetic(M, length)


def test_hamiltonian_assembly():
    t = dvr.kinetic_box(10, 1.0)
    h = dvr.hamiltonian(t, np.zeros(9))
    assert np.array_equal(h, t)
    v = np.arange(9.0)
    h = dvr.hamiltonian(t, v)
    assert np.allclose(np.diag(h) - np.diag(t), v)
    with pytest.raises(DomainError):
        dvr.hamiltonian(t, np.full(9, np.inf))
    with pytest.raises(ValueError):
        dvr.hamiltonian(t, np.zeros(5))


def test_solve_spectrum_diagonal():
    res = dvr.solve_spectrum(np.diag([4.0, 1.0]), 2)
    assert res.eigenvalues == (1.0, 4.0)


def _box_hamiltonian():
    return dvr.hamiltonian(dvr.kinetic_box(40, 1.0), np.linspace(-5.0, 5.0, 39))


def _max_residual(h, w, v, k):
    # the contract's product, formed independently on the k lowest pairs
    return np.abs(h @ v[:, :k] - v[:, :k] * w[:k]).max(initial=0.0)


def test_solve_spectrum_residual_of_kept_pairs():
    # the largest residual among the `count` kept pairs, not all pairs
    h = _box_hamiltonian()
    w, v = np.linalg.eigh(h)
    assert dvr.solve_spectrum(h, 0).max_residual == 0.0
    for count in (1, 3, 39):
        res = dvr.solve_spectrum(h, count)
        assert res.eigenvalues == tuple(w[:count])
        assert res.max_residual == _max_residual(h, w, v, count)


def test_hyperbolic_residual_of_bound_levels():
    # the continuum pairs above E = 0 are dropped, and so is their residual
    res = dvr.hyperbolic_spectrum(S1)
    x = dvr.grid(dvr.DEFAULT_M_HYPERBOLIC, dvr.DEFAULT_B)
    h = dvr.hamiltonian(dvr.kinetic_semiinfinite(dvr.DEFAULT_M_HYPERBOLIC,
                                                 dvr.DEFAULT_B),
                        eval_hyperbolic(S1, x))
    w, v = np.linalg.eigh(h)
    kept = len(res.eigenvalues)
    assert w[kept] >= 0.0 > w[kept - 1]
    assert res.eigenvalues == tuple(w[:kept])
    assert res.max_residual == _max_residual(h, w, v, kept)
    assert (dvr.hyperbolic_spectrum(S1, count=1).max_residual
            == _max_residual(h, w, v, 1))
    assert dvr.hyperbolic_spectrum(S1, count=0).max_residual == 0.0


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
        dvr.solve_spectrum(h, 3)
    with pytest.raises(SolverError):
        linalg.eig_symmetric(h)
    monkeypatch.setattr(np.linalg, "eigh", corrupted(3))
    res = dvr.solve_spectrum(h, 3)
    assert res.eigenvalues == tuple(eigh(h)[0][:3])
    w, v, resid = linalg.eig_symmetric(h, 3)
    assert w.shape == (3,) and v.shape == (39, 3) and resid.shape == (3,)


def test_count_zero_keeps_no_pair():
    h = _box_hamiltonian()
    w, v, resid = linalg.eig_symmetric(h, 0)
    assert w.shape == (0,) and v.shape == (39, 0) and resid.shape == (0,)
    res = dvr.solve_spectrum(h, 0)
    assert res.eigenvalues == () and res.max_residual == 0.0
    w, _, resid = linalg.eig_symmetric(h, below=-math.inf)
    assert w.shape == (0,) and resid.shape == (0,)


def test_hyperbolic_spectrum_s1():
    res = dvr.hyperbolic_spectrum(S1)
    assert len(res.eigenvalues) == 3
    assert res.eigenvalues[0] == pytest.approx(-17.292792568552, abs=1e-8)
    assert all(e < 0.0 for e in res.eigenvalues)
    assert list(res.eigenvalues) == sorted(res.eigenvalues)


def test_grid_refinement_convergence():
    e150 = dvr.hyperbolic_spectrum(S1, M=150).eigenvalues[0]
    e200 = dvr.hyperbolic_spectrum(S1, M=200).eigenvalues[0]
    assert abs(e200 - e150) < 1e-6


def test_isospectrality_reflection():
    plain = dvr.trig_spectrum(S3, reflected=False).eigenvalues
    mirror = dvr.trig_spectrum(S3, reflected=True).eigenvalues
    for e1, e2 in zip(plain, mirror):
        assert abs(e1 - e2) <= 1e-10 * abs(e1)


def test_variational_bound():
    x = np.linspace(1e-3, 20.0, 20000)
    vmin = eval_hyperbolic(S1, x).min()
    for e in dvr.hyperbolic_spectrum(S1).eigenvalues:
        assert e > vmin


def test_trig_spectrum_s3():
    res = dvr.trig_spectrum(S3)
    assert res.eigenvalues[0] == pytest.approx(16.797026, abs=1e-4)
    assert len(res.eigenvalues) == 10
