import math

import numpy as np
import pytest

from ptbound import dvr, linalg
from ptbound.errors import ConfigError, DomainError
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


def test_config_validation():
    with pytest.raises(ConfigError):
        dvr.kinetic_semiinfinite(2, 1.0)


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


def test_solve_spectrum_residual_of_kept_pairs():
    # the largest residual among the `count` kept pairs, not all pairs
    h = dvr.hamiltonian(dvr.kinetic_box(40, 1.0), np.linspace(-5.0, 5.0, 39))
    _, _, resid = linalg.eig_symmetric(h)
    assert dvr.solve_spectrum(h, 0).max_residual == 0.0
    for count in (1, 3, 39):
        assert dvr.solve_spectrum(h, count).max_residual == resid[:count].max()


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
