"""Test-only references: conversions between dense matrices and the band
layout of `ptbound.linalg` (band[i, r] = a[i, i - p + r]), the dense
eigensolve that the banded solver is held to, a count of its Krylov
vectors, a runner of the CLI in a child process, and the terminating
hypergeometric sum and closed-form norm of the Jacobi polynomials Q_n that
the recursion `tra._q_forward` is held to."""

import math
import os
import subprocess
import sys

import numpy as np

import ptbound
from ptbound import linalg
from ptbound.errors import TraValidityError


def _band_index(n, p):
    """Row and column of a for every cell of an n x (2p + 1) band, and
    whether that cell falls inside the matrix."""
    i, r = np.indices((n, 2 * p + 1))
    j = i - p + r
    return i, j, (j >= 0) & (j < n)


def band(a, p):
    """The n x (2p + 1) band of the square matrix a, which must have no
    entry farther than p from the diagonal."""
    i, j, inside = _band_index(len(a), p)
    out = np.zeros(i.shape)
    out[inside] = a[i[inside], j[inside]]
    assert np.array_equal(dense(out), a, equal_nan=True), "a reaches beyond p"
    return out


def dense(band):
    """The square matrix stored as `band`."""
    n, width = band.shape
    i, j, inside = _band_index(n, width // 2)
    a = np.zeros((n, n))
    a[i[inside], j[inside]] = band[inside]
    return a


def eig_general(a):
    """All eigenvalues (complex) and right eigenvectors of a real square
    matrix, by dense LAPACK: the reference for `linalg.eig_shift_invert`."""
    return np.linalg.eig(np.asarray(a, dtype=float))


def near_real_sorted(w):
    """Real parts of the eigenvalues near the real axis
    (`linalg.near_real_order`), ascending."""
    return w[linalg.near_real_order(w)].real


def count_shifted_solves(monkeypatch):
    """Patch `linalg.shifted_solver` to count its solves, one per Krylov
    vector; returns the list of counts, one per factorization."""
    solves = []
    factor = linalg.shifted_solver

    def counted(band, sigma):
        solve = factor(band, sigma)
        solves.append(0)

        def step(b):
            solves[-1] += 1
            return solve(b)
        return step

    monkeypatch.setattr(linalg, "shifted_solver", counted)
    return solves


def run_cli_child(argv, run=subprocess.run, **kw):
    """`python -m ptbound.cli *argv` in a child process that imports this
    package; `run` is subprocess.run or Popen, and `kw` goes to it (an
    `env` is laid over the parent's environment)."""
    src = os.path.dirname(os.path.dirname(ptbound.__file__))
    env = {**os.environ, "PYTHONPATH": src, **kw.pop("env", {})}
    return run([sys.executable, "-m", "ptbound.cli", *argv], env=env, **kw)


def pochhammer(x, n):
    """Rising factorial (x)_n by iterated product (safe at negative x)."""
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def hyp_sum(n, mu, nu, y):
    """Q_n(y) from its terminating hypergeometric sum, independent of the
    recursion; returns (value, cancellation scale)."""
    total, mag = 0.0, 0.0
    for k in range(n + 1):
        term = (pochhammer(-n, k) * pochhammer(n + mu + nu + 1, k)
                / (pochhammer(mu + 1, k) * math.factorial(k))
                * ((1.0 - y) / 2.0) ** k)
        total += term
        mag += abs(term)
    pre = pochhammer(mu + 1, n) / math.factorial(n)
    return pre * total, abs(pre) * mag


def jacobi_q_norm(n, mu, nu):
    """Squared weighted L2 norm of Q_n on [1, inf), closed Gamma form;
    TraValidityError on a Gamma pole."""
    try:
        num = (math.gamma(n + mu + 1) * math.gamma(n + nu + 1)
               * math.gamma(-n - mu - nu))
        den = math.gamma(n + 1) * math.gamma(-nu) * math.gamma(nu + 1)
    except ValueError as exc:
        raise TraValidityError(f"Gamma pole in norm formula: {exc}") from exc
    return ((-1.0) ** (n + 1) * 2.0 ** (mu + nu + 1)
            / (2 * n + mu + nu + 1) * num / den)
