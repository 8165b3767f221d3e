"""Higher-order finite-difference eigensolver.

The semi-infinite problem is compactified by s = (2/pi) arctan(zeta*x)
onto (0, 1) and discretized on a uniform grid with wide stencils of
maximal consistency order; the finite well needs only a rescaling to
(0, 1). The compactification scale zeta is retuned per eigenvalue
index, so the hyperbolic operator is rebuilt for every requested level.

The operator is real and nonsymmetric, and only its lowest few near-real
eigenvalues are wanted, so they come from a shift-invert Arnoldi solve
(`linalg.eig_shift_invert`) rather than a dense eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dvr import SpectrumResult
from .errors import ConfigError
from .potentials import (
    ASYMPTOTE,
    HyperbolicParams,
    TrigParams,
    eval_hyperbolic,
    eval_trig,
)

DEFAULT_M = 500
DEFAULT_K = 4


@dataclass(frozen=True)
class HofdConfig:
    """Uniform grid s_i = i/(M+1) with stencil half-width k."""

    M: int = DEFAULT_M
    k: int = DEFAULT_K

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.M < 2 * self.k + 2:
            raise ConfigError(f"need M >= 2k + 2, got M={self.M}, k={self.k}")

    @property
    def h(self) -> float:
        return 1.0 / (self.M + 1)

    @property
    def s(self) -> np.ndarray:
        """Interior nodes s_1 .. s_M."""
        return np.arange(1, self.M + 1) / (self.M + 1)


def zeta(j: int) -> float:
    """Compactification scale for eigenvalue index j >= 1."""
    if j < 1:
        raise ValueError("eigenvalue index must be >= 1")
    return 0.6 * j ** (-0.7)


def fd_weights(l: int, nodes: list[int], eval_offset: int) -> np.ndarray:
    """Finite-difference weights of maximal consistency order.

    The weights w_j make sum_j w_j f(node_j) the l-th derivative at
    eval_offset of the polynomial interpolating f on the nodes, so the
    stencil is exact on all monomials the node count supports. They come
    from Fornberg's recursion (Math. Comp. 51 (1988) 699), which adds one
    node at a time to the derivatives of the Lagrange basis and solves no
    linear system.
    """
    if l not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise ValueError("stencil nodes must be distinct")
    m = len(nodes)
    if m < l + 1:
        raise ValueError(f"need at least {l + 1} nodes for order-{l} derivative")
    # offsets from the evaluation point first: the weights then depend only
    # on them, bitwise, wherever the window sits on the grid
    d = [float(x - eval_offset) for x in nodes]
    # c[j][q]: weight of node j in the q-th derivative over the nodes so far
    c = [[1.0] + [0.0] * l] + [[0.0] * (l + 1) for _ in range(m - 1)]
    orders = range(l, 0, -1)  # descending: c[j][q - 1] still holds its old value
    c1 = 1.0  # prod_{j < i-1} (d[i-1] - d[j])
    for i in range(1, m):
        c2 = 1.0
        for j in range(i):
            c3 = d[i] - d[j]
            c2 *= c3
            cj = c[j]
            if j == i - 1:
                ci = c[i]
                for q in orders:
                    ci[q] = c1 * (q * cj[q - 1] - d[j] * cj[q]) / c2
                ci[0] = -c1 * d[j] * cj[0] / c2
            for q in orders:
                cj[q] = (d[i] * cj[q] - q * cj[q - 1]) / c3
            cj[0] = d[i] * cj[0] / c3
        c1 = c2
    return np.array([row[l] for row in c])


def delta_matrices(cfg: HofdConfig) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-derivative matrices on the interior nodes.

    Interior rows carry the centered 2k+1 stencil; rows within k of a wall
    use the maximally consistent one-sided stencil over the first (last)
    2k+1 grid points. Columns for the Dirichlet endpoints s_0 and s_{M+1}
    are dropped. The weights depend only on a row's offsets within its
    window, so 2k-1 weight sets serve all M rows: k-1 per wall and the
    centered one.
    """
    M, k, h = cfg.M, cfg.k, cfg.h
    # rows over the grid s_0 .. s_{M+1}; the endpoint columns are cut below
    d1 = np.zeros((M, M + 2))
    d2 = np.zeros((M, M + 2))
    left = list(range(0, 2 * k + 1))
    right = list(range(M + 1 - 2 * k, M + 2))
    for r in range(1, k):  # row s_r at the left wall, s_{M+1-r} at the right
        d1[r - 1, left] += fd_weights(1, left, r)
        d2[r - 1, left] += fd_weights(2, left, r)
        d1[M - r, right] += fd_weights(1, right, M + 1 - r)
        d2[M - r, right] += fd_weights(2, right, M + 1 - r)
    offsets = list(range(-k, k + 1))
    rows = np.arange(k, M + 2 - k)  # centered rows s_k .. s_{M+1-k}
    w1 = fd_weights(1, offsets, 0)
    w2 = fd_weights(2, offsets, 0)
    for c, o in enumerate(offsets):
        d1[rows - 1, rows + o] += w1[c]
        d2[rows - 1, rows + o] += w2[c]
    return d1[:, 1:-1] / h, d2[:, 1:-1] / h**2


def _mapped_nodes(cfg: HofdConfig, z: float) -> np.ndarray:
    """Physical coordinates x = tan(pi s / 2) / zeta of the interior nodes."""
    return np.tan(math.pi * cfg.s / 2.0) / z


def hyperbolic_operator(p: HyperbolicParams, cfg: HofdConfig, j: int) -> np.ndarray:
    """Compactified wave operator for the hyperbolic family at eigenvalue index j."""
    z = zeta(j)
    s = cfg.s
    cos_half = np.cos(math.pi * s / 2.0)
    sin_half = np.sin(math.pi * s / 2.0)
    a_diag = -(2.0 * z**2 / math.pi**2) * cos_half**4
    b_diag = (2.0 * z**2 / math.pi) * cos_half**3 * sin_half
    c_diag = eval_hyperbolic(p, _mapped_nodes(cfg, z))
    d1, d2 = delta_matrices(cfg)
    return a_diag[:, None] * d2 + b_diag[:, None] * d1 + np.diag(c_diag)


def box_operator(p: TrigParams, cfg: HofdConfig) -> np.ndarray:
    """Rescaled wave operator for the trigonometric family on (0, 1)."""
    _, d2 = delta_matrices(cfg)
    v = eval_trig(p, p.a * cfg.s)
    return -d2 / (2.0 * p.a**2) + np.diag(v)


def hofd_spectrum(p: HyperbolicParams | TrigParams, cfg: HofdConfig | None = None,
                  count: int = 3) -> SpectrumResult:
    """Lowest `count` eigenvalues via the finite-difference operator.

    For the hyperbolic family the operator is rebuilt per index j with the
    retuned zeta(j) and the j-th smallest near-real eigenvalue is taken,
    stopping at the first one at or above the asymptote (a continuum
    artifact, as in DVR); the finite well uses a single build. The solve
    is shifted to one below the minimum of the potential on the grid, left
    of every eigenvalue. (The operator's diagonal is no such bound: it
    carries the stencil's large diagonal too.)
    """
    cfg = cfg or HofdConfig()
    if count < 0:
        raise ValueError("count must be >= 0")
    eigenvalues: list[float] = []
    max_resid = 0.0
    if isinstance(p, HyperbolicParams):
        for j in range(1, count + 1):
            op = hyperbolic_operator(p, cfg, j)
            v = eval_hyperbolic(p, _mapped_nodes(cfg, zeta(j)))
            real, resid = linalg.eig_shift_invert(op, float(v.min()) - 1.0, j)
            lam = float(real[j - 1])
            if lam >= ASYMPTOTE:
                break
            max_resid = max(max_resid, resid)
            eigenvalues.append(lam)
    else:
        op = box_operator(p, cfg)
        v = eval_trig(p, p.a * cfg.s)
        real, max_resid = linalg.eig_shift_invert(op, float(v.min()) - 1.0, count)
        eigenvalues = [float(x) for x in real]
    return SpectrumResult(eigenvalues=tuple(eigenvalues),
                          config={"M": cfg.M, "k": cfg.k}, max_residual=max_resid)
