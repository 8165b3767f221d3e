"""Higher-order finite-difference eigensolver.

The semi-infinite problem is compactified by s = (2/pi) arctan(zeta*x)
onto (0, 1) and discretized on the uniform grid s_i = i/(M+1), i = 1..M,
with stencils of half-width k and maximal consistency order; the finite
well needs only a rescaling to (0, 1). The entry point
`hofd_spectrum(p, M, k, count)` takes the arguments of
`dvr.solve_spectrum(p, M, b, count)`, k in place of b, and checks M and k
itself (`grid_size`, which a caller can also run before other work). The
compactification scale zeta is retuned per eigenvalue index, so the
hyperbolic operator is rebuilt for every requested level. Each
build writes a*Delta2 + b*Delta1 + diag(V) straight from the 2k-1 stencil
weight pairs (`operator`), computed once per (order, k) in a process, and
samples the potential once, for the diagonal and the shift.

The operator is real and nonsymmetric, and only its lowest few near-real
eigenvalues are wanted, so they come from a shift-invert Arnoldi solve
(`linalg.eig_shift_invert`) rather than a dense eigendecomposition. Each
hyperbolic level after the first is solved from a shift between the level
below it and the asymptote, where it converges in fewer Krylov vectors
than from a shift left of the whole spectrum, and only that level has to
converge: the levels below it need only be present and matched. A row
reaches at most p = 2k - 1 columns from the diagonal (the one-sided wall
stencils), so the operator is built as its M x (2p + 1) band (the layout
of `linalg`), and the solve factors it by nested dissection in O(M)
work, where a dense inverse would cost O(M^3); no M x M operator is
formed. A level at or left of min V - 1 is a stencil artifact (wide
stencils make them) and raises SolverError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg
from .dvr import TRIG_LEVELS, SpectrumResult
from .errors import SolverError
from .potentials import (
    ASYMPTOTE,
    HyperbolicParams,
    TrigParams,
    eval_hyperbolic,
    eval_trig,
)

DEFAULT_M = 500
DEFAULT_K = 4


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


@functools.cache
def _weight_table(l: int, k: int) -> np.ndarray:
    """Order-l weights over the window 0..2k at nodes 1..2k-1 (shared: read-only)."""
    table = np.array([fd_weights(l, range(2 * k + 1), q) for q in range(1, 2 * k)])
    table.flags.writeable = False
    return table


def operator(M: int, k: int, a, b, c) -> np.ndarray:
    """a*Delta2 + b*Delta1 + diag(c) on the M interior nodes s_i = i h,
    h = 1/(M+1), over stencils of half-width k, with a, b and c per row
    (length-M arrays or scalars), as its band (`linalg`, p = 2k - 1).

    Delta1 and Delta2 are the maximally consistent first- and
    second-derivative stencils over 2k+1 grid points. Row s_i uses the
    window starting at s_t, t = clip(i - k, 0, M + 1 - 2k): centered away
    from the walls, one-sided within k of them. Columns for the Dirichlet
    endpoints s_0 and s_{M+1} are dropped. The weights depend only on where
    s_i sits in its window, so 2k-1 weight pairs serve all M rows: k-1 per
    wall and the centered one, computed once per (order, k) and shared.
    """
    h, p = 1.0 / (M + 1), 2 * k - 1
    i = np.arange(M)  # row i holds s_{i+1}
    start = np.clip(i + 1 - k, 0, M + 1 - 2 * k)
    window = np.arange(2 * k + 1)
    at = i - start  # s_{i+1} is node at + 1 (1 .. 2k-1) of its window
    w1 = _weight_table(1, k)[at] / h
    w2 = _weight_table(2, k)[at] / h**2
    a, b = (np.broadcast_to(x, (M,))[:, None] for x in (a, b))
    cols = start[:, None] + window - 1  # grid index t -> interior column t-1
    rows = np.broadcast_to(i[:, None], cols.shape)
    inside = (cols >= 0) & (cols < M)
    band = np.zeros((M, 2 * p + 1))
    # adding into zeros stores the +0.0 a dense sum would give
    band[rows[inside], (cols - rows + p)[inside]] += (a * w2 + b * w1)[inside]
    band[:, p] += c
    return band


def hyperbolic_operator(p: HyperbolicParams, M: int, k: int,
                        j: int) -> tuple[np.ndarray, np.ndarray]:
    """Compactified wave operator for the hyperbolic family at eigenvalue
    index j, and the potential it samples at x = tan(pi s / 2) / zeta."""
    z = zeta(j)
    s = np.arange(1, M + 1) / (M + 1)  # interior nodes s_1 .. s_M
    half = math.pi * s / 2.0
    cos_half = np.cos(half)
    v = eval_hyperbolic(p, np.tan(half) / z)
    a = -(2.0 * z**2 / math.pi**2) * cos_half**4
    b = (2.0 * z**2 / math.pi) * cos_half**3 * np.sin(half)
    return operator(M, k, a, b, v), v


def box_operator(p: TrigParams, M: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled wave operator for the trigonometric family on (0, 1), and
    the potential it samples at x = a s."""
    s = np.arange(1, M + 1) / (M + 1)  # interior nodes s_1 .. s_M
    v = eval_trig(p, p.a * s)
    # -Delta2 divided by 2a^2: scaling by -1/(2a^2) would round differently;
    # 2a^2 may underflow to 0, and the solver rejects the inf and nan it gives
    with np.errstate(divide="ignore", invalid="ignore"):
        op = operator(M, k, -1.0, 0.0, 0.0) / (2.0 * p.a**2)
    op[:, 2 * k - 1] += v  # the diagonal
    return op, v


def grid_size(M: int | None, k: int) -> int:
    """M, or DEFAULT_M if None; ValueError unless k >= 1 and M >= 2k + 2."""
    M = DEFAULT_M if M is None else M
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if M < 2 * k + 2:
        raise ValueError(f"need M >= 2k + 2, got M={M}, k={k}")
    return M


def hofd_spectrum(p: HyperbolicParams | TrigParams, M: int | None = None,
                  k: int = DEFAULT_K, count: int | None = None) -> SpectrumResult:
    """The `count` lowest levels of p's family, ascending, with the largest
    eigen-residual among them, on M interior nodes (DEFAULT_M if None) with
    stencil half-width k; ValueError unless k >= 1 and M >= 2k + 2. These
    are `dvr.solve_spectrum`'s arguments, k in place of b. With `count`
    None the finite well keeps TRIG_LEVELS levels, as in DVR, and the
    hyperbolic family at most TRIG_LEVELS below the asymptote.

    For the hyperbolic family the operator is rebuilt per index j with the
    retuned zeta(j) and the j-th smallest near-real eigenvalue is taken,
    stopping at the first one at or above the asymptote (a continuum
    artifact, as in DVR); the finite well uses a single build. The finite
    well and level j = 1 are solved from a shift of one below the minimum
    of the potential on the grid, left of every eigenvalue. (The
    operator's diagonal is no such bound: it carries the stencil's large
    diagonal too.) Each later level j is solved from the midpoint of level
    j - 1 and the asymptote, given the levels found so far: a bound level
    j lies nearer that shift than every level below it. A level at or
    left of that minimum less one raises SolverError (`_above`).
    """
    M = grid_size(M, k)
    count = TRIG_LEVELS if count is None else count
    if count < 0:
        raise ValueError("count must be >= 0")
    eigenvalues: list[float] = []
    max_resid = 0.0
    if isinstance(p, HyperbolicParams):
        for j in range(1, count + 1):
            op, v = hyperbolic_operator(p, M, k, j)
            floor = float(v.min()) - 1.0
            sigma = (eigenvalues[-1] + ASYMPTOTE) / 2.0 if eigenvalues else floor
            real, resid = linalg.eig_shift_invert(op, sigma, j, eigenvalues)
            lam = float(_above(real, floor)[0])
            if lam >= ASYMPTOTE:
                break
            max_resid = max(max_resid, resid)
            eigenvalues.append(lam)
    else:
        op, v = box_operator(p, M, k)
        floor = float(v.min()) - 1.0
        real, max_resid = linalg.eig_shift_invert(op, floor, count)
        eigenvalues = [float(x) for x in _above(real, floor)]
    return SpectrumResult(eigenvalues=tuple(eigenvalues),
                          config={"M": M, "k": k}, max_residual=max_resid)


def _above(levels: np.ndarray, floor: float) -> np.ndarray:
    """The ascending `levels`; SolverError if the lowest lies at or left of
    `floor`, one below the minimum of the potential on the grid. No level
    of the operator should lie there: one that does is an artifact of the
    stencil, and the shift placed at `floor` was not left of the whole
    spectrum, as the solve assumed."""
    if len(levels) and not levels[0] > floor:
        raise SolverError(f"level {levels[0]:.6g} lies at or below "
                          f"min V - 1 = {floor:.6g}: a stencil artifact")
    return levels
