"""Conversions between dense matrices and the band layout of `ptbound.linalg`
(band[i, r] = a[i, i - p + r]), for tests that state a matrix densely."""

import numpy as np


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
