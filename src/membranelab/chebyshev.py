"""Chebyshev points, barycentric interpolation and the parity fold.

On the degree-n grid x_j = cos(pi j/n), j = 0..n, of [-1, 1], node n - j is
the mirror -x_j of node j.  A function of parity s (f(-x) = s f(x)) is then
known from its values at the (n + 1)/2 nodes x > 0 (n odd, so no node lies
at 0), and a matrix acting on the whole grid folds onto those nodes: the
columns of the mirror nodes add to those of their images with the sign s
(Trefethen, *Spectral Methods in MATLAB*, ch. 11).  ``spectral`` and
``shooting`` both work on this grid, and ``FoldedInterpolant`` reads a
collocated curve between its nodes.
"""

import functools
import types

import numpy as np
from numpy.polynomial import chebyshev


def points(n):
    """cos(pi j/n), j = 0..n, written so that point n - j is exactly -point j."""
    return np.sin(0.5 * np.pi * (n - 2 * np.arange(n + 1)) / n)


def next_degree(n):
    """The odd degree about 1.5 n that follows n in a self-convergence run."""
    return int(1.5 * n) | 1


def barycentric(n, x, values):
    """The degree-n interpolant of ``values`` at ``points(n)``, at x."""
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] *= 0.5
    # one (x, nodes) array: the differences, then the weights over them
    c = np.subtract.outer(x, points(n))
    hit = c == 0.0
    c[hit] = 1.0
    np.divide(w, c, out=c)
    out = (c @ values) / c.sum(axis=1)[:, None]
    # an x on a node reads its value; the nodes are distinct
    rows = np.flatnonzero(hit.any(axis=1))
    out[rows] = values[hit[rows].argmax(axis=1)]
    return out


class FoldedInterpolant:
    """Degree-n interpolants of columns given at the nodes tau > 0 of the
    degree-n grid stretched to [-ell, ell].

    ``taus`` ascend to ell, so n = 2 taus.size - 1; column k of ``columns``
    is continued to tau < 0 with the parity signs[k], and read back plus
    shifts[k] if given (phi = pi + psi, psi odd).  Called on an array of
    tau it returns one row per column, as ``ode.DenseOutput`` does; ``at``
    takes a float and returns a tuple of floats.  A node reads its own
    value.
    """

    def __init__(self, taus, columns, signs, shifts=None):
        half = np.column_stack(columns)
        self._n = 2 * taus.size - 1
        self._ell = taus[-1]
        self._full = np.concatenate([half[::-1], np.asarray(signs, dtype=float) * half])
        self._shifts = shifts

    def __call__(self, tau):
        out = barycentric(self._n, np.reshape(tau, -1) / self._ell, self._full)
        if self._shifts is not None:
            out += self._shifts
        return out.T

    def at(self, tau):
        return tuple(self(float(tau))[:, 0].tolist())


def _fold(A, h):
    """{s: A folded onto the first h nodes for functions of parity s},
    read-only."""
    mirror = A[:, ::-1][:, :h]
    folded = {1: A[:, :h] + mirror, -1: A[:, :h] - mirror}
    for B in folded.values():
        B.setflags(write=False)
    return types.MappingProxyType(folded)


@functools.cache
def folded_derivative(n):
    """d/dx at the nodes x > 0 of the degree-n grid on [-1, 1].

    Returns the mapping {s: (n + 1)/2-square matrix} for functions of
    parity s: the rows x > 0 of the differentiation matrix (Trefethen,
    cheb.m), with the node differences x_i - x_j as a product of sines,
    free of cancellation.  It is computed once per degree and read-only:
    d/dtau on [-ell, ell] is it over ell.
    """
    h = (n + 1) // 2
    i, j = np.arange(h)[:, None], np.arange(n + 1)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    dx = 2.0 * np.sin(0.5 * np.pi * (i + j) / n) * np.sin(0.5 * np.pi * (j - i) / n)
    np.fill_diagonal(dx, np.inf)
    D = c[:h, None] / (c * dx)
    np.fill_diagonal(D, -D.sum(axis=1))
    return _fold(D, h)


@functools.cache
def folded_integral(n):
    """Integral from 0 to x at the nodes x > 0, as the read-only {s:
    matrix} like ``folded_derivative``, computed once per degree.

    It is that of the degree-n interpolant, exact in its Chebyshev
    coefficients (a discrete cosine transform of the values), so the
    antiderivative of an odd function has degree n + 1.
    """
    j = np.arange(n + 1)
    half = np.where((j == 0) | (j == n), 0.5, 1.0)
    # cos(pi j k/n) with j k reduced mod 2 n, so the angle stays exact
    to_coef = (2.0 / n) * half[:, None] * half * np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n)
    k = np.arange(n + 2)
    at_nodes = np.cos(np.pi * (np.outer(j[: (n + 1) // 2], k) % (2 * n)) / n)
    return _fold(at_nodes @ chebyshev.chebint(to_coef, lbnd=0.0), (n + 1) // 2)
