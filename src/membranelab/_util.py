"""Small numerical helpers: finite differences and composite Gauss quadrature."""

import numpy as np

# 4th order centered first-derivative stencil, valid at indices 2..n-3
_FD1_4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def fd1(y, h):
    """First derivative of uniformly sampled y, 4th order in the interior.

    The two points at each end are filled with 2nd order one-sided/centered
    formulas; callers that need the full 4th order accuracy should trim two
    points per side (see ``fd_interior_slice``).
    """
    y = np.asarray(y, dtype=float)
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[1] = (y[2] - y[0]) / (2.0 * h)
    d[-2] = (y[-1] - y[-3]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d


def fd2(y, h):
    """Second derivative of uniformly sampled y, 4th order in the interior."""
    y = np.asarray(y, dtype=float)
    d = np.empty_like(y)
    d[2:-2] = (
        -y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]
    ) / (12.0 * h * h)
    d[1] = (y[0] - 2.0 * y[1] + y[2]) / (h * h)
    d[-2] = (y[-3] - 2.0 * y[-2] + y[-1]) / (h * h)
    d[0] = d[1]
    d[-1] = d[-2]
    return d


def fd_interior_slice(n, pad=4):
    """Index slice on which stacked 4th order stencils are fully accurate."""
    return slice(pad, n - pad)


def gauss_panels(a_edges, b_edges, npts):
    """Gauss-Legendre nodes and weights for a batch of intervals.

    Returns (nodes, weights) with shape (len(a_edges), npts); integrating a
    vectorized f over every interval is (f(nodes) * weights).sum(axis=1).
    """
    x, w = np.polynomial.legendre.leggauss(npts)
    a = np.asarray(a_edges, dtype=float)[:, None]
    b = np.asarray(b_edges, dtype=float)[:, None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x[None, :], half * w[None, :]


def cumulative_gauss(f, knots):
    """Cumulative integral of vectorized f from knots[0] to every knot.

    Composite Gauss-Legendre with 6 nodes per knot interval; exact for
    polynomials of degree 11, which makes the quadrature error negligible
    against the dense-output interpolation it is applied to.
    """
    knots = np.asarray(knots, dtype=float)
    nodes, weights = gauss_panels(knots[:-1], knots[1:], 6)
    panel = (f(nodes.ravel()).reshape(nodes.shape) * weights).sum(axis=1)
    out = np.empty_like(knots)
    out[0] = 0.0
    np.cumsum(panel, out=out[1:])
    return out
