"""Weighted Sturm-Liouville mode spectra and the bifurcation certificate.

Separating the linearized operator on a surface of revolution into angular
modes u(s) cos(m theta) gives, per mode m, the singular eigenproblem

    (1/r) [ (r/z^2) u' ]' - m^2 u / (r^2 z^2) + U u + lambda u = 0,
    u(boundary) = 0,   and additionally u(axis) = 0 for m >= 1,

with U the divergence-form potential of the linearization.  The profile is
analytic, so each mode is discretized by one Chebyshev collocation with the
polar parity fold (Trefethen, *Spectral Methods in MATLAB*, ch. 11): on tau
in [-ell, ell], r and p = r/z^2 are odd, z and U are even, and a mode-m
eigenfunction has parity (-1)^m, which is also its axis condition.  With N
odd, no node of the N + 1 Chebyshev points lies on the axis.  The
collocated operator, ``assemble_mode``, lives in ``linearized``, whose
``solve_h`` solves the kernel and the response h with its mode-0 matrix.

Known structure used as cross-checks: the first mode-1 eigenvalue is zero
with eigenfunction sin(phi) (horizontal translations), the mode-0 Dirichlet
spectrum starts negative and avoids zero, and modes m >= 2 are positive.
The certificate assembles these facts together with the fixed-boundary
family through the disc (a graph over the spontaneous curvature there,
followed through the folds of ``shooting.family_sweep``) and the
transversality scalar h_prime_boundary.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
# not called: perfbench's tracer wraps spectral.eigh_tridiagonal by name
from scipy.linalg import eigh_tridiagonal  # noqa: F401

from . import chebyshev
from .errors import IncompleteEvidence, SolverFailure
from .linearized import (
    _Level,
    _sample,
    assemble_mode,
    check_mode,
    operator_residual,
    solve_h,
)
from .shooting import family_sweep

#: eigenfunctions are reported on the mesh tau_k = ell (k/n)^1.5, graded
#: toward the axis, of n >= _MIN_CELLS cells
_MIN_CELLS = 200
#: a mode's degree runs 61 (6 k + 1 if larger, about where the k-th eigenvalue
#: settles), 91, 137, ... (about 1.5x, odd) up to _MAX_DEGREE until its lowest
#: k = max(count, _CHECKED) eigenvalues agree with the degree before to _AGREE
#: of the largest; they plateau at <= 4.5e-12 on curves integrated at rtol
#: 1e-10.  With fewer, mode 1's zero, rounding alone, could be the largest.
#: _MAX_COUNT is the largest count whose second degree, 9 k + 1 or 9 k + 2,
#: lies within _MAX_DEGREE
_FIRST_DEGREE = 61
_MAX_DEGREE = 691
_AGREE = 1e-10
_CHECKED = 6
_MAX_COUNT = (_MAX_DEGREE - 2) // 9
#: condition (i): the family is followed over c0 * (1 -/+ halfwidth) with
#: members at _FAMILY_POINTS curvatures; the odd count puts one on the disc
_FAMILY_POINTS = 5
_FAMILY_HALFWIDTH = 0.02
#: condition (i): smallest |t_c| of the disc's unit tangent that makes the
#: family a graph over c there; the tangent comes from the exact Jacobian of
#: the collocated member problem (``shooting._endpoint_jacobian``), and |t_c|
#: lies between 0.035 and 0.62 on the benchmark's circles
_MIN_DISC_SLOPE = 1e-3
#: condition (ii): zero band over the first mode-1 gap; on the reference discs
#: the zero eigenvalue is ~1e-12 of the gap and the next one >= 2e-2 of it
_ZERO_BAND_FACTOR = 1e-6


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenpairs of one angular mode.

    ``eigenvalues`` are those of ``matrix``, ``assemble_mode`` on ``level``,
    the first degree that agreed with the one before (``eigenvalues_coarse``).
    ``mesh``, tau_k = ell (k/mesh_cells)^1.5, ``eigenfunctions`` on it
    (Dirichlet zeros in place, unit r-weighted norm, largest value positive)
    and ``discrete_residuals``, the pairs' backward errors, are computed on
    first read.
    """

    m: int
    eigenvalues: np.ndarray
    eigenvalues_coarse: np.ndarray
    mesh_cells: int
    level: _Level = field(repr=False)
    matrix: np.ndarray = field(repr=False)

    @functools.cached_property
    def mesh(self):
        cells = self.mesh_cells
        return self.level.taus[0] * (np.arange(cells + 1, dtype=float) / cells) ** 1.5

    @functools.cached_property
    def _vectors(self):
        vals, vecs = np.linalg.eig(self.matrix)
        return vecs[:, np.argsort(vals.real)[: self.eigenvalues.size]].real

    @functools.cached_property
    def eigenfunctions(self):
        level, count = self.level, self.eigenvalues.size
        half = np.zeros((level.taus.size, count))
        half[1:] = self._vectors
        full = np.concatenate([half, (-1.0) ** self.m * half[::-1]])
        # unit r-weighted norm, by Gauss-Legendre on [0, ell]
        ell, x, w = level.taus[0], *np.polynomial.legendre.leggauss(level.n + 1)
        r_u = np.column_stack([np.concatenate([level.r, -level.r[::-1]]), full])
        r_u = chebyshev.barycentric(level.n, 0.5 * (x + 1.0), r_u)
        norms = np.sqrt(0.5 * ell * (w * r_u[:, 0]) @ r_u[:, 1:] ** 2)
        funcs = chebyshev.barycentric(level.n, self.mesh / ell, full) / norms
        peaks = np.argmax(np.abs(funcs), axis=0)
        funcs *= np.sign(funcs[peaks, np.arange(count)])
        funcs[[0, -1] if self.m else -1] = 0.0
        return funcs

    @functools.cached_property
    def discrete_residuals(self):
        A, v, vals = self.matrix, self._vectors, self.eigenvalues
        num = np.max(np.abs(A @ v - v * vals), axis=0)
        den = (np.max(np.abs(A).sum(axis=1)) + np.abs(vals)) * np.max(np.abs(v), axis=0)
        return num / den


@dataclass(frozen=True)
class BifurcationCertificate:
    """Numeric record of the three simple-eigenvalue bifurcation conditions.

    (i) a one-parameter fixed-boundary family exists through the tangential
    disc; (ii) the even-in-theta kernel of the linearization is one
    dimensional (a single zero eigenvalue, in mode 1); (iii) the
    transversality scalar h_prime_boundary is nonzero.  ``fold_c`` holds
    the nearest fold curvature c* of the family above and below c0 within
    the followed window, or None; ``disc_tangent`` is the family's unit
    tangent at the disc in scaled (c, z_o, L) and ``contact_angle_slope``
    dphi(L)/dc along it (see ``FamilySweep``), which the crossing form of
    condition (iii) equates with -h_prime_boundary.
    """

    kernel_dim_even: int
    h_prime_boundary: float
    m1_zero_residual: float
    m0_gap: float
    m2_gap: float
    conditions: dict
    verdict: str
    diagnostics: dict
    fold_c: dict = field(default_factory=lambda: {"above": None, "below": None})
    disc_tangent: tuple | None = None
    contact_angle_slope: float | None = None


def check_eigen_size(n, count):
    """Raise ValueError unless ``eigen_solve`` takes n cells and count pairs."""
    if n < _MIN_CELLS:
        raise ValueError(f"eigen mesh needs n >= {_MIN_CELLS} cells, got {n}")
    if not 1 <= count <= _MAX_COUNT:
        raise ValueError(f"eigenpair count must lie in [1, {_MAX_COUNT}], got {count}")


def check_certify_size(count):
    """Raise ValueError unless ``certify`` takes count pairs per mode; its
    zero band is a share of the first mode-1 gap, which needs two pairs."""
    if not 2 <= count <= _MAX_COUNT:
        raise ValueError(f"certify needs count >= 2 for the first mode-1 gap "
                         f"and count <= {_MAX_COUNT}, got {count}")


def eigen_solve(curve, modes, count, n=1536):
    """Lowest ``count`` eigenpairs of each of ``modes`` by Chebyshev collocation.

    A mode's degree rises from ``_FIRST_DEGREE`` (or 6 k + 1) by about 1.5x
    until its lowest k = max(count, ``_CHECKED``) eigenvalues agree with the
    degree before to ``_AGREE`` of the largest of them; each degree samples
    the curve once for all modes still pending.  No agreement by
    ``_MAX_DEGREE``, or a complex eigenvalue among the lowest ``count``,
    raises ``SolverFailure``.  n sets only where the eigenfunctions are
    reported: the 2n-cell mesh tau_k = ell (k/2n)^1.5.
    Returns ``{m: EigenResult}``; sizes are checked by ``check_eigen_size``.
    """
    check_eigen_size(n, count)
    for m in modes:
        check_mode(m)
    checked = max(count, _CHECKED)
    results, previous, moved = {}, {}, {}
    pending = list(dict.fromkeys(modes))
    degree = max(_FIRST_DEGREE, 6 * checked + 1)
    while pending and degree <= _MAX_DEGREE:
        level = _sample(curve, degree)
        for m in pending:
            A = assemble_mode(level, m, degree)
            vals = np.sort_complex(np.linalg.eigvals(A))[:checked]
            if np.any(vals[:count].imag != 0.0):
                raise SolverFailure(f"mode {m} at degree {degree}: a complex "
                                    f"eigenvalue among the lowest {count}")
            vals = vals.real
            if m in previous:
                moved[m] = np.max(np.abs(vals - previous[m])) / np.max(np.abs(vals))
                if moved[m] <= _AGREE:
                    results[m] = EigenResult(m, vals[:count], previous[m][:count],
                                             2 * n, level, A)
            previous[m] = vals
        pending = [m for m in pending if m not in results]
        degree = chebyshev.next_degree(degree)
    if pending:
        m = pending[0]
        last = f"; the last two moved by {moved[m]:.1e}" if m in moved else ""
        raise SolverFailure(f"mode {m}: no two collocation degrees up to {_MAX_DEGREE} "
                            f"agree on the lowest {checked} eigenvalues to {_AGREE:g} "
                            f"of the largest{last}")
    return {m: results[m] for m in modes}


def kernel_residual_m1(curve):
    """FD sup residual of sin(phi) in the mode-1, lambda = 0 equation.

    sin(phi) is the vertical velocity of the generating curve and spans the
    mode-1 kernel exactly (horizontal translation invariance), so this is a
    direct probe of the separated operator coefficients.  The 1000-point
    resample is moderate for the same reason as residual_Pnu3's.
    """
    taus = np.linspace(0.02 * curve.ell, 0.98 * curve.ell, 1000)
    _, _, phi = curve.state_at(taus)
    return operator_residual(curve, taus, np.sin(phi), mode=1)


def certify(sigma0, lin=None, *, count=6):
    """Assemble the bifurcation certificate on a tangential disc.

    Condition (i) is witnessed by the fixed-boundary family through the
    disc (``family_sweep`` over c0 (1 -/+ ``_FAMILY_HALFWIDTH``) at
    ``_FAMILY_POINTS`` curvatures): the c-component t_c of its unit tangent
    at the disc is at least ``_MIN_DISC_SLOPE`` in modulus, so the family is
    a graph over c there, and it is followed each way to the window's end or
    through the first fold, with every member matched below the shooting
    tolerance.  Curvatures beyond a fold are not members of the family and
    do not count against it; the folds go to ``fold_c``.  Condition (ii) is
    a single zero eigenvalue (within ``_ZERO_BAND_FACTOR`` times the first
    mode-1 spectral gap) across modes 0, 1, 2, located in mode 1;
    ``m1_zero_residual``, that eigenvalue's modulus, is rounding of the
    eigen solve (at most 6e-11 on the benchmark's circles) and means only
    its size against ``zero_band``.  Condition (iii) is the transversality
    scalar h_prime_boundary exceeding 1000x the tolerance of the curve
    ``lin`` was solved on, 1e3 (lin.rtol max(1, |h_prime_boundary|) +
    lin.atol); the family's ``contact_angle_slope`` at the disc, its
    crossing form, is recorded beside it, and each member's (c, z_o, ell,
    contact_angle) goes to the diagnostics as ``family_members``.  Surfaces
    outside the tangential-disc parameter region get verdict
    "not_applicable".  Sizes are checked by ``check_certify_size``.
    """
    check_certify_size(count)
    params = sigma0.params
    if not params.sigma0_admissible:
        return BifurcationCertificate(
            kernel_dim_even=0,
            h_prime_boundary=math.nan,
            m1_zero_residual=math.nan,
            m0_gap=math.nan,
            m2_gap=math.nan,
            conditions={"i": False, "ii": False, "iii": False},
            verdict="not_applicable",
            diagnostics={"reason": "parameters outside z_o < -1/c_o"},
        )
    if sigma0.curve is None:
        raise IncompleteEvidence("tangential disc curve missing", ["curve"])
    if lin is None:
        lin = solve_h(sigma0.curve)

    eigs = eigen_solve(sigma0.curve, (0, 1, 2), count)
    lam1 = eigs[1].eigenvalues
    gap_scale = float(lam1[1] - lam1[0])
    zero_band = _ZERO_BAND_FACTOR * gap_scale
    near_zero = {
        m: int(np.sum(np.abs(e.eigenvalues) < zero_band)) for m, e in eigs.items()
    }
    kernel_dim_even = sum(near_zero.values())
    m1_zero_residual = float(np.min(np.abs(lam1)))
    m0_gap = float(np.min(np.abs(eigs[0].eigenvalues)))
    m2_gap = float(np.min(np.abs(eigs[2].eigenvalues)))

    c0 = params.c_o
    sweep = family_sweep(
        sigma0.circle,
        c0 * (1.0 - _FAMILY_HALFWIDTH),
        c0 * (1.0 + _FAMILY_HALFWIDTH),
        _FAMILY_POINTS,
        sigma0=sigma0,
    )
    beyond_fold = [c for c, _ in sweep.failures if sweep.beyond_fold(c, c0)]
    family_failures = [f for f in sweep.failures if f[0] not in beyond_fold]
    disc_tangent = None
    if sweep.tangent is not None:
        disc_tangent = tuple(float(v) for v in sweep.tangent)
        if not abs(disc_tangent[0]) >= _MIN_DISC_SLOPE:
            family_failures.insert(0, (c0, (
                f"fold at the disc: |t_c| = {abs(disc_tangent[0]):.3e} is below "
                f"{_MIN_DISC_SLOPE:g}"
            )))
    cond_i = disc_tangent is not None and not family_failures

    cond_ii = (
        kernel_dim_even == 1
        and near_zero[1] == 1
        and m0_gap > zero_band
        and m2_gap > zero_band
    )

    h_prime = lin.h_prime_boundary
    transversality_floor = 1e3 * (lin.rtol * max(1.0, abs(h_prime)) + lin.atol)
    cond_iii = abs(h_prime) > transversality_floor

    verdict = "pass" if (cond_i and cond_ii and cond_iii) else "fail"
    return BifurcationCertificate(
        kernel_dim_even=kernel_dim_even,
        h_prime_boundary=lin.h_prime_boundary,
        m1_zero_residual=m1_zero_residual,
        m0_gap=m0_gap,
        m2_gap=m2_gap,
        conditions={"i": cond_i, "ii": cond_ii, "iii": cond_iii},
        verdict=verdict,
        diagnostics={
            "zero_band": zero_band,
            "gap_scale_m1": gap_scale,
            "near_zero_counts": near_zero,
            "eigenvalues": {m: e.eigenvalues.tolist() for m, e in eigs.items()},
            "family_count": len(sweep.members),
            "family_members": [
                {"c": m.c, "z_o": m.z_o, "ell": m.ell, "contact_angle": m.contact_angle}
                for m in sweep.members
            ],
            "family_failures": family_failures,
            "beyond_fold": beyond_fold,
            "transversality_floor": transversality_floor,
            "collocation_nodes": {m: e.level.n for m, e in eigs.items()},
        },
        fold_c=dict(sweep.folds),
        disc_tangent=disc_tangent,
        contact_angle_slope=sweep.contact_angle_slope,
    )
