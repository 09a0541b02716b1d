"""Weighted Sturm-Liouville mode spectra and the bifurcation certificate.

Separating the linearized operator on a surface of revolution into angular
modes u(s) cos(m theta) gives, per mode m, the singular eigenproblem

    (1/r) [ (r/z^2) u' ]' - m^2 u / (r^2 z^2) + U u + lambda u = 0,
    u(boundary) = 0,   and additionally u(axis) = 0 for m >= 1,

with U the divergence-form potential of the linearization.  Multiplying by
r puts this in flux form with coefficient p = r/z^2 and weight r, which is
discretized here by conservative finite volumes on a mesh graded toward the
axis.  The assembled pencil (A, B) is symmetric tridiagonal with diagonal
positive B, so eigenpairs come from a standard symmetric tridiagonal solve
after a congruence by B^(-1/2); eigenvalues are Richardson extrapolated
from two meshes.

Known structure used as cross-checks: the first mode-1 eigenvalue is zero
with eigenfunction sin(phi) (horizontal translations), the mode-0 Dirichlet
spectrum starts negative and avoids zero, and modes m >= 2 are positive.
The certificate assembles these facts together with the fixed-boundary
family through the disc (a graph over the spontaneous curvature there,
followed through the folds of ``shooting.family_sweep``) and the
transversality scalar h_prime_boundary.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ._util import gauss_panels
from .errors import GridTooCoarse, IncompleteEvidence, SolverFailure
from .linearized import operator_residual, radial_operator_coeffs, solve_h
from .shooting import family_sweep

#: mesh grading exponent: tau_k = ell * (k/n)^1.5 clusters nodes at the axis
_GRADING = 1.5
_GAUSS_PTS = 7
_MIN_CELLS = 200
#: condition (i): the family is followed over c0 * (1 -/+ halfwidth) with
#: members at _FAMILY_POINTS curvatures; the odd count puts one on the disc
_FAMILY_POINTS = 5
_FAMILY_HALFWIDTH = 0.02
#: condition (i): smallest |t_c| of the disc's unit tangent that makes the
#: family a graph over c there; the tangent comes from variations held to
#: 1e-6, and |t_c| lies between 0.035 and 0.62 on the benchmark's circles
_MIN_DISC_SLOPE = 1e-3
#: condition (ii): zero band over the first mode-1 gap; on the reference discs
#: the zero eigenvalue is ~1e-12 of the gap and the next one >= 2e-2 of it
_ZERO_BAND_FACTOR = 1e-6


@dataclass(frozen=True)
class ModeOperator:
    """Discrete flux-form pencil (A, B) for one angular mode.

    ``diag``/``offdiag`` are the tridiagonal entries of A over the unknown
    nodes ``taus[first:last]``; ``weights`` is the diagonal of B (control
    volume integrals of the weight r).  The assembly is symmetric by
    construction.
    """

    m: int
    taus: np.ndarray
    first: int
    diag: np.ndarray
    offdiag: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenpairs of one angular mode.

    ``eigenvalues`` are Richardson extrapolated from the two meshes
    (``eigenvalues_coarse``/``eigenvalues_fine``); eigenfunctions live on
    the fine mesh ``mesh`` (boundary nodes included, Dirichlet zeros in
    place) and are normalized to unit weighted norm.
    """

    m: int
    eigenvalues: np.ndarray
    eigenvalues_fine: np.ndarray
    eigenvalues_coarse: np.ndarray
    mesh: np.ndarray
    eigenfunctions: np.ndarray
    discrete_residuals: np.ndarray


@dataclass(frozen=True)
class BifurcationCertificate:
    """Numeric record of the three simple-eigenvalue bifurcation conditions.

    (i) a one-parameter fixed-boundary family exists through the tangential
    disc; (ii) the even-in-theta kernel of the linearization is one
    dimensional (a single zero eigenvalue, in mode 1); (iii) the
    transversality scalar h_prime_boundary is nonzero.  ``fold_c`` holds
    the nearest fold curvature c* of the family above and below c0 within
    the followed window, or None; ``disc_tangent`` is the family's unit
    tangent at the disc in scaled (c, z_o, L) (see ``FamilySweep``).
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


def _mode_grid(curve, n):
    k = np.arange(n + 1, dtype=float)
    return curve.ell * (k / n) ** _GRADING


@dataclass(frozen=True)
class _DiscSamples:
    """What every mode's pencil on one n-cell mesh reads from the curve.

    ``flux`` is p = r/z^2 at the interval midpoints over the interval
    widths; ``W`` holds the node-wise control volume integrals of the
    weight r; ``rzz`` = r z^2 and ``minus_rU`` = -r U are the samples at
    the Gauss nodes ``wts`` integrate, the left interval halves first.
    """

    taus: np.ndarray
    flux: np.ndarray
    W: np.ndarray
    rzz: np.ndarray
    minus_rU: np.ndarray
    wts: np.ndarray


def _sample_disc(curve, n):
    taus = _mode_grid(curve, n)
    h = np.diff(taus)
    mids = 0.5 * (taus[:-1] + taus[1:])
    r_m, z_m, _ = curve.state_at(mids)
    p_mid = r_m / (z_m * z_m)

    # Gauss panels over interval halves; left halves feed node j, right j+1
    halves_a = np.concatenate([taus[:-1], mids])
    halves_b = np.concatenate([mids, taus[1:]])
    nodes, wts = gauss_panels(halves_a, halves_b, _GAUSS_PTS)
    r, z, phi = curve.state_at(nodes.ravel())
    _, D = radial_operator_coeffs(r, z, phi, curve.params)
    U = D / (z * z)
    w_int = (r.reshape(nodes.shape) * wts).sum(axis=1)
    W = np.zeros(n + 1)
    W[:-1] += w_int[:n]
    W[1:] += w_int[n:]
    return _DiscSamples(
        taus=taus, flux=p_mid / h, W=W, rzz=r * z * z, minus_rU=-r * U, wts=wts
    )


def assemble_mode(curve, m, n):
    """Conservative finite-volume assembly of the mode-m pencil.

    Fluxes use p = r/z^2 at interval midpoints; the control-volume integrals
    of the weight r and of the potential m^2/(r z^2) - r U use Gauss panels
    on the dense output, which keeps the pencil symmetric and second order
    accurate on the graded mesh.  ``curve`` may also be the ``_DiscSamples``
    of a curve on the same n, which lets several modes share one sampling.
    """
    if n < _MIN_CELLS:
        raise GridTooCoarse(f"mode assembly needs n >= {_MIN_CELLS}")
    check_mode(m)
    disc = curve if isinstance(curve, _DiscSamples) else _sample_disc(curve, n)
    pot_vals = disc.minus_rU
    if m:
        pot_vals = pot_vals + m * m / disc.rzz
    pot_int = (pot_vals.reshape(disc.wts.shape) * disc.wts).sum(axis=1)

    # node-wise control volume accumulations over all n+1 nodes
    Q = np.zeros(n + 1)
    Q[:-1] += pot_int[:n]
    Q[1:] += pot_int[n:]

    flux = disc.flux
    diag_full = np.zeros(n + 1)
    diag_full[:-1] += flux
    diag_full[1:] += flux
    diag_full += Q

    first = 0 if m == 0 else 1
    # boundary node n is always Dirichlet; axis node kept only for m = 0
    diag = diag_full[first:n]
    offdiag = -flux[first : n - 1]
    weights = disc.W[first:n]
    return ModeOperator(
        m=m, taus=disc.taus, first=first, diag=diag, offdiag=offdiag, weights=weights
    )


def _apply(op, funcs):
    """A times each column of ``funcs`` for the tridiagonal pencil matrix A."""
    Au = op.diag[:, None] * funcs
    Au[:-1] += op.offdiag[:, None] * funcs[1:]
    Au[1:] += op.offdiag[:, None] * funcs[:-1]
    return Au


def check_mode(m):
    """Raise ValueError unless m is a mode index ``assemble_mode`` accepts."""
    if m < 0 or m != int(m):
        raise ValueError("mode index m must be a nonnegative integer")


def check_eigen_size(n, count):
    """Raise ValueError unless ``eigen_solve`` takes n cells and count pairs."""
    if n < _MIN_CELLS:
        raise ValueError(f"eigen mesh needs n >= {_MIN_CELLS} cells, got {n}")
    # the coarse pencil of a mode m >= 1 has n - 1 unknowns
    if not 1 <= count < n:
        raise ValueError(f"eigenpair count must lie in [1, n - 1], got {count}")


def check_certify_size(n, count):
    """Raise ValueError unless ``certify`` takes n cells and count pairs per mode.

    Its zero band is a share of the first mode-1 gap, which needs two pairs.
    """
    check_eigen_size(n, count)
    if count < 2:
        raise ValueError(
            f"certify needs count >= 2 for the first mode-1 gap, got {count}"
        )


def _solve_pencil(op, count):
    d = op.diag / op.weights
    e = op.offdiag / np.sqrt(op.weights[:-1] * op.weights[1:])
    try:
        vals, vecs = eigh_tridiagonal(
            d, e, select="i", select_range=(0, count - 1)
        )
    except Exception as exc:  # pragma: no cover - backend failure
        raise SolverFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    funcs = vecs / np.sqrt(op.weights)[:, None]
    # unit weighted norm and a deterministic sign
    norms = np.sqrt((funcs * funcs * op.weights[:, None]).sum(axis=0))
    funcs = funcs / norms
    for k in range(funcs.shape[1]):
        peak = np.argmax(np.abs(funcs[:, k]))
        if funcs[peak, k] < 0:
            funcs[:, k] = -funcs[:, k]
    # Rayleigh quotients instead of the raw eigenvalues: the graded mesh
    # makes the congruenced tridiagonal matrix huge in norm, and LAPACK's
    # absolute accuracy eps * |T| would swamp eigenvalues near zero; the
    # quadratic forms below have no large-magnitude cancellation
    Au = _apply(op, funcs)
    rq = np.empty(vals.size)
    for k in range(vals.size):
        rq[k] = float(funcs[:, k] @ Au[:, k])  # u'Bu = 1 by normalization
    return rq, funcs


def _discrete_residual(op, vals, funcs):
    res = np.empty(vals.size)
    w = op.weights
    op_scale = np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.offdiag))
    Au = _apply(op, funcs)
    for k in range(vals.size):
        u = funcs[:, k]
        num = np.max(np.abs(Au[:, k] - vals[k] * w * u))
        den = (op_scale + abs(vals[k]) * np.max(w)) * np.max(np.abs(u))
        res[k] = num / den if den > 0 else 0.0
    return res


def _pencils(curve, modes, n):
    """The pencils of ``modes`` on the n-cell mesh, from one sampling.

    The samples are released on return, before the next mesh is sampled.
    """
    disc = _sample_disc(curve, n)
    return [assemble_mode(disc, m, n) for m in modes]


def eigen_solve(curve, modes, count, n=1536):
    """Lowest ``count`` eigenpairs of each of ``modes``, Richardson extrapolated.

    Each pencil is solved on meshes of n and 2n cells with the same grading,
    and each mesh samples the curve once for all modes; the extrapolated
    eigenvalues (4 fine - coarse)/3 remove the second order mesh error.
    Eigenfunctions are reported on the fine mesh with the Dirichlet zeros
    reattached.  Returns ``{m: EigenResult}``.  Sizes are checked by
    ``check_eigen_size``.
    """
    check_eigen_size(n, count)
    for m in modes:
        check_mode(m)
    coarse = _pencils(curve, modes, n)
    fine = _pencils(curve, modes, 2 * n)
    results = {}
    for m, op_c, op_f in zip(modes, coarse, fine):
        vals_c, _ = _solve_pencil(op_c, count)
        vals_f, funcs = _solve_pencil(op_f, count)
        vals = (4.0 * vals_f - vals_c) / 3.0
        residuals = _discrete_residual(op_f, vals_f, funcs)
        n_fine = op_f.taus.size
        full = np.zeros((n_fine, count))
        full[op_f.first : n_fine - 1, :] = funcs
        results[m] = EigenResult(
            m=m,
            eigenvalues=vals,
            eigenvalues_fine=vals_f,
            eigenvalues_coarse=vals_c,
            mesh=op_f.taus,
            eigenfunctions=full,
            discrete_residuals=residuals,
        )
    return results


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


def certify(sigma0, lin=None, *, count=6, n=1536):
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
    eigen solve (about 1e-10) and means only its size against
    ``zero_band``.  Condition (iii) is the transversality scalar
    h_prime_boundary exceeding 1000x the tolerance ``lin`` was solved at,
    1e3 (lin.rtol max(1, |h_prime_boundary|) + lin.atol).  Surfaces
    outside the tangential-disc parameter region get verdict
    "not_applicable".  Sizes are checked by ``check_certify_size``.
    """
    check_certify_size(n, count)
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

    eigs = eigen_solve(sigma0.curve, (0, 1, 2), count, n)
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
            "family_failures": family_failures,
            "beyond_fold": beyond_fold,
            "transversality_floor": transversality_floor,
            "mesh_cells": n,
        },
        fold_c=dict(sweep.folds),
        disc_tangent=disc_tangent,
    )
