"""membranelab: axially symmetric membrane equilibria and their bifurcation.

Profile curves of the reduced shape equation H + c_o = -nu3/z, boundary
shooting for the tangential disc and its fixed-boundary family, the
linearized radial problems, weighted Sturm-Liouville mode spectra, and the
numerical certificate for the symmetry-breaking bifurcation, plus mesh and
CSV/OBJ/JSON export and a CLI front end.
"""

__version__ = "0.1.0"

from .errors import MembraneLabError
from .profile import (
    GeometryPoint,
    ModelParams,
    ProfileCurve,
    ProfileState,
    StopCondition,
    StopReason,
    axis_seed,
    energy,
    first_integral_residual,
    fourth_order_residual,
    geometry_at,
    integrate_profile,
    shape_diagnostics,
    sigma0_stop,
)
from .shooting import (
    BoundaryCircle,
    FamilyMember,
    FamilySweep,
    Sigma0Solution,
    family_sweep,
    shoot_family_member,
    shoot_sigma0,
)
from .linearized import (
    LinearizedCoeffs,
    LinearizedSolution,
    extended_rhs,
    family_derivative_check,
    h_from_support,
    residual_Pnu3,
    solve_h,
)
from .spectral import (
    BifurcationCertificate,
    EigenResult,
    assemble_mode,
    certify,
    eigen_solve,
    kernel_residual_m1,
)
from .surfaces import (
    RunRecord,
    SurfaceMesh,
    branch_linear_mesh,
    family_linear_mesh,
    revolve,
)

__all__ = [
    "BifurcationCertificate",
    "BoundaryCircle",
    "EigenResult",
    "FamilyMember",
    "FamilySweep",
    "GeometryPoint",
    "LinearizedCoeffs",
    "LinearizedSolution",
    "MembraneLabError",
    "ModelParams",
    "ProfileCurve",
    "ProfileState",
    "RunRecord",
    "Sigma0Solution",
    "StopCondition",
    "StopReason",
    "SurfaceMesh",
    "__version__",
    "assemble_mode",
    "axis_seed",
    "branch_linear_mesh",
    "certify",
    "eigen_solve",
    "energy",
    "extended_rhs",
    "family_derivative_check",
    "family_linear_mesh",
    "family_sweep",
    "first_integral_residual",
    "fourth_order_residual",
    "geometry_at",
    "h_from_support",
    "integrate_profile",
    "kernel_residual_m1",
    "residual_Pnu3",
    "revolve",
    "shape_diagnostics",
    "shoot_family_member",
    "shoot_sigma0",
    "sigma0_stop",
    "solve_h",
]
