"""Exception types shared by the membranelab modules."""


class MembraneLabError(Exception):
    """Base class for all errors raised by membranelab."""


class DegenerateAxis(MembraneLabError):
    """The axis curvature 1/z_o + c_o vanishes; no second-order seed exists."""


class InvalidOffset(MembraneLabError):
    """Axis offset tau0 outside the allowed range [0, 1e-3 * |z_o|]."""


class OutOfRange(MembraneLabError):
    """Arc-length argument outside [0, ell] of the curve."""


class SingularityHit(MembraneLabError):
    """Integration ran into z -> 0 or r -> 0 away from the axis.

    The partial curve up to the failure is attached as ``curve``.
    """

    def __init__(self, message, curve=None):
        super().__init__(message)
        self.curve = curve


class ArcLimitReached(MembraneLabError):
    """The arc-length guard fired before the requested stop event.

    The partial curve up to the guard is attached as ``curve``.
    """

    def __init__(self, message, curve=None):
        super().__init__(message)
        self.curve = curve


class NotAdmissible(MembraneLabError):
    """Operation requires z_o < -1/c_o (tangential-disc parameter region)."""


class TooFewSamples(MembraneLabError):
    """Finite-difference residual needs a denser resample."""


class NoConvergence(MembraneLabError):
    """Iterative solve failed; diagnostic iteration trace attached as ``trace``."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class BoundaryValueVanishes(MembraneLabError):
    """Radial kernel solution vanished at the boundary; numerically inconsistent
    with the one-dimensionality of the radial kernel and never absorbed silently."""


class GridTooCoarse(MembraneLabError):
    """Collocation degree too small, or even (a node on the axis)."""


class SolverFailure(MembraneLabError):
    """Eigenvalue backend failed."""


class IncompleteEvidence(MembraneLabError):
    """Certificate assembly is missing upstream solves; names attached as ``missing``."""

    def __init__(self, message, missing=None):
        super().__init__(message)
        self.missing = missing if missing is not None else []


class AmplitudeTooLarge(MembraneLabError):
    """Perturbation amplitude degenerates mesh triangles."""


class IoFailure(MembraneLabError):
    """Artifact could not be written."""


class ParseError(MembraneLabError):
    """Configuration file or flag could not be parsed."""
