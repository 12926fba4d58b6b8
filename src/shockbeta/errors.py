"""Exception hierarchy shared by all shockbeta modules.

Two families matter to callers: :class:`ValidationError` for bad input data
(rejected before any solve starts) and :class:`SolverError` for numerical
failures of an otherwise well-posed computation.  The CLI maps them to exit
codes 2 and 3 respectively.
"""


class ShockBetaError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ShockBetaError):
    """Input data violates a constructor contract."""


class SolverError(ShockBetaError):
    """A numerical method failed to produce a solution within tolerance."""


class DegenerateShock(ValidationError):
    """End states coincide (or their jump vanishes)."""


class RankineHugoniotViolation(ValidationError):
    """Speed and end states are inconsistent with the jump condition."""


class LaxViolation(ValidationError):
    """A characteristic inequality of the shock admissibility fails."""


class InteriorEquilibrium(ValidationError):
    """The shifted flux has a rest point strictly between the end states."""


class BadProblem(ValidationError):
    """Ill-formed numerical problem (dimension or mesh inconsistency)."""


class BadSampleCount(ValidationError):
    """Quadrature rule applied to an unsupported number of samples."""


class GridMismatch(ValidationError):
    """Two sampled quantities do not share the same grid."""


class IntegratorFailure(SolverError):
    """Adaptive time stepper hit step-size underflow or a non-finite state."""


class TailNotResolved(SolverError):
    """Computed solution does not reach its limits within the tail tolerance.

    Usually a signal that the truncation half-width L is too small.
    """


class NewtonDivergence(SolverError):
    """Damped Newton iteration failed to reduce the residual."""


class SingularJacobian(SolverError):
    """Newton linearization is numerically singular."""


class MeshLimitExceeded(SolverError):
    """Mesh refinement exceeded the node budget before reaching tolerance."""


class QuadratureDegraded(UserWarning):
    """Grid too coarse for the requested quadrature accuracy."""


def describe(exc: Exception) -> str:
    """``Class: message``, as a failure is recorded in manifests and on stderr."""
    return f"{type(exc).__name__}: {exc}"
