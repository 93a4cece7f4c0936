"""Exception types shared across the package."""


class SphereFlowError(Exception):
    """Base class for all sphereflow errors. exit_code is the exit code a
    command ends with on the error; a subclass that sets none has its parent's."""
    exit_code = 1


class TooFewVertices(SphereFlowError):
    """Curve has fewer vertices than the discrete stencils can support."""


class DegenerateSegment(SphereFlowError):
    """Two consecutive vertices coincide (zero-length segment)."""


class NotSimple(SphereFlowError):
    """The curve self-intersects."""
    exit_code = 4


class SelfIntersection(NotSimple):
    """A flow run found a stepped curve that is not embedded."""


class StepTooLarge(SphereFlowError):
    """Requested time step exceeds the stability/accuracy cap."""


class Degenerate(SphereFlowError):
    """The evolving curve collapsed below the resolvable length floor."""


class NonConvergent(SphereFlowError):
    """The flow reached t_max without a classifiable outcome, or a resample
    did not reach uniform spacing."""


class InsufficientData(SphereFlowError):
    """Not enough samples/records for the requested fit."""


class NotAdmissible(SphereFlowError):
    """No barrier parameter up to the search cap certifies the curve."""


class DomainError(SphereFlowError):
    """Argument outside the mathematical domain of the function."""


class PreconditionViolation(SphereFlowError):
    """A documented precondition of the operation does not hold."""


class ConfigParseError(SphereFlowError):
    """Run configuration missing, malformed, or out of range."""
    exit_code = 2


class MissingArtifacts(SphereFlowError):
    """Run directory lacks the files needed for verification."""
    exit_code = 3


class RunDirLocked(SphereFlowError):
    """Another process owns the run directory."""
    exit_code = 5


class CorruptArtifacts(SphereFlowError):
    """A run file differs in size or SHA-256 from its manifest entry."""
    exit_code = 6
