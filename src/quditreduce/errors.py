"""Exception types shared across the package."""


class QuditReduceError(Exception):
    """Base class for all package-specific errors."""


class InvalidIndexError(QuditReduceError, ValueError):
    """A multi-index digit or flat index is outside its valid range."""


class InvalidRotationError(QuditReduceError, ValueError):
    """A 2x2 matrix passed as a plane rotation is not unitary."""


class CapacityError(QuditReduceError, ValueError):
    """Requested statevector exceeds the configured amplitude cap."""


class NonConvergenceError(QuditReduceError, RuntimeError):
    """A reduction stage hit its iteration cap with residual >= epsilon.

    ``reduce`` raises it with the partial run, so callers can inspect or
    persist it.

    Attributes:
        residual: max target magnitude when the cap was hit.
        trace: partial decomposition trace (every rotation applied so far
            plus the state they produced); inverting it gives back the
            input.
        report: partial reduction report, whose last stage is the one
            that did not converge.
    """

    def __init__(self, message, *, residual, trace=None, report=None):
        super().__init__(message)
        self.residual = residual
        self.trace = trace
        self.report = report


class InternalConsistencyError(QuditReduceError, RuntimeError):
    """A completed stage disturbed earlier-stage targets beyond tolerance.

    Plane rotations of stage k mix only levels >= k, so the targets
    zeroed by earlier stages must stay zeroed; a violation indicates an
    implementation bug, not bad input.
    """


class OracleFailureError(QuditReduceError, RuntimeError):
    """The spectral eigensolver failed to reach its residual tolerance."""

    def __init__(self, message, *, residual):
        super().__init__(message)
        self.residual = residual
