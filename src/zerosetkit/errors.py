"""Exception hierarchy shared by every zerosetkit module.

Validation errors (bad user input) are distinguished from cap errors
(resource limits hit mid-computation) and solver errors (a numerical solver
returned no usable solution) so the CLI can map them to distinct exit codes:

    0  success
    1  usage error (bad arguments, missing input file)
    2  ValidationError, or malformed JSON input
    3  CapError or SolverError

ConclusionViolated marks an implementation bug and has no exit code of its own.
"""


class ZerosetkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ZerosetkitError):
    """Invalid input data or parameters."""


class CapError(ZerosetkitError):
    """A hard resource cap (iterations, rejections, problem size) was hit."""


# --- metric-core ---------------------------------------------------------


class AsymmetricMatrix(ValidationError):
    pass


class NegativeEntry(ValidationError):
    pass


class TriangleViolation(ValidationError):
    def __init__(self, i, j, k, message=None):
        self.triple = (i, j, k)
        super().__init__(message or f"triangle inequality fails on triple {(i, j, k)}")


class TooSmall(ValidationError):
    pass


class BadParams(ValidationError):
    pass


class DisconnectedGraph(ValidationError):
    pass


class NotNegativeType(ValidationError):
    pass


class NonInjectiveMap(ValidationError):
    pass


# --- graphs --------------------------------------------------------------


class RhoBelowOne(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


# --- random-zero ---------------------------------------------------------


class ModerationViolated(ValidationError):
    """The level function varies by more than a factor 2 along some edge."""

    def __init__(self, edge, message=None):
        self.edge = edge
        super().__init__(message or f"level function more than doubles along edge {edge}")


class MinDistanceViolated(ValidationError):
    """A weighted same-component pair is closer in the image than the level function allows."""

    def __init__(self, pair, message=None):
        self.pair = pair
        super().__init__(message or f"image distance below level function on pair {pair}")


class QuasisymmetryViolated(ValidationError):
    def __init__(self, triple, message=None):
        self.triple = triple
        super().__init__(message or f"quasisymmetry fails on triple {triple}")


class BetaTooLarge(ValidationError):
    pass


class ConclusionViolated(ZerosetkitError):
    """A property that the construction guarantees failed to hold.

    This always indicates an implementation bug and is surfaced loudly
    instead of being swallowed.
    """


class TauExceedsDiameter(ValidationError):
    pass


class EmptySupport(ValidationError):
    pass


class PairTooClose(ValidationError):
    pass


class IterationCapExceeded(CapError):
    pass


class RejectionCapExceeded(CapError):
    pass


# --- descent -------------------------------------------------------------


class InfiniteIndex(ValidationError):
    """The scale index is +infinity because e^t already covers the whole mass."""


class EmptyZeroSet(ValidationError):
    pass


# --- applications --------------------------------------------------------


class CapExceeded(CapError):
    pass


class SolverError(ZerosetkitError):
    """A numerical solver returned no usable solution (CLI exit code 3)."""


class LPSolveFailed(SolverError):
    """scipy's linprog reported failure: the fractional-matching LP behind the
    unsaturated-pair extractor, or the column-game LP of an exact duality solve."""


class SolverStalled(SolverError):
    """The first-order SDP solver stopped before reaching the target tolerance."""

    def __init__(self, diagnostics, message=None):
        self.diagnostics = diagnostics
        super().__init__(message or f"solver stalled: {diagnostics}")


# --- cli -----------------------------------------------------------------


class UsageError(ZerosetkitError):
    pass
