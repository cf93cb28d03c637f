"""Exception types shared across the library."""


class BandembedError(Exception):
    """Base class for all library errors."""


class InvalidInputError(BandembedError, ValueError):
    """Malformed or out-of-contract input."""


class FeasibilityError(BandembedError):
    """Exact mode requested beyond its configured size cap."""


class WalkValidationError(InvalidInputError):
    """A vertex sequence is not a valid shifted walk; names the first bad position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class WalkNotFoundError(BandembedError):
    """No closed shifted walk within the length budget (legitimate on non-expanders)."""


class StructuralError(BandembedError):
    """The reduced graph lacks a needed Hamilton cycle or chord."""


class AssignmentError(BandembedError):
    """A leftover vertex has no admissible cluster."""


class BalancingError(BandembedError):
    """The class-balancing loop cannot make progress or broke an invariant."""


class RedistributionError(BandembedError):
    """Exact-size redistribution failed (hypothesis violation or no eligible vertex)."""


class ParameterError(InvalidInputError):
    """Numeric parameters are outside the range the algorithm supports."""


class SeekMissError(ParameterError):
    """A target-homing segment was too short to reach its target from this start."""


class DecompositionError(BandembedError):
    """Segment decomposition could not be built or certified."""


class RetryBudgetError(BandembedError):
    """The randomized schedule never passed its checks within the retry budget."""


class EmbeddingNotFoundError(BandembedError):
    """The desk-scale embedder exhausted its budget without a full embedding."""

