"""Shared exception types."""


class StreamsubError(Exception):
    """Base class for library errors."""


class InvalidParams(StreamsubError, ValueError):
    """Instance or algorithm parameters violate a documented precondition."""


class GroundSetTooLarge(StreamsubError, ValueError):
    """Exhaustive enumeration was requested beyond the configured limit."""


class PolicyViolation(StreamsubError, RuntimeError):
    """A value query was refused by the active access policy."""

    def __init__(self, subset, reason):
        super().__init__(f"query on {sorted(subset)} refused: {reason}")
        self.subset = frozenset(subset)
        self.reason = reason


class UnknownElement(StreamsubError, ValueError):
    """A query named an element id outside the ground set {0..n-1}."""


class IncompatibleDistribution(StreamsubError, ValueError):
    """Requested stream distribution does not apply to this instance kind."""
