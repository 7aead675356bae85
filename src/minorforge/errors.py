"""Typed failure modes.

Every operation that can fail does so by raising one of these, never by
returning a partial result.  Construction failures carry enough context to
tell a refuted hypothesis from an exhausted retry budget.
"""

from __future__ import annotations


class MinorforgeError(Exception):
    """Base class for all library errors."""


class ParseError(MinorforgeError):
    """Malformed graph, model, or config input."""


class OrderTooSmallError(MinorforgeError, ValueError):
    pass


class UnknownVertexError(MinorforgeError, ValueError):
    pass


class NotAnEdgeError(MinorforgeError, ValueError):
    pass


class TooLargeError(MinorforgeError):
    """Instance exceeds a configured exact-solver cap."""


class InvalidModelError(MinorforgeError):
    """Branch-set certificate fails a structural audit."""

    def __init__(self, message: str, fragment: int | None = None):
        super().__init__(message)
        self.fragment = fragment


class NotDisjointError(InvalidModelError):
    pass


class NotRootedError(MinorforgeError):
    pass


class ExtractionFailedError(MinorforgeError):
    """Descent terminated without a certifiable witness."""


class InsufficientError(MinorforgeError):
    """Fewer disjoint witnesses found than requested."""

    def __init__(self, message: str, found: int):
        super().__init__(message)
        self.found = found


class AttemptsExhaustedError(MinorforgeError):
    """Randomized search ran out of retries."""

    def __init__(self, message: str, attempts: int, hypothesis_ok: bool = True):
        super().__init__(message)
        self.attempts = attempts
        self.hypothesis_ok = hypothesis_ok


class PathTooLongError(MinorforgeError):
    pass


class DisconnectedHostError(MinorforgeError):
    pass


class DensityNotMetError(MinorforgeError):
    """A built pattern missed its density certificate."""


class HypothesisViolatedError(MinorforgeError):
    """Input breaks a stated precondition; carries the offending evidence."""

    def __init__(self, message: str, evidence=None):
        super().__init__(message)
        self.evidence = evidence


class InvalidBipartitionError(MinorforgeError, ValueError):
    pass


class LinkageFailedError(MinorforgeError):
    pass


class NeighborsUnavailableError(MinorforgeError):
    pass


class ConstructionFailedError(MinorforgeError):
    pass


class WovennessFailedError(MinorforgeError):
    def __init__(self, message: str, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class InfeasibleError(MinorforgeError):
    """Requested path family does not exist; carries the dual separation."""

    def __init__(self, message: str, separation=None):
        super().__init__(message)
        self.separation = separation


class InternalInfeasibleError(MinorforgeError):
    """A step the supporting argument guarantees turned out infeasible: a bug,
    not a user error."""


def check_internal(cond: bool, msg: str) -> None:
    """Raise :class:`InternalInfeasibleError` unless ``cond`` holds.  Used
    for the invariants a certificate rests on, so they are checked even
    under ``python -O``."""
    if not cond:
        raise InternalInfeasibleError(msg)
