"""Typed failure modes.

Every operation that can fail does so by raising one of these, never by
returning a partial result.  Construction failures carry enough context to
tell a refuted hypothesis from an exhausted retry budget.

Exported routines read integer and rational parameters through ``check_count``
and ``check_rational``, which refuse a bad one by name, the value as ``evidence``.
"""

from __future__ import annotations

from fractions import Fraction


class MinorforgeError(Exception):
    """Base class for all library errors; ``evidence`` holds what refutes
    the input or, for an exhausted search, the nodes it spent."""

    def __init__(self, message: str, evidence=None):
        super().__init__(message)
        self.evidence = evidence


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


class ExtractionFailedError(MinorforgeError):
    """Descent terminated without a certifiable witness."""


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
    """A supplied dense minor is too sparse; a built pattern that misses its
    density is a bug (InternalInfeasibleError)."""


class HypothesisViolatedError(MinorforgeError):
    """Input breaks a stated precondition; carries the offending evidence."""


class InvalidBipartitionError(MinorforgeError, ValueError):
    pass


class LinkageFailedError(MinorforgeError):
    pass


class NeighborsUnavailableError(MinorforgeError):
    pass


class InternalInfeasibleError(MinorforgeError):
    """A step the supporting argument guarantees turned out infeasible: a bug,
    not a user error."""


class Budget:
    """The node budget of one exact search: ``spend`` raises ``error(message)``,
    with ``spent`` as evidence, once ``spent`` reaches ``nodes``."""

    def __init__(self, nodes: int, error: type[MinorforgeError], message: str):
        self.nodes, self.error, self.message, self.spent = nodes, error, message, 0

    def spend(self, n: int = 1) -> None:
        self.spent += n
        if self.spent >= self.nodes:
            raise self.error(self.message, evidence=self.spent)


def check_internal(cond: bool, msg: str) -> None:
    """Raise :class:`InternalInfeasibleError` unless ``cond`` holds.  Used
    for the invariants a certificate rests on, so they are checked even
    under ``python -O``."""
    if not cond:
        raise InternalInfeasibleError(msg)


def check_count(name: str, value, least, most=None, error=HypothesisViolatedError) -> int:
    """``value`` when it is an int, not a ``bool``, in ``[least, most]`` (``None``:
    that end open); else raise ``error`` naming ``name``, ``value`` as evidence."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer", evidence=value)
    if least is not None and value < least or most is not None and value > most:
        span = f"be at least {least}" if most is None else f"lie in [{least}, {most}]"
        raise error(f"{name} must {span}", evidence=value)
    return value


def check_vertex_sets(family) -> tuple[frozenset, ...]:
    """Each member of ``family`` as a frozenset, not yet checked against a
    host; HypothesisViolatedError, ``family`` as evidence, when it is not
    iterable or has a member that is not a set."""
    try:
        return tuple(map(frozenset, family))
    except TypeError:
        raise HypothesisViolatedError(
            f"{family!r} is not a family of vertex sets", evidence=family
        ) from None


def check_rational(name: str, value, high=None, ends: str = "()") -> Fraction:
    """``value`` as a Fraction when it is a rational, not a ``bool``, from 0 to
    ``high`` (``None``: no upper end), each end closed (``[``, ``]``) or open
    as ``ends`` says; else HypothesisViolatedError, ``value`` as evidence."""
    try:
        q = None if isinstance(value, bool) else Fraction(value)
    except (TypeError, ValueError, OverflowError):
        q = None
    if q is not None and (q > 0 if ends[0] == "(" else q >= 0) and (
            high is None or (q < high if ends[1] == ")" else q <= high)):
        return q
    if q is None:
        span = "be a rational"
    elif high is None:
        span = "be positive" if ends[0] == "(" else "be nonnegative"
    else:
        span = (f"lie strictly between 0 and {high}" if ends == "()"
                else f"lie in {ends[0]}0, {high}{ends[1]}")
    raise HypothesisViolatedError(f"{name} must {span}", evidence=value)
