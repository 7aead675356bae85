"""Branch-set certificates: every minor this package claims is carried by an
explicit witness that can be revalidated from scratch.

A :class:`MinorModel` lists, in a significant order, disjoint nonempty vertex
sets of a host graph, each inducing a connected subgraph.  Fragment ``i``
represents vertex ``i`` of the realized pattern.

Validation runs at most once per model inside the package: the first read of
``MinorModel.pattern`` validates and keeps the pattern, since neither the
model nor its host can change.  An invalid model raises
:class:`InvalidModelError` on every read, because nothing is kept.  A model
whose pattern follows from a validated one, or from an induced subgraph
(``MinorModel._derived``), is not validated at all.
:func:`validate_model` and :func:`require_valid` always validate from
scratch, for callers that re-check a certificate independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InvalidModelError, OrderTooSmallError, UnknownVertexError, check_vertex_sets
from .graph import Graph, mask_of


@dataclass(frozen=True)
class MinorModel:
    host: Graph
    fragments: tuple[frozenset[int], ...]

    def __init__(self, host: Graph, fragments) -> None:
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "fragments", check_vertex_sets(fragments))

    @classmethod
    def _derived(cls, host: Graph, fragments, pattern: Graph) -> "MinorModel":
        """A model whose pattern the caller derived from a validated model
        (say, by keeping some of its fragments and renumbering them into a
        host that drops only vertices they avoid), or the singletons of an
        ascending vertex list whose induced subgraph is the pattern, so it
        is not validated again."""
        model = cls(host, fragments)
        model.__dict__["pattern"] = pattern
        return model

    def __len__(self) -> int:
        return len(self.fragments)

    def used_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for f in self.fragments:
            out |= f
        return frozenset(out)

    @cached_property
    def pattern(self) -> Graph:
        """The realized pattern: vertex per fragment, edge where any host
        edge joins two fragments.  Validated on the first read and kept;
        raises InvalidModelError on every read of an invalid model."""
        return require_valid(self).pattern


@dataclass
class ModelReport:
    valid: bool
    violations: list = field(default_factory=list)
    pattern: Graph | None = None


def validate_model(m: MinorModel) -> ModelReport:
    """Check every branch-set property; list one violation per failure.

    Violations are ``(subject, reason)`` pairs where the subject is a
    fragment index or an index pair.
    """
    g = m.host
    violations: list = []
    masks: list[int] = []
    for i, frag in enumerate(m.fragments):
        if not frag:
            violations.append((i, "empty fragment"))
            masks.append(0)
            continue
        try:  # a member that is not an int fails the compare or the shift
            bad = [v for v in frag if not (0 <= v < g.n)]
            mask = mask_of(v for v in frag if 0 <= v < g.n) if bad else mask_of(frag)
        except TypeError:
            v = next(v for v in frag if not isinstance(v, int))
            raise UnknownVertexError(f"fragment {i} holds {v!r}, not a vertex", evidence=v) from None
        masks.append(mask)
        if bad:
            violations.append((i, f"vertex {min(bad)} outside host"))
        elif g.reach(mask & -mask, mask) != mask:
            violations.append((i, "fragment not connected in host"))
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j]:
                violations.append(((i, j), "fragments share a vertex"))
    if violations:
        return ModelReport(valid=False, violations=violations)
    return ModelReport(valid=True, pattern=_direct_pattern(g, masks))


def _direct_pattern(g: Graph, masks: list[int]) -> Graph:
    k = len(masks)
    bits = [0] * k
    for i in range(k):
        reach = g.neighborhood(masks[i])
        for j in range(i + 1, k):
            if reach & masks[j]:
                bits[i] |= 1 << j
                bits[j] |= 1 << i
    return Graph._from_masks(k, bits)


def require_valid(m: MinorModel) -> ModelReport:
    report = validate_model(m)
    if not report.valid:
        subject, reason = report.violations[0]
        frag = subject if isinstance(subject, int) else None
        raise InvalidModelError(
            f"invalid model: fragment {subject}: {reason}", fragment=frag
        )
    return report


def is_rooted_at(m: MinorModel, s) -> bool:
    """True when the fragments and ``s`` pair off: as many fragments as
    vertices of ``s``, each fragment meeting ``s`` exactly once."""
    m.pattern  # raises on an invalid model
    s = m.host.vertex_set(s)
    if len(m.fragments) != len(s):
        return False
    return all(len(f & s) == 1 for f in m.fragments)


def is_attached_to(m: MinorModel, s) -> bool:
    """True when the first ``|s|`` fragments each meet ``s`` in exactly one
    vertex, together covering ``s`` (later fragments then avoid ``s``)."""
    m.pattern  # raises on an invalid model
    s = m.host.vertex_set(s)
    if len(s) > len(m.fragments):
        raise OrderTooSmallError("more attachment vertices than fragments")
    covered: set[int] = set()
    for f in m.fragments[: len(s)]:
        hit = f & s
        if len(hit) != 1:
            return False
        covered |= hit
    return covered == s


def compose_models(outer: MinorModel, inner: MinorModel) -> MinorModel:
    """Model-of-a-model: ``inner`` lives in the pattern of ``outer``; each
    inner fragment expands to the union of the outer fragments it names.
    The composed model is validated before it is returned."""
    outer.pattern, inner.pattern  # raise on an invalid model
    if inner.host.n != len(outer.fragments):
        raise InvalidModelError(
            "inner host order does not match the outer fragment count"
        )
    fragments = []
    for f in inner.fragments:
        merged: set[int] = set()
        for i in f:
            merged |= outer.fragments[i]
        fragments.append(frozenset(merged))
    composed = MinorModel(outer.host, fragments)
    composed.pattern  # raises if a merged fragment is not connected
    return composed
