"""Test-only reference: the slow-path oracles for minor models, kept out of
the package because only tests call them.  ``contract_model`` rebuilds a
model's pattern by contracting each fragment edge by edge with
``contract_edge_mapped``, independently of ``MinorModel.pattern``;
``anticomplete`` decides the pairwise precondition that
``attached_model_search`` counts.  ``test_model.py``, ``test_rooted.py``
and ``test_graph.py`` check the library against them.
"""

from __future__ import annotations

from minorforge.errors import InvalidModelError, NotAnEdgeError, check_internal
from minorforge.graph import Graph, induced_subgraph, mask_of
from minorforge.model import MinorModel, require_valid


def contract_edge_mapped(g: Graph, u: int, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Contract edge uv into a simple graph on n-1 vertices, plus the
    old-to-new index map (u and v share an image)."""
    if not g.has_edge(u, v):
        raise NotAnEdgeError(f"({u},{v}) is not an edge")
    lo, hi = min(u, v), max(u, v)
    old_to_new = tuple(x if x < hi else lo if x == hi else x - 1 for x in range(g.n))
    edges = [(old_to_new[a], old_to_new[b]) for a, b in g.edges() if (a, b) != (lo, hi)]
    return Graph(g.n - 1, edges), old_to_new


def contract_model(m: MinorModel) -> Graph:
    """The same pattern obtained the slow way: restrict the host to the
    fragments and contract each fragment edge by edge.  Serves as an
    independent cross-check of ``MinorModel.pattern``."""
    require_valid(m)
    used = sorted(m.used_vertices())
    sub, old_of_new = induced_subgraph(m.host, used)
    frag_index = {}
    for i, frag in enumerate(m.fragments):
        for v in frag:
            frag_index[v] = i
    label = [frag_index[old_of_new[x]] for x in range(sub.n)]
    while True:
        pick = None
        for u, v in sub.edges():
            if label[u] == label[v]:
                pick = (u, v)
                break
        if pick is None:
            break
        u, v = pick
        sub, old_to_new = contract_edge_mapped(sub, u, v)
        new_label = [0] * sub.n
        for old, lab in enumerate(label):
            new_label[old_to_new[old]] = lab
        label = new_label
    check_internal(
        sorted(label) == list(range(len(m.fragments))),
        "contracting the fragments must leave one vertex per fragment",
    )
    relabel = {v: label[v] for v in range(sub.n)}
    return Graph(
        len(m.fragments),
        [(relabel[u], relabel[v]) for u, v in sub.edges()],
    )


def anticomplete(g: Graph, a, b) -> bool:
    """No edge between the disjoint sets ``a`` and ``b``."""
    a = frozenset(a)
    b = frozenset(b)
    if a & b:
        raise InvalidModelError("sets overlap; anticompleteness is undefined")
    for v in a:
        g.check_vertex(v)
    for v in b:
        g.check_vertex(v)
    return not g.neighborhood(mask_of(a)) & mask_of(b)

