"""Span tracing from outside the library, and the per-layer numbers it gives.

``Tracer.install`` replaces every traced function of minorforge at each name
it is reachable under (``build.dense_connected_minor``,
``rooted.vertex_connectivity_with_cutset``, the package namespace, ...) with
a wrapper that records a span: name, start, end, parent span and op id.
Selected class methods (``FlowNet.max_flow``, ``SetFlow.*``) are wrapped on
the class.  ``uninstall`` puts the originals back, so untraced calls pay
nothing.  Spans stay in memory until the run writes them out.

A span's layer is the module that defines the function; a layer's self time
is the time its spans spend outside their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graph", "model", "flow", "connectivity", "paths", "extract",
          "build", "rooted", "woven", "coloring")

# Cheap helpers called in inner loops; wrapping them would mostly measure
# the wrapper.  Their time counts toward the caller's layer.
UNTRACED = {"mask_of", "mask_vertices", "average_degree", "edge_density",
            "complement_max_degree", "is_eps_t_dense", "anticomplete"}

METHODS = {
    ("flow", "FlowNet"): ("max_flow",),
    ("flow", "SetFlow"): ("__init__", "run", "paths", "cut_vertices"),
}

GENERATORS = ("graph.random_graph", "graph.random_bipartite",
              "graph.complete_graph", "graph.graph_from_edge_list")


def _probe(name: str, result):
    """The one number a span keeps from its return value, if any."""
    if name == "flow.FlowNet.max_flow":
        return result
    if name == "rooted.find_separation_avoiding":
        return int(result is not None)
    if name == "build.hitting_set_check":
        return int(result[2])
    return None


class Tracer:
    """Records spans as ``[name, start_ns, end_ns, parent, op, value]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = _probe(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = sys.modules["minorforge"]
        wrapped: dict[int, object] = {}
        targets = [package] + [sys.modules[f"minorforge.{m}"] for m in LAYERS]
        for owner in targets:
            for attr, value in list(vars(owner).items()):
                layer = getattr(value, "__module__", "") or ""
                if (not callable(value) or isinstance(value, type)
                        or not layer.startswith("minorforge.")
                        or layer[len("minorforge."):] not in LAYERS
                        or attr.startswith("_") or attr in UNTRACED):
                    continue
                name = f"{layer[len('minorforge.'):]}.{value.__name__}"
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(name, value)
                self._saved.append((owner, attr, value))
                setattr(owner, attr, wrapped[id(value)])
        for (mod, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"minorforge.{mod}"], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{mod}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextmanager
    def active(self, op_id: int):
        """Trace every call made inside the block as part of op ``op_id``."""
        self.op = op_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def root(self, fn):
        """``fn`` wrapped in the root span of an op, named ``op``."""
        return self._wrap("op", fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, value in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "value": value}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer(spans: list[list], scales: list[float], window_ops: set[int]) -> dict[str, float]:
    """Per-layer numbers from the spans of traced ops ``0 .. len(scales)-1``.

    Times (``*_s``) are seconds per op over all traced ops, each op's spans
    multiplied by its entry in ``scales``.  Counts and ratios are taken over
    the ops in ``window_ops`` only, a fixed prefix of the seeded op
    sequence, so they repeat exactly for a given seed and code.
    """
    ops = len(scales)
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    self_ns: dict[str, float] = defaultdict(float)
    incl_ns: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    value: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, op, val) in enumerate(spans):
        layer = layer_of(name)
        self_ns[layer] += (end - start - child_ns[i]) * scales[op]
        outer = spans[parent][0] if parent >= 0 else ""
        if outer != name:
            incl_ns[name] += (end - start) * scales[op]
        if op not in window_ops:
            continue
        if layer_of(outer) != layer:
            calls[layer] += 1
        count[name] += 1
        if val is not None:
            value[name] += val

    def per_op(ns: float) -> float:
        return ns / 1e9 / max(ops, 1)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out = {f"{layer}.self_s": per_op(self_ns[layer]) for layer in LAYERS}
    out.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    searches = count["rooted.find_separation_avoiding"]
    attempts = count["build.hitting_set_check"]
    out.update({
        "flow.setflow_builds": count["flow.SetFlow.__init__"],
        "flow.pair_cut_calls": count["flow.pair_vertex_cut"],
        "flow.units_pushed": value["flow.FlowNet.max_flow"],
        "rooted.separation_searches": searches,
        "rooted.separation_found_ratio": ratio(value["rooted.find_separation_avoiding"], searches),
        "paths.menger_calls": count["paths.menger"],
        "paths.linkage_calls": count["paths.find_linkage"],
        "build.hitting_calls": count["build.sample_hitting_set"],
        "build.hitting_attempts": attempts,
        "build.hitting_accept_ratio": ratio(value["build.hitting_set_check"], attempts),
        "model.validate_calls": count["model.validate_model"],
        "model.validate_s": per_op(incl_ns["model.validate_model"]),
        "graph.induced_subgraph_calls": count["graph.induced_subgraph"],
        "graph.induced_subgraph_s": per_op(incl_ns["graph.induced_subgraph"]),
    })
    return out


def generator_seconds(spans: list[list]) -> float:
    """Time inside graph generators that no other generator called."""
    return sum(
        (end - start) / 1e9
        for name, start, end, parent, _, _ in spans
        if name in GENERATORS and (parent < 0 or spans[parent][0] not in GENERATORS)
    )
