"""Shared brute-force oracles for the test suite.

Everything here decides by naive enumeration only, touching nothing but the
public Graph surface, so results are independent of the library's solvers.
``run_optimized`` runs a script under ``python -O``, for checks that must
survive with asserts stripped.
"""
from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from minorforge import Graph, graph_from_edge_list

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    edges = [(min(u, v), max(u, v)) for u, v in outer + inner + spokes]
    return graph_from_edge_list(10, sorted(edges))


def brute_disjoint_paths(g: Graph, s, t, k: int) -> bool:
    """Whether k fully disjoint s-t paths exist, internal vertices off s | t.

    Plain depth first search over path systems; fine up to n ~ 10.
    """
    s = frozenset(s)
    t = frozenset(t)
    if k == 0:
        return True
    if k > min(len(s), len(t)):
        return False

    def route(sources: tuple[int, ...], used: set[int]) -> bool:
        if not sources:
            return True
        head, rest = sources[0], sources[1:]

        def walk(v: int, seen: set[int]) -> bool:
            for w in sorted(g.neighbors(v)):
                if w in used or w in seen:
                    continue
                if w in t:
                    used.update(seen)
                    used.add(w)
                    if route(rest, used):
                        return True
                    used.difference_update(seen)
                    used.discard(w)
                    continue
                if w in s:
                    continue
                seen.add(w)
                if walk(w, seen):
                    return True
                seen.discard(w)
            return False

        return walk(head, {head})

    for sources in itertools.combinations(sorted(s), k):
        used = set(sources)
        if route(sources, used):
            return True
    return False


def brute_linkage_exists(g: Graph, pairs) -> bool:
    """Whether disjoint paths joining each (s_i, t_i) exist; naive search."""
    pairs = list(pairs)

    def rec(i: int, used: set[int]) -> bool:
        if i == len(pairs):
            return True
        a, b = pairs[i]
        if a == b:
            if a in used:
                return False
            used.add(a)
            if rec(i + 1, used):
                return True
            used.discard(a)
            return False
        if a in used or b in used:
            return False

        def walk(v: int, seen: set[int]) -> bool:
            if v == b:
                used.update(seen)
                if rec(i + 1, used):
                    return True
                used.difference_update(seen)
                return False
            for w in sorted(g.neighbors(v)):
                if w in used or w in seen:
                    continue
                other = {x for j in range(len(pairs)) if j != i for x in pairs[j]}
                if w in other:
                    continue
                seen.add(w)
                if walk(w, seen):
                    return True
                seen.discard(w)
            return False

        return walk(a, {a})

    return rec(0, set())


def brute_colorable(g: Graph, k: int) -> bool:
    if g.n == 0:
        return True
    if k <= 0:
        return False
    color = [-1] * g.n

    def go(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(k):
            if any(color[w] == c for w in g.neighbors(v) if w < v):
                continue
            color[v] = c
            if go(v + 1):
                return True
        color[v] = -1
        return False

    return go(0)


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if brute_colorable(g, k):
            return k
    raise AssertionError("unreachable")


def brute_connected(g: Graph, vs) -> bool:
    vs = set(vs)
    if not vs:
        return False
    start = min(vs)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def brute_vertex_connectivity(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects or empties; n-1 for
    complete graphs.  Subset enumeration, n <= 9 or so."""
    n = g.n
    if n <= 1:
        return 0
    if all(g.has_edge(u, v) for u in range(n) for v in range(u + 1, n)):
        return n - 1
    for size in range(n - 1):
        for cut in itertools.combinations(range(n), size):
            rest = set(range(n)) - set(cut)
            if len(rest) >= 2 and not brute_connected(g, rest):
                return size
    return n - 1


def all_separations(g: Graph):
    """Every separation as (set_a, set_b), enumerated by 3-coloring the
    vertices into a-only, shared, b-only and dropping crossing assignments."""
    n = g.n
    for assign in itertools.product((0, 1, 2), repeat=n):
        a = {v for v in range(n) if assign[v] != 2}
        b = {v for v in range(n) if assign[v] != 0}
        ok = True
        for u in range(n):
            if assign[u] == 0:
                for w in g.neighbors(u):
                    if assign[w] == 2:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            yield a, b


def set_partitions(items):
    """All partitions of the item sequence into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def run_optimized(script: str) -> str:
    """Standard output of ``script`` run by a fresh ``python -O`` that
    imports this checkout's package; fails the calling test unless the
    script exits with status 0.  The script stops at once if the
    interpreter still runs asserts."""
    guard = 'if __debug__:\n    raise SystemExit("python -O was not in effect")\n'
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC if not path else _SRC + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", guard + textwrap.dedent(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout
