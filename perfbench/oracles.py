"""Independent re-checks of minorforge outputs.

Everything here works on plain neighbour bitmasks (``adj[v]`` is the set of
neighbours of ``v`` as an int) and touches nothing in the library beyond
``Graph.neighbor_bits``.  Each checker returns a list of problems; an empty
list means the output re-checked.  The exhaustive oracles are sized for the
small hosts of the ``exact_small`` workload.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product


def adjacency(g) -> list[int]:
    return [g.neighbor_bits(v) for v in range(g.n)]


def mask(vs) -> int:
    out = 0
    for v in vs:
        out |= 1 << v
    return out


def bits(m: int) -> list[int]:
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def reach(adj: list[int], start: int, allowed: int) -> int:
    """Vertices of ``allowed`` reachable from ``start`` inside ``allowed``."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def connected(adj: list[int], vs: int) -> bool:
    if not vs:
        return False
    return reach(adj, (vs & -vs).bit_length() - 1, vs) == vs


def touching(adj: list[int], a: int, b: int) -> bool:
    return any(adj[v] & b for v in bits(a))


# -- minor models --------------------------------------------------------------


def model_problems(adj: list[int], fragments) -> list[str]:
    """Fragments must be nonempty, inside the host, disjoint and connected."""
    out = []
    full = (1 << len(adj)) - 1
    used = 0
    for i, frag in enumerate(fragments):
        m = mask(frag)
        if not m:
            out.append(f"fragment {i} is empty")
        elif m & ~full:
            out.append(f"fragment {i} leaves the host")
        elif not connected(adj, m):
            out.append(f"fragment {i} is not connected")
        if m & used:
            out.append(f"fragment {i} overlaps an earlier fragment")
        used |= m
    return out


def pattern_edges(adj: list[int], fragments) -> int:
    masks = [mask(f) for f in fragments]
    return sum(
        1 for i, j in combinations(range(len(masks)), 2)
        if touching(adj, masks[i], masks[j])
    )


def dense_enough(edges: int, order: int, eps: Fraction) -> bool:
    return Fraction(edges) >= (1 - eps) * Fraction(order * (order - 1), 2)


# -- path families -------------------------------------------------------------


def path_problems(adj: list[int], paths) -> list[str]:
    """Each path is simple, uses host edges only, and the paths are disjoint."""
    out = []
    seen = 0
    for i, p in enumerate(paths):
        if not p or any(not 0 <= v < len(adj) for v in p):
            out.append(f"path {i} is empty or leaves the host")
            continue
        m = mask(p)
        if m.bit_count() != len(p):
            out.append(f"path {i} repeats a vertex")
        if any(not adj[x] >> y & 1 for x, y in zip(p, p[1:])):
            out.append(f"path {i} uses a non-edge")
        if m & seen:
            out.append(f"path {i} meets an earlier path")
        seen |= m
    return out


def between_problems(adj: list[int], paths, s, t, k: int) -> list[str]:
    """``k`` disjoint s-t paths with no internal vertex in ``s | t``."""
    out = path_problems(adj, paths)
    if len(paths) != k:
        out.append(f"{len(paths)} paths instead of {k}")
    st = mask(s) | mask(t)
    for i, p in enumerate(paths):
        if p and (p[0] not in s or p[-1] not in t):
            out.append(f"path {i} does not run from s to t")
        if mask(p[1:-1]) & st:
            out.append(f"path {i} passes through s or t")
    return out


def separation_problems(adj: list[int], a, b, s, t, k: int) -> list[str]:
    """A separation of order below ``k`` with ``s`` in ``a`` and ``t`` in ``b``."""
    out = []
    am, bm = mask(a), mask(b)
    if am | bm != (1 << len(adj)) - 1:
        out.append("sides do not cover the host")
    if (am & bm).bit_count() >= k:
        out.append(f"order {(am & bm).bit_count()} is not below {k}")
    if mask(s) & ~am or mask(t) & ~bm:
        out.append("s or t on the wrong side")
    if touching(adj, am & ~bm, bm & ~am):
        out.append("an edge crosses the separation")
    return out


# -- connectivity --------------------------------------------------------------


def cut_problems(adj: list[int], kappa: int, cut) -> list[str]:
    """``cut`` has ``kappa`` vertices, and removing it disconnects the host."""
    out = []
    n = len(adj)
    cm = mask(cut)
    if cm.bit_count() != kappa or len(cut) != kappa:
        out.append(f"cutset of {len(cut)} vertices for connectivity {kappa}")
    rest = ((1 << n) - 1) & ~cm
    if connected(adj, rest):
        out.append("removing the cutset leaves the host connected")
    if kappa > min(m.bit_count() for m in adj):
        out.append("connectivity exceeds the minimum degree")
    return out


def disjoint_path_count(adj: list[int], x: int, y: int, limit: int) -> int:
    """Internally disjoint x-y paths (x, y nonadjacent), up to ``limit``.

    Plain augmenting paths over a vertex-split residual graph: node ``2v``
    enters ``v``, node ``2v + 1`` leaves it."""
    n = len(adj)
    cap: dict[tuple[int, int], int] = {}
    out_arcs: list[list[int]] = [[] for _ in range(2 * n)]

    def arc(a: int, b: int, c: int) -> None:
        if (a, b) not in cap:
            out_arcs[a].append(b)
            out_arcs[b].append(a)
            cap.setdefault((b, a), 0)
        cap[(a, b)] = c

    for v in range(n):
        arc(2 * v, 2 * v + 1, limit if v in (x, y) else 1)
        for w in bits(adj[v]):
            arc(2 * v + 1, 2 * w, limit)
    source, sink = 2 * x + 1, 2 * y
    flow = 0
    while flow < limit:
        parent = {source: source}
        queue = [source]
        for a in queue:
            if a == sink:
                break
            for b in out_arcs[a]:
                if b not in parent and cap[(a, b)] > 0:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            break
        b = sink
        while b != source:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1
    return flow


def k_connected_problems(adj: list[int], vs, k: int) -> list[str]:
    """``vs`` induces a k-connected subgraph: more than k vertices and at
    least k internally disjoint paths between every nonadjacent pair."""
    vs = sorted(vs)
    if len(vs) <= k:
        return [f"{len(vs)} vertices cannot be {k}-connected"]
    sub = induced(adj, vs)
    for x, y in combinations(range(len(vs)), 2):
        if not sub[x] >> y & 1 and disjoint_path_count(sub, x, y, k) < k:
            return [f"vertices {vs[x]} and {vs[y]} have fewer than {k} disjoint paths"]
    return []


# -- colouring -----------------------------------------------------------------


def colouring(adj: list[int], k: int) -> list[int] | None:
    """A proper colouring with at most ``k`` colours, or None.  Picks the
    uncoloured vertex with the most coloured neighbours first and opens at
    most one new colour per step."""
    n = len(adj)
    colour = [-1] * n

    def go(left: int, used: int) -> bool:
        if left == 0:
            return True
        best, best_key, best_banned = -1, None, 0
        for v in range(n):
            if colour[v] >= 0:
                continue
            banned = 0
            for w in bits(adj[v]):
                if colour[w] >= 0:
                    banned |= 1 << colour[w]
            key = (banned.bit_count(), adj[v].bit_count())
            if best_key is None or key > best_key:
                best, best_key, best_banned = v, key, banned
        for c in range(min(k, used + 1)):
            if not best_banned >> c & 1:
                colour[best] = c
                if go(left - 1, max(used, c + 1)):
                    return True
        colour[best] = -1
        return False

    return colour if go(n, 0) else None


def chromatic(adj: list[int]) -> tuple[int, list[int]]:
    """Chromatic number and a colouring that attains it."""
    if not adj:
        return 0, []
    k = 1
    while True:
        found = colouring(adj, k)
        if found is not None:
            return k, found
        k += 1


def induced(adj: list[int], vs) -> list[int]:
    vs = sorted(vs)
    pos = {v: i for i, v in enumerate(vs)}
    keep = mask(vs)
    return [mask(pos[w] for w in bits(adj[v] & keep)) for v in vs]


def chromatic_problems(adj: list[int], chi: int) -> list[str]:
    want, col = chromatic(adj)
    if any(col[v] == col[w] for v in range(len(adj)) for w in bits(adj[v])):
        return ["oracle colouring is improper"]
    return [] if chi == want else [f"chromatic number {chi}, oracle says {want}"]


def all_subset_chromatic(adj: list[int]) -> list[int]:
    """Chromatic number of every induced subgraph, indexed by vertex mask:
    chi(S) = 1 + min chi(S - I) over independent I holding S's least vertex."""
    n = len(adj)
    independent = [m for m in range(1 << n) if all(not adj[v] & m for v in bits(m))]
    by_low: list[list[int]] = [[] for _ in range(n)]
    for m in independent:
        if m:
            by_low[(m & -m).bit_length() - 1].append(m)
    chi = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        chi[s] = 1 + min(chi[s & ~i] for i in by_low[low] if i & s == i)
    return chi


def separable_problems(adj: list[int], m: int, verdict: bool, witness) -> list[str]:
    """Is there a split A, B of the vertices with chi(A), chi(B) >= chi - m?"""
    n = len(adj)
    if verdict:
        a, b = witness
        if mask(a) & mask(b) or len(set(a)) != len(a) or len(set(b)) != len(b):
            return ["separability witness sides overlap"]
        need = chromatic(adj)[0] - m
        for side in (a, b):
            if need > 0 and chromatic(induced(adj, side))[0] < need:
                return [f"witness side {side} has chromatic number below {need}"]
        return []
    chi = all_subset_chromatic(adj)
    full = (1 << n) - 1
    need = chi[full] - m
    if need <= 0:
        return ["separability refused although empty sides qualify"]
    for half in range(1 << (n - 1)):
        a = half << 1 | 1
        if chi[a] >= need and chi[full & ~a] >= need:
            return [f"split {bits(a)} is a separability witness"]
    return []


# -- linkages ------------------------------------------------------------------


def linkage_exists(adj: list[int], pairs) -> bool:
    """Exhaustive search over simple paths for each pair in turn, with failed
    (pair index, used vertices) states remembered."""
    ends = mask(v for p in pairs for v in p)
    failed: set[tuple[int, int]] = set()

    def solve(i: int, used: int) -> bool:
        if i == len(pairs):
            return True
        if (i, used) in failed:
            return False
        s, t = pairs[i]
        block = used | (ends & ~(1 << s) & ~(1 << t))
        if used >> s & 1 or used >> t & 1:
            failed.add((i, used))
            return False
        if s == t:
            if solve(i + 1, used | 1 << s):
                return True
            failed.add((i, used))
            return False

        def walk(v: int, on: int) -> bool:
            for w in bits(adj[v]):
                if w == t:
                    if solve(i + 1, used | on | 1 << t):
                        return True
                elif not (block | on) >> w & 1:
                    if walk(w, on | 1 << w):
                        return True
            return False

        if walk(s, 1 << s):
            return True
        failed.add((i, used))
        return False

    return solve(0, 0)


def linkage_problems(adj: list[int], pairs, paths) -> list[str]:
    if paths is None:
        return ["a linkage exists but none was returned"] if linkage_exists(adj, pairs) else []
    out = path_problems(adj, paths)
    if len(paths) != len(pairs):
        return out + [f"{len(paths)} paths for {len(pairs)} pairs"]
    for i, (p, (s, t)) in enumerate(zip(paths, pairs)):
        if p and (p[0] != s or p[-1] != t):
            out.append(f"path {i} does not join its pair")
    return out


# -- wovenness -----------------------------------------------------------------


def admissible_triples(n: int, a: int, b: int):
    """Every (roots, sources, targets) choice the woven property quantifies
    over: sources and targets of different pairs never coincide."""
    for roots in combinations(range(n), a):
        for srcs in combinations(range(n), b):
            for tgts in permutations(range(n), b):
                if all(srcs[i] != tgts[j] for i in range(b) for j in range(b) if i != j):
                    yield roots, srcs, tgts


def _simple_paths(adj: list[int], s: int, t: int, banned: int):
    if s == t:
        yield (s,)
        return
    stack = [(s, (s,), 1 << s)]
    while stack:
        v, path, on = stack.pop()
        for w in bits(adj[v]):
            if w == t:
                yield path + (t,)
            elif not (on | banned) >> w & 1:
                stack.append((w, path + (w,), on | 1 << w))


def _rooted_model_exists(adj, allowed: int, roots, eps: Fraction) -> bool:
    """Some disjoint connected fragments, fragment i holding roots[i] and the
    rest inside ``allowed``, with at least a (1 - eps) share of pairs touching."""
    a = len(roots)
    free = bits(allowed & ~mask(roots))
    for labels in product(range(a + 1), repeat=len(free)):
        frags = [1 << r for r in roots]
        for v, lab in zip(free, labels):
            if lab:
                frags[lab - 1] |= 1 << v
        if not all(connected(adj, f) for f in frags):
            continue
        joined = sum(1 for i, j in combinations(range(a), 2) if touching(adj, frags[i], frags[j]))
        if a == 1 or dense_enough(joined, a, eps):
            return True
    return False


def woven_witness_exists(adj: list[int], eps: Fraction, roots, pairs) -> bool:
    """Brute force over linkages and fragment labelings for one triple:
    paths avoid the roots that are not endpoints and the other pairs'
    endpoints; the model may share only roots that are endpoints."""
    root_m = mask(roots)
    ends = mask(v for p in pairs for v in p)
    forbidden = root_m & ~ends

    def links(i: int, used: int):
        if i == len(pairs):
            yield used
            return
        s, t = pairs[i]
        if used >> s & 1 or used >> t & 1:
            return
        banned = forbidden | (ends & ~(1 << s) & ~(1 << t)) | used
        for p in _simple_paths(adj, s, t, banned):
            yield from links(i + 1, used | mask(p))

    full = (1 << len(adj)) - 1
    for used in links(0, 0):
        if _rooted_model_exists(adj, (full & ~used) | (root_m & ends), roots, eps):
            return True
    return False


def woven_report_problems(adj: list[int], eps: Fraction, a: int, b: int, report) -> list[str]:
    """A proof covers every admissible triple with an audited witness; a
    refutation's witnessed records audit and its counterexample has no
    witness by brute force."""
    out = []
    expected = list(admissible_triples(len(adj), a, b))
    got = [(r.roots, r.sources, r.targets) for r in report.records]
    if got != expected[: len(got)]:
        out.append("records do not follow the admissible triples in order")
    for rec in report.records:
        if not rec.ok:
            continue
        frags = rec.model.fragments
        pairs = tuple(zip(rec.sources, rec.targets))
        out += model_problems(adj, frags)
        if len(frags) != a or any(f & set(rec.roots) != {r} for f, r in zip(frags, rec.roots)):
            out.append(f"model for {rec.roots} is not rooted there")
        if a > 1 and not dense_enough(pattern_edges(adj, frags), a, eps):
            out.append(f"model for {rec.roots} is not dense")
        out += linkage_problems(adj, pairs, rec.linkage.paths)
        shared = rec.model.used_vertices() & rec.linkage.vertices()
        if not shared <= set(rec.roots) & {v for p in pairs for v in p}:
            out.append(f"model and linkage for {rec.roots} meet outside the roots")
        if out:
            return out
    bad = report.counterexample
    if report.verdict == "proven":
        if bad is not None or len(got) != len(expected):
            out.append("proof does not cover every admissible triple")
    elif bad is None or got[-1] != (bad.roots, bad.sources, bad.targets):
        out.append("refutation lacks its counterexample")
    elif woven_witness_exists(adj, eps, bad.roots, tuple(zip(bad.sources, bad.targets))):
        out.append(f"counterexample {bad.roots} {bad.sources} {bad.targets} has a witness")
    return out
