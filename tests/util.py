"""Shared brute-force oracles and fixtures for the test suite."""

from __future__ import annotations

import random
from collections import Counter, deque
from itertools import combinations, permutations, product
from typing import AbstractSet, Iterable, Iterator, Optional

from hypothesis import strategies as st

from dimatch.coloring import BLACK, WHITE, PartialColoring, verify_complete
from dimatch.graph import Graph, from_edges
from dimatch.oracle import brute_dim
from dimatch.patterns import MUST_BLACK, MUST_UNCOLORED, Coloring, Embedding, Pattern, contains_s222, pattern
from dimatch.rewrite import LiftError, ReductionAudit, RewriteStep
from dimatch.rules import CATALOG, FORCED, propagate
from dimatch.setmatch import IrreducibleDecomposition, SetFamilyInstance, Star

# the forcing rules by id
RULES_BY_ID = {r.id: r for r in CATALOG}

# The long claw: a claw with every edge subdivided once.
LONG_CLAW = pattern(
    "long_claw",
    "c a1 a2 a3 b1 b2 b3",
    "c-a1 c-a2 c-a3 a1-b1 a2-b2 a3-b3",
)


def brute_force_find_all(g: Graph, p: Pattern, colors: Optional[Coloring] = None) -> list[dict[str, int]]:
    """Reference matcher: try every injective role assignment."""
    out = []
    roles = p.roles
    req = {tuple(sorted(e)) for e in p.required}
    opt = {tuple(sorted(e)) for e in p.optional}
    for combo in permutations(g.vertices, len(roles)):
        amap = dict(zip(roles, combo))
        ok = True
        for i, a in enumerate(roles):
            for b in roles[i + 1 :]:
                has = g.has_edge(amap[a], amap[b])
                key = tuple(sorted((a, b)))
                if key in req and not has:
                    ok = False
                elif key not in req and key not in opt and has:
                    ok = False
            if not ok:
                break
        if not ok:
            continue
        for r, (lo, hi) in p.degree.items():
            d = g.degree(amap[r])
            if d < lo or (hi is not None and d > hi):
                ok = False
        if ok:
            for r in p.closure:
                if not g.neighbors(amap[r]) <= set(combo):
                    ok = False
                    break
        if ok and colors is not None:
            for r, want in p.color.items():
                state = colors.get(amap[r])
                if want == MUST_BLACK and state != BLACK:
                    ok = False
                if want == MUST_UNCOLORED and state is not None:
                    ok = False
        if ok:
            out.append(amap)
    return out


def reference_fits(g: Graph, windows: list[tuple[int, Optional[int]]]) -> bool:
    """Reference for `Pattern.fits`: whether every degree window (lo, hi),
    hi None for no cap, gets a host vertex of its own whose degree lies in
    it.  A maximum bipartite matching of windows to vertices, grown by one
    augmenting path per window (Kuhn's method)."""
    owner: dict[int, int] = {}  # vertex -> the window it serves

    def place(i: int, seen: set[int]) -> bool:
        lo, hi = windows[i]
        for v in g.vertices:
            d = g.degree(v)
            if v not in seen and lo <= d and (hi is None or d <= hi):
                seen.add(v)
                if v not in owner or place(owner[v], seen):
                    owner[v] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(windows)))


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labelled graph on vertices 1..n, in bitmask order."""
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        yield from_edges(n, (e for i, e in enumerate(slots) if mask >> i & 1))


def is_matching(g: Graph, m: Iterable[tuple[int, int]]) -> bool:
    """The pairs of m are edges of g and pairwise disjoint."""
    seen: set[int] = set()
    for u, v in m:
        if not g.has_edge(u, v) or u in seen or v in seen:
            return False
        seen |= {u, v}
    return True


def reference_contains_s222(g: Graph) -> Optional[Embedding]:
    """Reference for `dimatch.patterns.contains_s222`: every independent
    arm triple at every centre, each leg tested one edge at a time."""
    for c in g.vertices:
        nc = g.neighbors(c)
        if len(nc) < 3:
            continue
        arms = sorted(nc)
        for i, a1 in enumerate(arms):
            for j in range(i + 1, len(arms)):
                a2 = arms[j]
                if g.has_edge(a1, a2):
                    continue
                for a3 in arms[j + 1 :]:
                    if g.has_edge(a1, a3) or g.has_edge(a2, a3):
                        continue
                    emb = _grow_legs(g, c, (a1, a2, a3))
                    if emb is not None:
                        return emb
    return None


def _grow_legs(g: Graph, c: int, arms: tuple[int, int, int]) -> Optional[Embedding]:
    nc = g.neighbors(c)
    others: list[list[int]] = []
    for a in arms:
        rest = [x for x in arms if x != a]
        others.append(
            sorted(b for b in g.neighbors(a) if b != c and b not in nc and not any(g.has_edge(b, r) for r in rest))
        )
    for b1 in others[0]:
        for b2 in others[1]:
            if b2 == b1 or g.has_edge(b1, b2):
                continue
            for b3 in others[2]:
                if b3 in (b1, b2) or g.has_edge(b1, b3) or g.has_edge(b2, b3):
                    continue
                return {"c": c, "a1": arms[0], "a2": arms[1], "a3": arms[2], "b1": b1, "b2": b2, "b3": b3}
    return None


def reference_triangle_outsiders(g: Graph, anchors: Optional[list[int]]) -> Iterator[tuple[int, int]]:
    """The pairs (t, u) that `dimatch.rules.rule_triangle_outsider` reads,
    t in a triangle, u a neighbor of t outside it and nonadjacent to the
    other two, in the order of `Graph.triangles` and then of ascending u,
    one adjacency test at a time."""
    for tri in g.triangles(anchors):
        ts = set(tri)
        for t in tri:
            rest = ts - {t}
            for u in sorted(g.neighbors(t)):
                if u not in ts and not any(g.has_edge(u, r) for r in rest):
                    yield t, u


def reference_square_degree_two(g: Graph, anchors: Optional[list[int]]) -> Iterator[list[tuple[int, str]]]:
    """Reference for `dimatch.rules.rule_square_degree_two`: every closed
    walk a-b-c-d-a with neither chord marks a chordless square, and each of
    its vertices of degree two, in ascending order (of the anchors), is
    demanded white."""
    on_square: set[int] = set()
    for a in g.vertices:
        for b in g.neighbors(a):
            for c in g.neighbors(b):
                if c == a or g.has_edge(a, c):
                    continue
                for d in g.neighbors(c):
                    if d != b and g.has_edge(d, a) and not g.has_edge(b, d):
                        on_square.update((a, b, c, d))
    for v in g.vertices if anchors is None else anchors:
        if v in on_square and g.degree(v) == 2:
            yield [(v, WHITE)]


def rewrite_chain(seed: int, steps: int, n: int = 10, in_place: bool = False) -> Iterator[Graph]:
    """The graphs of a seeded chain of random rewrites from a random graph
    on 1..n whose degree census and triangle index are built, so each
    step carries them.  Fresh ids are mostly the top ids,
    as in the reduction; now and then a removed id comes back below the
    top.  In place, each step is an edit of the one graph, yielded again."""
    rng = random.Random(seed)
    g = Graph(range(1, n + 1), [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.3])
    g.degree_counts()
    g.triangles_at()
    gone: list[int] = []
    for _ in range(steps):
        verts = list(g.vertices)
        drop = rng.sample(verts, min(len(verts), rng.randint(0, 2)))
        new = g.fresh_ids(rng.randint(0, 2 if len(verts) < 14 else 0))
        if gone and rng.random() < 0.2:
            new.append(gone.pop())
        gone += drop
        live = [v for v in verts if v not in drop] + new
        added = [tuple(rng.sample(live, 2)) for _ in range(rng.randint(0, 4))] if len(live) > 1 else []
        cut = [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(0, 3))] if len(verts) > 1 else []
        if in_place:
            g.edit(drop, new, added, cut)
        else:
            g = g.rewrite(drop, new, added, cut)
        yield g


def reference_is_clean_pair(g: Graph, c: PartialColoring) -> bool:
    """No whites, blacks pairwise at distance >= 3, and one propagation on
    a copy of c, from a fresh worklist, colors nothing and meets no
    conflict."""
    if c.whites():
        return False
    for u in c.blacks():
        for w in g.neighbors(u):
            if c.get(w) == BLACK or any(x != u and c.get(x) == BLACK for x in g.neighbors(w)):
                return False
    probe = c.copy()
    return propagate(g, probe) is None and probe.state == c.state


def fresh_degree_counts(g: Graph) -> dict[int, int]:
    """How many vertices have each degree, counted on a graph built anew
    from g's vertices and edges."""
    fresh = Graph(g.vertices, g.edges())
    return dict(Counter(len(fresh.neighbors(v)) for v in fresh.vertices))


def disjoint_union(parts: list[Graph]) -> Graph:
    """The parts side by side, each shifted above the ones before it."""
    verts: list[int] = []
    edges: list[tuple[int, int]] = []
    for part in parts:
        shift = max(verts, default=0) + 1 - min(part.vertices)
        verts += [v + shift for v in part.vertices]
        edges += [(u + shift, v + shift) for u, v in part.edges()]
    return Graph(verts, edges)


def random_host(rng: random.Random, n: int, density: float) -> Graph:
    """A random graph on n ids drawn from 1..4n, so ids are not contiguous."""
    ids = sorted(rng.sample(range(1, 4 * n + 1), n))
    return Graph(ids, [e for e in combinations(ids, 2) if rng.random() < density])


def replay_backwards(trace: list[RewriteStep], final: Graph) -> Graph:
    """Reconstruct the original graph from the final one; trace sanity check."""
    g = final
    for step in reversed(trace):
        g = g.rewrite(
            remove_vertices=step.added_ids.values(),
            add_vertices=step.removed_vertices,
            add_edges=step.removed_incident_edges + step.removed_survivor_edges,
            remove_edges=step.added_edges,
        )
    return g


def forward(trace: list[RewriteStep], g: Graph) -> Graph:
    """The graph the trace's steps make from g, applied in order."""
    for step in trace:
        g = g.rewrite(step.removed_vertices, step.added_ids.values(), step.added_edges, step.removed_survivor_edges)
    return g


def made(g: Graph, c: PartialColoring, step: RewriteStep) -> tuple[Graph, PartialColoring]:
    """Copies of g and c with step made on them; g and c stay as they are."""
    g2, c2 = g.copy(), c.copy()
    step.make(g2, c2)
    return g2, c2


def product_lift_step(step: RewriteStep, colors: dict[int, str]) -> None:
    """Reference for `dimatch.rewrite._lift_step`: try every choice for the
    uncolored removed vertices (ascending, BLACK before WHITE) and check
    every removed vertex and touched survivor for each, keeping the first
    valid one."""
    changed = step.changed
    missing = changed - colors.keys()
    if missing:
        raise LiftError(f"{step.rule_id}: vertex {min(missing)} is uncolored")
    owed = dict.fromkeys(changed - set(step.added_ids.values()), 0)
    for sign, edges in ((1, step.added_edges), (-1, step.removed_survivor_edges)):
        for a, b in edges:
            if colors[a] == colors[b]:
                for s in (a, b):
                    if s in owed:
                        owed[s] += sign
    nbrs: dict[int, list[int]] = {}
    for a, b in step.removed_incident_edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)

    def same(v: int) -> int:
        return sum(colors[w] == colors[v] for w in nbrs.get(v, ()))

    free = [v for v in step.removed_vertices if step.removed_colors[v] is None]
    colors.update((v, col) for v, col in step.removed_colors.items() if col is not None)
    for choice in product((BLACK, WHITE), repeat=len(free)):
        colors.update(zip(free, choice))
        if all(same(v) == (colors[v] == BLACK) for v in step.removed_vertices) and all(
            same(s) == k for s, k in owed.items()
        ):
            return
    raise LiftError(f"{step.rule_id}: no coloring of {list(step.removed_vertices)} is valid")


def all_completions(g: Graph, c: PartialColoring) -> list[PartialColoring]:
    """Every feasible complete coloring extending c, by exhaustive sweep."""
    verts = [v for v in g.vertices if v not in c]
    out = []
    for combo in product((BLACK, WHITE), repeat=len(verts)):
        full = PartialColoring({**c.state, **dict(zip(verts, combo))})
        if verify_complete(g, full):
            out.append(full)
    return out


def brute_max_matching_size(g: Graph) -> int:
    edges = g.edges()

    def best(i: int, used: frozenset[int]) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        take = 0
        if u not in used and v not in used:
            take = 1 + best(i + 1, used | {u, v})
        return max(take, best(i + 1, used))

    return best(0, frozenset())


def all_matchings(g: Graph):
    edges = g.edges()

    def walk(i: int, used: frozenset[int], acc: list):
        if i == len(edges):
            yield list(acc)
            return
        yield from walk(i + 1, used, acc)
        u, v = edges[i]
        if u not in used and v not in used:
            acc.append((u, v))
            yield from walk(i + 1, used | {u, v}, acc)
            acc.pop()

    yield from walk(0, frozenset(), [])


def brute_saturation_exists(g: Graph, required) -> bool:
    req = set(required)
    return any(req <= {x for e in m for x in e} for m in all_matchings(g))


# -- matching references --------------------------------------------------


def saturates(m: Iterable[tuple[int, int]], required: Iterable[int]) -> bool:
    """Every required vertex is an end of a pair of m."""
    covered = {x for e in m for x in e}
    return set(required) <= covered


def _reference_norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class ReferenceMatcher:
    """Reference for `dimatch.matching._Matcher`: the matcher as it was
    before its search arrays were allocated once, copied verbatim (renamed)
    so that a differential test can hold the new one to the same matching.
    Each search allocates p, base and used afresh and a blossom relabels by
    a sweep over every index."""

    def __init__(self, g: Graph):
        self.verts = list(g.vertices)
        self.index = {v: i for i, v in enumerate(self.verts)}
        self.adj = [[self.index[w] for w in sorted(g.neighbors(v))] for v in self.verts]
        self.n = len(self.verts)
        self.match = [-1] * self.n

    def matching(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for i, j in enumerate(self.match):
            if j > i:
                out.add(_reference_norm(self.verts[i], self.verts[j]))
        return out

    # classic blossom search; p[] holds the BFS tree, base[] the blossom
    # representative of every vertex.  Index n is a virtual exposed helper
    # vertex adjacent to every index in spare; it has no other edges.

    def _find_path(self, root: int, spare: AbstractSet[int]) -> int:
        n, adj, match = self.n, self.adj, self.match
        self.p = p = [-1] * (n + 1)
        base = list(range(n))
        used = [False] * n
        used[root] = True
        q = deque([root])

        def lca(a: int, b: int) -> int:
            seen = [False] * n
            x = a
            while True:
                x = base[x]
                seen[x] = True
                if match[x] == -1:
                    break
                x = p[match[x]]
            y = b
            while True:
                y = base[y]
                if seen[y]:
                    return y
                y = p[match[y]]

        def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
            # the helper follows v's real neighbours, as if its id were the
            # largest; it is exposed, so reaching it ends the search
            if v in spare:
                p[n] = v
                return n
        return -1

    def augment_from(self, v: int, spare: AbstractSet[int] = frozenset()) -> Optional[int]:
        """Search an augmenting path rooted at exposed vertex v; flip it.

        Every index in spare counts as adjacent to a virtual exposed helper
        vertex.  A path that ends at the helper frees its spare vertex, so
        the matching keeps its size and saturates v in that vertex's place.
        Returns the far end of the flipped path, the exposed index it
        saturated or the spare index it freed, or None if there is no path.
        Every other index on the path was saturated and still is.
        """
        root = self.index[v]
        if self.match[root] != -1:
            raise ValueError(f"{v} is already saturated")
        finish = end = self._find_path(root, spare)
        if finish == -1:
            return None
        if finish == self.n:
            end = freed = self.p[finish]
            finish = self.match[freed]
            self.match[freed] = -1
        while finish != -1:
            pv = self.p[finish]
            ppv = self.match[pv]
            self.match[finish] = pv
            self.match[pv] = finish
            finish = ppv
        return end

    def maximize(self) -> None:
        for i in range(self.n):
            if self.match[i] == -1:
                self.augment_from(self.verts[i])


def reference_solve_saturation(g: Graph, required: Iterable[int]) -> Optional[set[tuple[int, int]]]:
    """Reference for `dimatch.matching.solve_saturation`, copied verbatim
    (renamed) from before the matcher kept its arrays: find a matching
    saturating every required vertex, or None.

    Start from a maximum matching; while a required vertex is exposed,
    look for an augmenting path from it that may end at a virtual helper
    vertex adjacent to every saturated non-required vertex.  Success
    trades a non-required saturated vertex for the required one; failure
    anywhere is final.  The result is still a maximum matching.

    The set of saturated non-required indices is built once and then kept
    up to date from the far end of each flipped path, the only index on
    it whose saturation changed besides the required root.
    """
    req = sorted(set(required))
    if not set(req) <= set(g.vertices):
        raise ValueError("required vertices outside graph")
    solver = ReferenceMatcher(g)
    solver.maximize()
    match = solver.match
    req_index = {solver.index[v] for v in req}
    spare = {i for i, j in enumerate(match) if j != -1 and i not in req_index}
    for v in req:
        if match[solver.index[v]] != -1:
            continue
        end = solver.augment_from(v, spare)
        if end is None:
            return None
        if match[end] == -1:
            spare.discard(end)
        elif end not in req_index:
            # an exposed non-required end; after maximize() none is left
            spare.add(end)
    current = solver.matching()
    if not saturates(current, req):
        raise AssertionError("matching leaves a required vertex exposed")
    return current


def reference_solve_hitting(inst: SetFamilyInstance) -> Optional[frozenset[int]]:
    """Reference for `dimatch.setmatch.solve_hitting`, copied verbatim
    (renamed) from when it built the intersection graph as a `Graph` for
    `reference_solve_saturation`: find C with |C ∩ A| = 1 for every A, or None.

    Raises ValueError if an element lies in more than two sets.  The
    elements two sets share are interchangeable, so only the least of them
    is kept.  Picking shared elements is then a matching question on the
    intersection graph; sets with no private element must be saturated,
    the rest can fall back on their least private element.
    """
    sets = inst.sets
    k = len(sets)
    if k == 0:
        return frozenset()
    owners: dict[int, list[int]] = {}
    for i, a in enumerate(sets, start=1):
        for e in a:
            owners.setdefault(e, []).append(i)
    if any(len(own) > 2 for own in owners.values()):
        raise ValueError("an element appears in more than two sets")
    shared_of: dict[tuple[int, int], int] = {}
    for e, own in owners.items():
        if len(own) == 2:
            pair = (own[0], own[1])
            shared_of[pair] = min(e, shared_of.get(pair, e))
    inter = Graph(range(1, k + 1), sorted(shared_of))
    privates = [sorted(e for e in a if len(owners[e]) == 1) for a in sets]
    required = [i for i, priv in enumerate(privates, start=1) if not priv]
    m = reference_solve_saturation(inter, required)
    if m is None:
        return None
    chosen = {shared_of[e] for e in m}
    for a, priv in zip(sets, privates):
        if not a & chosen:
            if not priv:
                raise AssertionError("unsaturated set has no private element")
            chosen.add(priv[0])
    for a in sets:
        if len(a & chosen) != 1:
            raise AssertionError(f"set {sorted(a)} hit {len(a & chosen)} times")
    return frozenset(chosen)


def reference_verify_complete(g: Graph, c: PartialColoring) -> bool:
    """Reference for `dimatch.coloring.verify_complete` on a coloring of
    exactly g's vertices: the per-vertex loop, one neighbor at a time."""
    for v in g.vertices:
        if c.get(v) == WHITE:
            if any(c.get(w) == WHITE for w in g.neighbors(v)):
                return False
        else:
            if sum(1 for w in g.neighbors(v) if c.get(w) == BLACK) != 1:
                return False
    return True


def reference_decomposition(g: Graph, c: PartialColoring) -> IrreducibleDecomposition:
    """Reference for what `dimatch.setmatch.decompose` returns on a pair it
    accepts: the stars read off `g.subgraph(outside).components()`, the
    outside being the vertices in no triangle, with degrees and colors read
    by the method calls."""
    tri_at = g.triangles_at()
    rest = g.subgraph(v for v in g.vertices if not tri_at[v])
    stars = []
    for comp in rest.components():
        label = sorted(comp)
        leaves = tuple(v for v in label if rest.degree(v) == 1)
        x = next(v for v in label if rest.degree(v) > 1)
        reps = tuple(a if g.degree(a) == 1 else next(w for w in g.neighbors(a) if w != x) for a in leaves)
        stars.append(Star(x, leaves, reps))
    deg4 = tuple((v, *(w for w in tri_at[v][0] if w != v)) for v in g.vertices if tri_at[v] and g.degree(v) == 4)
    spokes = {w for _, p, q in deg4 for w in (p, q)}
    core = frozenset(v for v in g.vertices if tri_at[v] and v not in spokes and c.get(v) != BLACK)
    tips = {a for s in stars for a in s.leaves if g.degree(a) == 1}
    return IrreducibleDecomposition(tuple(stars), deg4, core, core | tips)

def membership_ok(inst: SetFamilyInstance) -> bool:
    """Every set has 2-3 elements and no element lies in more than two."""
    for e in inst.elements:
        if sum(1 for a in inst.sets if e in a) > 2:
            return False
    return all(2 <= len(a) <= 3 for a in inst.sets)


def brute_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    """Every maximal clique of g with two or more vertices.  A clique lies
    in the closed neighborhood of each of its vertices, so every subset of
    every neighborhood is tried."""
    cliques = set()
    for v in g.vertices:
        ns = sorted(g.neighbors(v))
        for r in range(1, len(ns) + 1):
            for combo in combinations(ns, r):
                if all(g.has_edge(a, b) for a, b in combinations(combo, 2)):
                    cliques.add(frozenset((v, *combo)))
    return {k for k in cliques if not any(k < other for other in cliques)}


def brute_hitting(elements, sets) -> bool:
    elems = sorted(elements)
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            cset = set(combo)
            if all(len(cset & set(a)) == 1 for a in sets):
                return True
    return False


# Tokens for parser fuzzing.  Integers stay small and every token is
# followed by whitespace, so no header can announce a huge vertex count.
_TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["B", "W", "#", "x", "1.5", "+2", "1_0", "--"]),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=4),
)


def parser_text() -> st.SearchStrategy[str]:
    """Arbitrary text for the graph and certificate parsers."""
    sep = st.sampled_from([" ", "\t", "\n", "\n\n", "\r\n"])
    return st.lists(st.tuples(_TOKENS, sep), max_size=16).map(
        lambda parts: "".join(tok + s for tok, s in parts)
    )


class OracleAudit(ReductionAudit):
    """Cross-checks every rule application against the brute-force oracle."""

    def __init__(self, cap: int = 14):
        self.cap = cap
        self.violations: list[tuple] = []
        self.color_events: list[tuple[str, str]] = []
        self.rewrite_events: list[str] = []

    def on_color(self, g, rule_id, tag, v, color, pre):
        self.color_events.append((rule_id, tag))
        if g.n > self.cap:
            return
        if tag == FORCED:
            opposite = WHITE if color == BLACK else BLACK
            denial = PartialColoring({**pre.state, v: opposite})
            if brute_dim(g, denial) is not None:
                self.violations.append(("forced", rule_id, v, color, g.edges(), dict(pre.state)))
        else:
            if brute_dim(g, pre) is not None:
                agreed = PartialColoring({**pre.state, v: color})
                if brute_dim(g, agreed) is None:
                    self.violations.append(("exchange", rule_id, v, color, g.edges(), dict(pre.state)))

    def on_clean(self, g_pre, c_pre, g_post, c_post):
        if g_pre.n > self.cap:
            return
        if (brute_dim(g_pre, c_pre) is not None) != (brute_dim(g_post, c_post) is not None):
            self.violations.append(("clean", g_pre.edges(), dict(c_pre.state)))

    def on_rewrite(self, step, g_pre, c_pre, g_post, c_post):
        self.rewrite_events.append(step.rule_id)
        if g_pre.n > self.cap:
            return
        if (brute_dim(g_pre, c_pre) is not None) != (brute_dim(g_post, c_post) is not None):
            self.violations.append(("rewrite", step.rule_id, g_pre.edges(), dict(c_pre.state)))
        if contains_s222(g_pre) is None and contains_s222(g_post) is not None:
            self.violations.append(("long_claw", step.rule_id, g_post.edges()))


# hand-built hosts on which each rewrite rule matches; colorings mimic the
# clean states the pipeline would reach
_HUB_RICH = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 3), (5, 6), (5, 7), (6, 7),
             (1, 8), (3, 10), (10, 11)]
_HUB_BARE = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 3), (5, 6), (5, 7), (6, 7)]
_TWIN = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (2, 4), (1, 7), (1, 8),
         (4, 8), (8, 9), (8, 10), (9, 10)]

REWRITE_HOSTS: dict[str, list[tuple[Graph, dict[int, str]]]] = {
    "prune_tail": [
        (from_edges(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]), {5: BLACK}),
    ],
    "prune_spider": [
        (from_edges(7, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 6), (5, 7), (6, 7)]), {1: BLACK}),
        (from_edges(9, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 6), (5, 7), (6, 7), (6, 8), (7, 9)]), {1: BLACK}),
    ],
    "prune_fan5": [
        (from_edges(12, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
                         (7, 8), (9, 10), (11, 7), (11, 8), (12, 9), (12, 10), (11, 12)]), {1: BLACK}),
    ],
    "prune_fan4": [
        (from_edges(11, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8), (5, 9),
                         (6, 7), (8, 9), (10, 6), (10, 7), (11, 8), (11, 9), (10, 11)]), {1: BLACK}),
    ],
    "prune_hub_triangle": [
        (from_edges(11, _HUB_RICH), {}),
        (from_edges(11, _HUB_RICH), {7: BLACK}),
        (from_edges(7, _HUB_BARE + [(6, 2)]), {}),
        (from_edges(7, _HUB_BARE + [(7, 4)]), {}),
        (from_edges(7, _HUB_BARE + [(6, 2), (6, 4)]), {}),
        (from_edges(7, _HUB_BARE + [(6, 2)]), {7: BLACK}),
    ],
    "prune_double_house": [
        (from_edges(9, [(1, 2), (1, 3), (2, 3), (1, 5), (1, 8), (2, 4), (2, 7), (4, 5),
                        (6, 4), (6, 5), (7, 9), (8, 9)]), {6: BLACK}),
        (from_edges(9, [(1, 2), (1, 3), (2, 3), (1, 5), (1, 8), (2, 4), (2, 7), (4, 5),
                        (6, 4), (6, 5), (7, 9), (8, 9)]), {6: BLACK, 9: BLACK}),
    ],
    "prune_twin_triangle": [
        (from_edges(10, _TWIN), {3: BLACK}),
        (from_edges(10, _TWIN), {3: BLACK, 9: BLACK}),
        (from_edges(10, _TWIN + [(10, 5)]), {3: BLACK, 6: BLACK}),
        (from_edges(10, _TWIN + [(10, 7)]), {3: BLACK}),
        (from_edges(12, _TWIN + [(10, 2), (10, 7), (7, 11), (7, 12), (11, 12)]), {3: BLACK}),
        (from_edges(10, _TWIN + [(9, 5)]), {3: BLACK, 6: BLACK}),
    ],
    "prune_capped_house": [
        (from_edges(7, [(3, 4), (3, 2), (4, 2), (4, 5), (5, 6), (6, 7), (7, 2), (2, 1)]), {}),
        (from_edges(9, [(3, 4), (3, 2), (4, 2), (4, 5), (5, 6), (6, 7), (7, 2), (2, 1), (1, 8), (8, 9)]), {}),
    ],
    "fold_fan5": [
        (from_edges(12, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
                         (7, 8), (9, 10), (11, 7), (11, 8), (12, 9), (12, 10)]), {1: BLACK}),
    ],
    "fold_fan4": [
        (from_edges(11, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8), (5, 9),
                         (6, 7), (8, 9), (10, 6), (10, 7), (11, 8), (11, 9)]), {1: BLACK}),
    ],
    "fold_fan_leaf": [
        (from_edges(9, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8), (6, 7), (9, 6), (9, 7)]), {1: BLACK}),
        (from_edges(11, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8), (6, 7), (9, 6), (9, 7),
                         (8, 10), (10, 11)]), {1: BLACK}),
    ],
    "fold_twin_spiders": [
        (from_edges(11, [(1, 2), (1, 3), (2, 3), (2, 4), (1, 5), (1, 6), (3, 7), (4, 8), (5, 8),
                         (6, 9), (7, 9), (8, 10), (9, 11)]), {8: BLACK, 9: BLACK}),
        (from_edges(13, [(1, 2), (1, 3), (2, 3), (2, 4), (1, 5), (1, 6), (3, 7), (4, 8), (5, 8),
                         (6, 9), (7, 9), (8, 10), (9, 11), (10, 12), (11, 13)]), {8: BLACK, 9: BLACK}),
    ],
    "fold_hub": [
        (from_edges(8, [(4, 5), (4, 6), (5, 6), (6, 3), (6, 8), (5, 2), (2, 1), (3, 1), (1, 7)]), {1: BLACK}),
        (from_edges(10, [(4, 5), (4, 6), (5, 6), (6, 3), (6, 8), (5, 2), (2, 1), (3, 1), (1, 7),
                         (8, 9), (9, 10)]), {1: BLACK}),
        (from_edges(10, [(4, 5), (4, 6), (5, 6), (6, 3), (6, 8), (5, 2), (2, 1), (3, 1), (1, 7),
                         (7, 9), (8, 10)]), {1: BLACK}),
    ],
    "fold_cross_link": [
        (from_edges(9, [(1, 2), (1, 3), (2, 3), (1, 6), (1, 7), (2, 4), (2, 5), (4, 6), (5, 7),
                        (6, 8), (7, 9)]), {}),
        (from_edges(7, [(1, 2), (1, 3), (2, 3), (1, 6), (1, 7), (2, 4), (2, 5), (4, 6), (5, 7)]), {}),
    ],
    "unlink_triangles": [
        (from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (2, 4), (1, 5)]), {3: BLACK, 6: BLACK}),
        (from_edges(8, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (2, 4), (1, 5), (4, 7), (5, 8)]),
         {3: BLACK, 6: BLACK}),
    ],
    "fold_claw_chain": [
        (from_edges(8, [(2, 1), (2, 3), (2, 4), (4, 5), (5, 6), (6, 7), (6, 8)]), {2: BLACK, 6: BLACK}),
        (from_edges(10, [(2, 1), (2, 3), (2, 4), (4, 5), (5, 6), (6, 7), (6, 8), (3, 9), (8, 10)]),
         {2: BLACK, 6: BLACK}),
    ],
    "contract_path": [
        (from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), {}),
        (from_edges(7, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (5, 7)]), {}),
        (from_edges(9, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (1, 7), (6, 7), (5, 8), (5, 9), (8, 9)]), {}),
    ],
}


def decorate(g: Graph, seed: int) -> Graph:
    """Randomly hang pendant chains, triangles, or triangle-tipped paths
    off a host so the pipeline reaches the interesting rewrite states."""
    rng = random.Random(seed)
    edges = list(g.edges())
    verts = list(g.vertices)
    nxt = max(verts) + 1
    for _ in range(rng.randint(0, 3)):
        anchor = rng.choice(verts)
        kind = rng.random()
        if kind < 0.4:
            prev = anchor
            for _ in range(rng.randint(1, 2)):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        elif kind < 0.8:
            edges += [(anchor, nxt), (nxt, nxt + 1), (anchor, nxt + 1)]
            nxt += 2
        else:
            edges += [(anchor, nxt), (nxt, nxt + 1), (nxt + 1, nxt + 2),
                      (nxt + 1, nxt + 3), (nxt + 2, nxt + 3)]
            nxt += 4
    return Graph(sorted({v for e in edges for v in e}), edges)


def planted(g: Graph, colors: dict[int, str], seed: int) -> Graph:
    """`g` in random gadget context: each vertex `colors` makes black gets a
    pendant leaf, which forces it black, and `decorate` hangs gadgets off
    the result."""
    edges = list(g.edges())
    nxt = max(g.vertices) + 1
    for v in sorted(colors):
        if colors[v] == BLACK:
            edges.append((v, nxt))
            nxt += 1
    return decorate(Graph(range(1, nxt), edges), seed)


# hosts on which each forcing rule fires during propagation
FORCING_HOSTS: dict[str, tuple[Graph, dict[int, str]]] = {
    "square_alternation": (from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)]), {1: BLACK}),
    "triangle_outsider": (from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5)]), {4: BLACK}),
    "degree_one": (from_edges(2, [(1, 2)]), {}),
    "black_pair_neighbors": (from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), {2: BLACK, 4: BLACK}),
    "bowtie_center": (from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]), {}),
    "diamond_pair": (from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]), {}),
    "leaf_surplus": (from_edges(4, [(1, 2), (1, 3), (1, 4)]), {}),
    "chain_step": (from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]), {1: BLACK}),
    "triangle_tail": (from_edges(7, [(3, 4), (3, 5), (4, 5), (2, 3), (1, 2), (1, 6), (1, 7), (6, 7)]), {}),
    "house_apex": (from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 2)]), {}),
    "hat_pentagon": (from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (6, 3), (6, 4)]), {}),
    "hat_pentagon_swap": (from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (6, 3), (6, 4)]), {}),
    "anchored_pentagon": (from_edges(10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (3, 6), (3, 7), (6, 7),
                                          (1, 8), (8, 9), (9, 10)]), {}),
    "spoked_triangle": (from_edges(8, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6),
                                       (4, 7), (5, 7), (6, 7), (7, 8)]), {}),
    "square_degree_two": (from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)]), {}),
    "triangle_circuit": (from_edges(8, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (5, 6),
                                        (6, 7), (6, 8), (7, 2), (8, 3)]), {6: BLACK}),
    "twin_fan_swap": (from_edges(9, [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 6), (3, 7),
                                     (8, 4), (8, 6), (9, 5), (9, 7)]), {}),
    "scattered_neighborhood": (from_edges(5, [(1, 2), (1, 3), (1, 4), (5, 2), (5, 3), (5, 4)]), {}),
    "cubic_caps": (from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 7), (4, 8)]), {}),
    "lone_wing": (from_edges(7, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 6), (5, 7), (6, 7)]), {}),
    "seven_cycle_step": (from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1), (1, 8)]),
                         {3: BLACK, 6: BLACK}),
    "braced_pendant": (from_edges(9, [(1, 2), (1, 3), (1, 4), (3, 5), (4, 6), (5, 6), (5, 7),
                                      (6, 8), (7, 8), (7, 9), (8, 9)]), {1: BLACK}),
}


# every shape the planted audit embeds: C4, C5 and each rule's hosts
PLANTED_HOSTS: list[tuple[str, Graph, dict[int, str]]] = [
    ("C4", from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)]), {}),
    ("C5", from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]), {}),
    *((rule_id, g, colors) for rule_id, (g, colors) in FORCING_HOSTS.items()),
    *((rule_id, g, colors) for rule_id, hosts in REWRITE_HOSTS.items() for g, colors in hosts),
]
