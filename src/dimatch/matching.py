"""Maximum matching in general graphs and matchings saturating a vertex set.

The matcher is the classic blossom-contraction search: a BFS forest of
alternating paths, with odd cycles contracted to their base on the fly.
The same single-source search doubles as the augmenting-path routine of
the saturation solver.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Iterable, Optional

from .graph import Graph

Matching = set[tuple[int, int]]


class _Matcher:
    """Mutable matching state over a fixed graph: a Graph, or the ascending
    neighbour lists of a graph on indices 0..k-1, each index its own vertex.
    Vertex verts[i] is index i.  The blossom search's arrays are allocated
    once: p[] holds the BFS tree, base[] the blossom representative of every
    index, used[] marks the queued indices.  A search writes only at the
    indices of its tree, so the next one resets just those, and a blossom
    relabels only those, ascending, as a sweep over every index would.
    Index n is a virtual exposed helper vertex adjacent to every index in
    spare; it has no other edges."""

    def __init__(self, g: Graph | list[list[int]]):
        if isinstance(g, Graph):
            self.verts = list(g.vertices)
            self.index = {v: i for i, v in enumerate(self.verts)}
            g = [[self.index[w] for w in sorted(g.neighbors(v))] for v in self.verts]
        else:
            self.verts = self.index = range(len(g))
        self.adj, self.n = g, len(g)
        self.match = [-1] * self.n
        self.p = [-1] * (self.n + 1)
        self.base = list(range(self.n))
        self.used = [False] * self.n
        self.tree: set[int] = set()

    def matching(self) -> Matching:
        # verts ascend, so each pair does
        return {(self.verts[i], self.verts[j]) for i, j in enumerate(self.match) if j > i}

    def _find_path(self, root: int, spare: AbstractSet[int]) -> int:
        n, adj, match, p, base, used = self.n, self.adj, self.match, self.p, self.base, self.used
        for i in self.tree:
            p[i], base[i], used[i] = -1, i, False
        p[n] = -1
        self.tree = tree = {root}
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # the blossom's base: the first base on to's path to the
                    # root that is also on v's
                    x = base[v]
                    path = {x}
                    while match[x] != -1:
                        x = base[p[match[x]]]
                        path.add(x)
                    cur = base[to]
                    while cur not in path:
                        cur = base[p[match[cur]]]
                    blossom: set[int] = set()
                    for x, child in ((v, to), (to, v)):
                        while base[x] != cur:
                            blossom.add(base[x])
                            blossom.add(base[match[x]])
                            p[x] = child
                            child = match[x]
                            x = p[child]
                    for i in sorted(i for i in tree if base[i] in blossom):
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    tree.add(to)
                    if match[to] == -1:
                        return to
                    tree.add(match[to])
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


def max_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching; handles odd cycles via blossoms."""
    solver = _Matcher(g)
    solver.maximize()
    return solver.matching()


def solve_saturation(g: Graph | list[list[int]], required: Iterable[int]) -> Optional[Matching]:
    """Find a matching saturating every required vertex, or None.

    g is a Graph, or the ascending neighbour lists of a graph on indices
    0..k-1, each index its own vertex.

    Start from a maximum matching; while a required vertex is exposed,
    look for an augmenting path from it that may end at a virtual helper
    vertex adjacent to every saturated non-required vertex.  Success
    trades a non-required saturated vertex for the required one; failure
    anywhere is final.  The result is still a maximum matching.

    The set of saturated non-required indices is built once and then kept
    up to date from the far end of each flipped path, the only index on
    it whose saturation changed besides the required root.
    """
    solver = _Matcher(g)
    req = sorted(set(required))
    index = solver.index
    if not all(v in index for v in req):
        raise ValueError("required vertices outside graph")
    solver.maximize()
    match = solver.match
    req_index = {index[v] for v in req}
    spare = {i for i, j in enumerate(match) if j != -1 and i not in req_index}
    for v in req:
        if match[index[v]] != -1:
            continue
        end = solver.augment_from(v, spare)
        if end is None:
            return None
        if match[end] == -1:
            spare.discard(end)
        elif end not in req_index:
            # an exposed non-required end; after maximize() none is left
            spare.add(end)
    if any(match[i] == -1 for i in req_index):
        raise AssertionError("matching leaves a required vertex exposed")
    return solver.matching()
