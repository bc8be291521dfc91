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


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class _Matcher:
    """Mutable matching state over a fixed graph."""

    def __init__(self, g: Graph):
        self.verts = list(g.vertices)
        self.index = {v: i for i, v in enumerate(self.verts)}
        self.adj = [[self.index[w] for w in sorted(g.neighbors(v))] for v in self.verts]
        self.n = len(self.verts)
        self.match = [-1] * self.n

    def matching(self) -> Matching:
        out: Matching = set()
        for i, j in enumerate(self.match):
            if j > i:
                out.add(_norm(self.verts[i], self.verts[j]))
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

    def augment_from(self, v: int, spare: AbstractSet[int] = frozenset()) -> bool:
        """Search an augmenting path rooted at exposed vertex v; flip it.

        Every index in spare counts as adjacent to a virtual exposed helper
        vertex.  A path that ends at the helper frees its spare vertex, so
        the matching keeps its size and saturates v in that vertex's place.
        """
        root = self.index[v]
        if self.match[root] != -1:
            raise ValueError(f"{v} is already saturated")
        finish = self._find_path(root, spare)
        if finish == -1:
            return False
        if finish == self.n:
            freed = self.p[finish]
            finish = self.match[freed]
            self.match[freed] = -1
        while finish != -1:
            pv = self.p[finish]
            ppv = self.match[pv]
            self.match[finish] = pv
            self.match[pv] = finish
            finish = ppv
        return True

    def maximize(self) -> None:
        for i in range(self.n):
            if self.match[i] == -1:
                self.augment_from(self.verts[i])


def max_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching; handles odd cycles via blossoms."""
    solver = _Matcher(g)
    solver.maximize()
    return solver.matching()


def saturates(m: Iterable[tuple[int, int]], required: Iterable[int]) -> bool:
    covered = {x for e in m for x in e}
    return set(required) <= covered


def solve_saturation(g: Graph, required: Iterable[int]) -> Optional[Matching]:
    """Find a matching saturating every required vertex, or None.

    Start from a maximum matching; while a required vertex is exposed,
    look for an augmenting path from it that may end at a virtual helper
    vertex adjacent to every saturated non-required vertex.  Success
    trades a non-required saturated vertex for the required one; failure
    anywhere is final.  The result is still a maximum matching.
    """
    req = sorted(set(required))
    if not set(req) <= set(g.vertices):
        raise ValueError("required vertices outside graph")
    solver = _Matcher(g)
    solver.maximize()
    req_index = {solver.index[v] for v in req}
    for v in req:
        if solver.match[solver.index[v]] != -1:
            continue
        spare = {i for i, j in enumerate(solver.match) if j != -1 and i not in req_index}
        if not solver.augment_from(v, spare):
            return None
    current = solver.matching()
    if not saturates(current, req):
        raise AssertionError("matching leaves a required vertex exposed")
    return current
