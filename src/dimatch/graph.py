"""Simple undirected graphs with stable integer vertex ids, edited in place
only through `Graph.edit`."""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import combinations, count
from typing import Iterable, Mapping, Sequence


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


_versions = count()


class Graph:
    """Simple undirected graph.

    Vertex ids are arbitrary integers and survive unchanged through
    subgraph / rewrite / edit.  `edit` changes a graph in place; every
    other operation leaves it alone, and `subgraph` / `rewrite` return new
    graphs.  The id floor is the least id `fresh_ids` may hand out;
    subgraph / rewrite carry it over, so graphs cut from one host can
    allocate disjoint fresh ids.  The version (read only) is drawn afresh,
    from one count shared by all graphs, at construction and at every
    edit, so it names one graph in one state.
    """

    __slots__ = ("_adj", "_vertices", "_m", "_cache", "_id_floor", "version")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]],
        id_floor: int = 0,
    ):
        adj: dict[int, set[int]] = {int(v): set() for v in vertices}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u},{v}) uses unknown vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._vertices = sorted(adj)
        self._m = sum(map(len, adj.values())) // 2
        self._cache: dict[str, object] = {}
        self._id_floor = id_floor
        self.version = next(_versions)

    @classmethod
    def _unchecked(cls, adj: dict[int, frozenset[int]], vertices: list[int], m: int, id_floor: int) -> Graph:
        """The graph with these neighborhoods, taken as they are: no check
        and no copy.  The caller vouches that adj is symmetric and
        loop-free, vertices are its keys ascending and m its edge count."""
        g = cls.__new__(cls)
        g._adj = adj
        g._vertices = vertices
        g._m = m
        g._cache = {}
        g._id_floor = id_floor
        g.version = next(_versions)
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> Sequence[int]:
        """The vertices, ascending; read only."""
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return self._m

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    @property
    def adjacency(self) -> Mapping[int, frozenset[int]]:
        """Every vertex's neighbors; read only."""
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def edges(self) -> list[tuple[int, int]]:
        return sorted(_pair(u, v) for u in self._vertices for v in self._adj[u] if u < v)

    def max_degree(self) -> int:
        return max(self.degree_counts(), default=0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived structure (cached; `edit` keeps the degree counts, the
    # degree census and the triangle index up to date and drops the rest) -

    def components(self) -> list[frozenset[int]]:
        cached = self._cache.get("components")
        if cached is None:
            seen: set[int] = set()
            comps = []
            for start in self._vertices:
                if start in seen:
                    continue
                comp = {start}
                stack = [start]
                while stack:
                    for w in self._adj[stack.pop()]:
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
                seen |= comp
                comps.append(frozenset(comp))
            cached = comps
            self._cache["components"] = cached
        return cached  # type: ignore[return-value]

    def degree_counts(self) -> dict[int, int]:
        """How many vertices have each degree; degrees no vertex has are
        left out.  `edit` keeps it up to date."""
        cached = self._cache.get("degree_counts")
        if cached is None:
            cached = self._cache["degree_counts"] = {}
            for ns in self._adj.values():
                d = len(ns)
                cached[d] = cached.get(d, 0) + 1
        return cached  # type: ignore[return-value]

    def degree_census(self) -> int:
        """Bits 4d to 4d + 3 count the vertices of degree d, capped at 15.
        `edit` keeps it up to date."""
        cached = self._cache.get("degree_census")
        if cached is None:
            cached = 0
            for d, k in self.degree_counts().items():
                cached |= (k if k < 15 else 15) << 4 * d
            self._cache["degree_census"] = cached
        return cached  # type: ignore[return-value]

    def low_degree_vertices(self) -> tuple[int, ...]:
        """The vertices of degree at most one, ascending."""
        cached = self._cache.get("low_degree")
        if cached is None:
            adj = self._adj
            cached = self._cache["low_degree"] = tuple(v for v in self._vertices if len(adj[v]) <= 1)
        return cached  # type: ignore[return-value]

    def triangles(self, anchors: Iterable[int] | None = None) -> list[tuple[int, int, int]]:
        """All triangles as sorted vertex triples, in sorted order.  With
        anchors (ascending), only those whose least vertex is an anchor.
        Both read the triangle index."""
        at = self.triangles_at()
        if anchors is not None:
            return [t for u in anchors for t in at[u] if t[0] == u]
        cached = self._cache.get("triangles")
        if cached is None:
            # each triangle at its least vertex; keys and lists ascend
            cached = self._cache["triangles"] = [t for v, ts in at.items() for t in ts if t[0] == v]
        return cached  # type: ignore[return-value]

    def _triangles_from(self, u: int) -> list[tuple[int, int, int]]:
        adj = self._adj
        return sorted((u, v, w) for v in adj[u] if v > u for w in adj[u] & adj[v] if w > v)

    def triangles_at(self) -> dict[int, list[tuple[int, int, int]]]:
        """Every vertex's triangles in sorted order, keyed in ascending
        vertex order.  `edit` keeps it up to date."""
        cached = self._cache.get("triangles_at")
        if cached is None:
            cached = self._cache["triangles_at"] = {v: [] for v in self._vertices}
            for u in self._vertices:
                for t in self._triangles_from(u):
                    for v in t:
                        cached[v].append(t)
        return cached  # type: ignore[return-value]

    def _triangles_at_vertex(self, v: int) -> list[tuple[int, int, int]]:
        adj = self._adj
        ns = adj[v]
        if len(ns) < 2:
            return []
        return sorted(
            (v, a, b) if v < a else (a, v, b) if v < b else (a, b, v)
            for a in ns for b in adj[a] & ns if a < b
        )

    # -- construction of derived graphs -----------------------------------

    def subgraph(self, keep: Iterable[int], id_floor: int | None = None) -> Graph:
        """The induced subgraph on keep; it inherits this graph's id floor
        unless id_floor is given."""
        keep_set = set(keep)
        verts = sorted(keep_set)
        adj = {v: self._adj[v] & keep_set for v in verts}
        m = sum(map(len, adj.values())) // 2
        return Graph._unchecked(adj, verts, m, self._id_floor if id_floor is None else id_floor)

    def copy(self) -> Graph:
        """An equal graph with a new version, sharing this one's
        neighborhoods (an edit replaces those it changes, never alters
        them); it takes over the degree counts and census and the triangle
        index if they are built."""
        g = Graph._unchecked(dict(self._adj), list(self._vertices), self._m, self._id_floor)
        # the structures an edit keeps up to date
        g._cache = {key: dict(self._cache[key]) for key in ("degree_counts", "triangles_at") if key in self._cache}
        if "degree_census" in self._cache:
            g._cache["degree_census"] = self._cache["degree_census"]
        return g

    def rewrite(
        self,
        remove_vertices: Iterable[int] = (),
        add_vertices: Iterable[int] = (),
        add_edges: Iterable[tuple[int, int]] = (),
        remove_edges: Iterable[tuple[int, int]] = (),
    ) -> Graph:
        """A copy of this graph with the same `edit` made on it; this graph
        is left alone."""
        g = self.copy()
        g.edit(remove_vertices, add_vertices, add_edges, remove_edges)
        return g

    def edit(
        self,
        remove_vertices: Iterable[int] = (),
        add_vertices: Iterable[int] = (),
        add_edges: Iterable[tuple[int, int]] = (),
        remove_edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Remove some vertices (with their edges) and edges, then add some
        vertices and then edges, in place.  Removals may name vertices and
        edges that are not here.  An added edge that is a loop or names a
        vertex not here afterwards raises ValueError before anything
        changes.  Only the edited neighborhoods are replaced.  The degree
        counts and the triangle index, if built, are updated at the edited
        vertices, and the degree census, if built, at the degrees whose
        counts changed; every other cached structure is dropped, and the
        version is drawn afresh."""
        adj, verts = self._adj, self._vertices
        # dicts: ordered, without repeats
        gone = {v: None for v in remove_vertices if v in adj}
        added = {v: None for v in map(int, add_vertices) if v not in adj or v in gone}
        add_edges = [(int(u), int(v)) for u, v in add_edges]
        for u, v in add_edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (u not in adj or u in gone) and u not in added or (v not in adj or v in gone) and v not in added:
                raise ValueError(f"edge ({u},{v}) uses unknown vertex")
        touched: dict[int, set[int]] = {}

        def edit(v: int) -> set[int]:
            ns = touched.get(v)
            if ns is None:
                ns = touched[v] = set(adj[v])
            return ns

        m = self._m
        dropped: list[int] = []  # the degrees of the removed vertices
        for v in gone:
            ns = adj.pop(v)
            dropped.append(len(ns))
            for w in ns:
                if w in adj:
                    edit(w).discard(v)
                    m -= 1
            touched.pop(v, None)
            del verts[bisect_left(verts, v)]
        for v in added:
            adj[v] = frozenset()
            insort(verts, v)
        for u, v in remove_edges:
            if u in adj and v in adj:
                ns = edit(u)
                if v in ns:
                    ns.discard(v)
                    edit(v).discard(u)
                    m -= 1
        for u, v in add_edges:
            ns = edit(u)
            if v not in ns:
                ns.add(v)
                edit(v).add(u)
                m += 1
        self._m = m
        self.version = next(_versions)
        counts = self._cache.get("degree_counts")
        census = self._cache.get("degree_census")
        at = self._cache.get("triangles_at")
        self._cache = {}
        if counts is not None:
            # an added vertex starts at degree 0, also when its id was removed
            moved = set(dropped)
            for d in dropped:
                counts[d] -= 1
            if added:
                counts[0] = counts.get(0, 0) + len(added)
                moved.add(0)
            for v, ns in touched.items():
                d, e = len(adj[v]), len(ns)
                if d != e:
                    counts[d] -= 1
                    counts[e] = counts.get(e, 0) + 1
                    moved.update((d, e))
            for d in moved:
                k = counts[d]
                if not k:
                    del counts[d]
                if census is not None:
                    census += ((k if k < 15 else 15) - (census >> 4 * d & 15)) << 4 * d
            self._cache["degree_counts"] = counts
            if census is not None:
                self._cache["degree_census"] = census
        for v, ns in touched.items():
            adj[v] = frozenset(ns)
        if at is not None:
            self._cache["triangles_at"] = self._retriangle(at, touched, gone, list(added))

    def _retriangle(
        self, at: dict[int, list[tuple[int, int, int]]], touched: Iterable[int], gone: Iterable[int], added: list[int]
    ) -> dict[int, list[tuple[int, int, int]]]:
        """The triangle index updated in place after an edit.  A triangle
        at x comes or goes only with an edge at x, which edits x, or with
        an edge between two neighbors of x, which edits both.  So only the
        edited vertices and the vertices next to two of them are
        recomputed."""
        adj = self._adj
        near = set(touched)
        seen: set[int] = set()
        for v in touched:
            for x in adj[v]:
                if x in seen:
                    near.add(x)
                else:
                    seen.add(x)
        for v in gone:
            del at[v]
        for v in added:
            at[v] = []
        for v in near:
            at[v] = self._triangles_at_vertex(v)
        # new keys went last; that is ascending when they are the top ids
        if added and added != self._vertices[len(self._vertices) - len(added):]:
            at = {v: at[v] for v in self._vertices}
        return at

    def fresh_ids(self, k: int) -> list[int]:
        """k ids above every vertex and at least the id floor."""
        base = max((self._vertices[-1] if self._vertices else 0) + 1, self._id_floor)
        return list(range(base, base + k))


# -- file format -----------------------------------------------------------
#
# line 1: "n m", then m lines "u v" with 1 <= u < v <= n.
# '#' comments and blank lines are ignored. The writer emits sorted edges.


def load_graph(text: str) -> Graph:
    """The graph the text describes, on vertices 1..n with id floor 0;
    each edge is checked once, as it is added."""
    header: tuple[int, int] | None = None
    nbrs: dict[int, set[int]] = {}
    found = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split("#", 1)[0].split() if "#" in line else line.split()
        if not parts:
            continue
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError("expected header 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("header values must be integers", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("header values must be nonnegative", lineno)
            header = (n, m)
            nbrs = {v: set() for v in range(1, n + 1)}
            continue
        if len(parts) != 2:
            raise GraphFormatError("expected edge 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge endpoints must be integers", lineno) from None
        if u == v:
            raise GraphFormatError("self-loops are not allowed", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"vertex out of range 1..{n}", lineno)
        if v in nbrs[u]:
            raise GraphFormatError(f"edge {min(u, v)} {max(u, v)} listed twice", lineno)
        nbrs[u].add(v)
        nbrs[v].add(u)
        found += 1
    if header is None:
        raise GraphFormatError("empty input: missing header 'n m'")
    if found != m:
        raise GraphFormatError(f"header announces {m} edges, found {found}")
    # every edge is checked above, so the graph is built unchecked
    return Graph._unchecked({v: frozenset(ns) for v, ns in nbrs.items()}, list(nbrs), m, 0)


def save_graph(g: Graph) -> str:
    """Canonical form: vertices renumbered 1..n in id order, sorted edges."""
    index = {v: i + 1 for i, v in enumerate(g.vertices)}
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{index[u]} {index[v]}" for u, v in sorted(_pair(index[u], index[v]) for u, v in g.edges()))
    return "\n".join(lines) + "\n"


# -- convenience constructors (used heavily by tests and generators) -------


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    return Graph(range(1, n + 1), edges)


def cycle(n: int) -> Graph:
    return from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)]) if n >= 3 else path(n)


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


def complete(n: int) -> Graph:
    return from_edges(n, combinations(range(1, n + 1), 2))


def star(leaves: int) -> Graph:
    return from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)])
