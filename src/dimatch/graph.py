"""Immutable simple undirected graphs with stable integer vertex ids."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph. Instances are immutable after construction.

    Vertex ids are arbitrary integers and survive unchanged through
    subgraph / rewrite operations, which always return new graphs.  The id
    floor is the least id `fresh_ids` may hand out; subgraph / rewrite carry
    it over, so graphs cut from one host can allocate disjoint fresh ids.
    """

    __slots__ = ("_adj", "_vertices", "_cache", "_id_floor")

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
        self._vertices = tuple(sorted(self._adj))
        self._cache: dict[str, object] = {}
        self._id_floor = id_floor

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def edges(self) -> list[tuple[int, int]]:
        return sorted(_pair(u, v) for u in self._vertices for v in self._adj[u] if u < v)

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self):  # pragma: no cover - graphs used as values, not keys
        return hash((self._vertices, frozenset(map(frozenset, self.edges()))))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived structure (cached; the graph is immutable) ---------------

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

    def triangles(self) -> list[tuple[int, int, int]]:
        """All triangles as sorted vertex triples, in sorted order."""
        cached = self._cache.get("triangles")
        if cached is None:
            out = []
            for u in self._vertices:
                for v in self._adj[u]:
                    if v < u:
                        continue
                    for w in self._adj[u] & self._adj[v]:
                        if w > v:
                            out.append((u, v, w))
            cached = sorted(out)
            self._cache["triangles"] = cached
        return cached  # type: ignore[return-value]

    def triangles_at(self) -> dict[int, list[tuple[int, int, int]]]:
        cached = self._cache.get("triangles_at")
        if cached is None:
            at: dict[int, list[tuple[int, int, int]]] = {v: [] for v in self._vertices}
            for t in self.triangles():
                for v in t:
                    at[v].append(t)
            cached = at
            self._cache["triangles_at"] = cached
        return cached  # type: ignore[return-value]

    def maximal_cliques_of_size_ge2(self) -> list[tuple[int, ...]]:
        """Maximal cliques with at least two vertices.

        Only supported when every maximal clique has at most three
        vertices; a larger clique raises ValueError.
        """
        for a, b, c in self.triangles():
            for d in self._adj[a] & self._adj[b] & self._adj[c]:
                raise ValueError(f"clique of size >=4 at {sorted((a, b, c, d))}")
        tri_edges = set()
        for a, b, c in self.triangles():
            tri_edges |= {_pair(a, b), _pair(a, c), _pair(b, c)}
        out: list[tuple[int, ...]] = list(self.triangles())
        out.extend(e for e in self.edges() if e not in tri_edges)
        return sorted(out, key=lambda t: (len(t), t))

    def induced_c4s(self) -> list[tuple[int, int, int, int]]:
        """Chordless 4-cycles (a, b, c, d) with edges ab, bc, cd, da.

        Canonical labelling: a is the smallest vertex and b < d.
        """
        cached = self._cache.get("induced_c4s")
        if cached is None:
            out = []
            for a in self._vertices:
                na = self._adj[a]
                for b, d in combinations(sorted(na), 2):
                    if b < a or b in self._adj[d]:
                        continue
                    for c in self._adj[b] & self._adj[d]:
                        if c > a and c not in na:
                            out.append((a, b, c, d))
            cached = out
            self._cache["induced_c4s"] = cached
        return cached  # type: ignore[return-value]

    def butterflies(self) -> list[tuple[int, ...]]:
        """Induced butterflies: centre v plus edges ab, cd among N(v), no
        other adjacency within {a, b, c, d}."""
        cached = self._cache.get("butterflies")
        if cached is None:
            out = []
            for v in self._vertices:
                nv = sorted(self._adj[v])
                wing_edges = [(a, b) for a, b in combinations(nv, 2) if b in self._adj[a]]
                for (a, b), (c, d) in combinations(wing_edges, 2):
                    if len({a, b, c, d}) < 4:
                        continue
                    cross = sum(1 for x, y in ((a, c), (a, d), (b, c), (b, d)) if y in self._adj[x])
                    if cross == 0:
                        out.append((v, a, b, c, d))
            cached = out
            self._cache["butterflies"] = cached
        return cached  # type: ignore[return-value]

    def is_butterfly_free(self) -> bool:
        return not self.butterflies()

    def diamonds(self) -> list[tuple[int, ...]]:
        """Induced diamonds (K4 minus an edge) as (x, y, a, b): x, y the
        degree-3 pair, a, b nonadjacent."""
        out = []
        for x, y in self.edges():
            common = sorted(self._adj[x] & self._adj[y])
            for a, b in combinations(common, 2):
                if b not in self._adj[a]:
                    out.append((x, y, a, b))
        return out

    def has_k4(self) -> bool:
        for a, b, c in self.triangles():
            if self._adj[a] & self._adj[b] & self._adj[c]:
                return True
        return False

    def dist_at_least_3(self, u: int, v: int) -> bool:
        """True iff u and v are distinct, nonadjacent and share no neighbor."""
        return u != v and v not in self._adj[u] and not (self._adj[u] & self._adj[v])

    # -- construction of derived graphs -----------------------------------

    def subgraph(self, keep: Iterable[int], id_floor: int | None = None) -> Graph:
        """The induced subgraph on keep; it inherits this graph's id floor
        unless id_floor is given."""
        keep_set = set(keep)
        adj = self._adj
        # the same sorted edge order as filtering edges(), at the cost of keep
        edges = [(u, v) for u in sorted(keep_set) for v in sorted(adj[u]) if v > u and v in keep_set]
        return Graph(keep_set, edges, self._id_floor if id_floor is None else id_floor)

    def remove_vertices(self, drop: Iterable[int]) -> Graph:
        drop_set = set(drop)
        return self.subgraph(v for v in self._vertices if v not in drop_set)

    def rewrite(
        self,
        remove_vertices: Iterable[int] = (),
        add_vertices: Iterable[int] = (),
        add_edges: Iterable[tuple[int, int]] = (),
        remove_edges: Iterable[tuple[int, int]] = (),
    ) -> Graph:
        drop = set(remove_vertices)
        removed = {_pair(*e) for e in remove_edges}
        verts = [v for v in self._vertices if v not in drop]
        verts.extend(add_vertices)
        edges = [e for e in self.edges() if e[0] not in drop and e[1] not in drop and e not in removed]
        edges.extend(_pair(*e) for e in add_edges)
        return Graph(verts, edges, self._id_floor)

    def fresh_ids(self, k: int) -> list[int]:
        """k ids above every vertex and at least the id floor."""
        base = max((max(self._vertices) if self._vertices else 0) + 1, self._id_floor)
        return list(range(base, base + k))

    def relabelled(self, mapping: dict[int, int]) -> Graph:
        return Graph(
            (mapping[v] for v in self._vertices),
            ((mapping[u], mapping[v]) for u, v in self.edges()),
        )


# -- file format -----------------------------------------------------------
#
# line 1: "n m", then m lines "u v" with 1 <= u < v <= n.
# '#' comments and blank lines are ignored. The writer emits sorted edges.


def load_graph(text: str) -> Graph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
            continue
        if len(parts) != 2:
            raise GraphFormatError("expected edge 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge endpoints must be integers", lineno) from None
        if u == v:
            raise GraphFormatError("self-loops are not allowed", lineno)
        n = header[0]
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"vertex out of range 1..{n}", lineno)
        edges.append(_pair(u, v))
    if header is None:
        raise GraphFormatError("empty input: missing header 'n m'")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(f"header announces {m} edges, found {len(edges)}")
    return Graph(range(1, n + 1), set(edges))


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


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labelled graph on vertices 1..n, in bitmask order."""
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        yield from_edges(n, (e for i, e in enumerate(slots) if mask >> i & 1))
