"""Anchored induced-subgraph pattern matching.

A Pattern describes a small labelled graph to be located inside a host:
required edges must be present, optional edges may go either way, every
other role pair must be a non-edge.  Roles can additionally constrain the
host degree, demand that the host vertex keeps all its neighbors inside
the matched image (closure), or require a color state.  Each pattern is
searched by a function generated from its declaration and compiled the
first time the pattern is searched; a search takes each role's candidates
in set order, sorts the occurrences found at each vertex of the first role
once, and yields each as a plain role -> vertex dict.  A host with no
vertex in some role's degree window has no occurrence; the drivers ask
`fits` before they search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .coloring import BLACK
from .graph import Graph

# color preconditions
MUST_BLACK = "black"
MUST_UNCOLORED = "uncolored"

Coloring = Mapping[int, str]
# an occurrence of a pattern: its injective role -> vertex map
Embedding = dict[str, int]


def _rp(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _count(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


@dataclass
class Pattern:
    """A small labelled graph to locate as an induced subgraph.

    Required edges must be present, optional edges may go either way and
    every other role pair must be a non-edge.  `degree` bounds a role's
    host degree by (lo, hi), hi None for no upper bound; a `closure` role
    keeps all its host neighbors inside the image; `color` demands
    MUST_BLACK or MUST_UNCOLORED of a role's vertex.

    Roles are placed in `order`: the most constrained first, then along
    required edges.  The first search compiles a function with one nested
    loop per role in that order that yields a role -> vertex dict per
    occurrence (see `_source`); the declaration is validated here because
    the bounds are written into that source.
    """

    roles: tuple[str, ...]
    required: frozenset[tuple[str, str]]
    optional: frozenset[tuple[str, str]] = frozenset()
    degree: dict[str, tuple[int, int | None]] = field(default_factory=dict)
    closure: frozenset[str] = frozenset()
    color: dict[str, str] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        # edges are kept as sorted pairs
        self.required = frozenset(_rp(a, b) for a, b in self.required)
        self.optional = frozenset(_rp(a, b) for a, b in self.optional)
        roles = set(self.roles)
        for a, b in self.required | self.optional:
            if a not in roles or b not in roles:
                raise ValueError(f"{self.name}: edge ({a},{b}) uses undeclared role")
        if self.required & self.optional:
            raise ValueError(f"{self.name}: required and optional edges overlap")
        for r in list(self.degree) + list(self.color) + list(self.closure):
            if r not in roles:
                raise ValueError(f"{self.name}: constraint on undeclared role {r}")
        for r, want in self.color.items():
            if want not in (MUST_BLACK, MUST_UNCOLORED):
                raise ValueError(f"{self.name}: color of {r} is {want!r}, not {MUST_BLACK!r} or {MUST_UNCOLORED!r}")
        for r, bounds in self.degree.items():
            if not (isinstance(bounds, tuple) and len(bounds) == 2 and _count(bounds[0])
                    and (bounds[1] is None or _count(bounds[1]) and bounds[1] >= bounds[0])):
                raise ValueError(f"{self.name}: degree of {r} is {bounds!r}, not (lo, hi) with ints 0 <= lo <= hi or hi None")
        self.order = self._role_order()
        self._depth = self._depths(self.order[0])
        self.radius = self._radius()
        self._search: Optional[Callable[..., Iterator[Embedding]]] = None

    def _role_order(self) -> tuple[str, ...]:
        """Most-constrained first, then expand along required edges."""
        partners: dict[str, set[str]] = {r: set() for r in self.roles}
        for a, b in self.required:
            partners[a].add(b)
            partners[b].add(a)
        weight = {r: (r not in self.color, r not in self.degree, -len(partners[r]), i)
                  for i, r in enumerate(self.roles)}
        order = [min(self.roles, key=weight.get)]
        attached = set(partners[order[0]])
        while len(order) < len(self.roles):
            rest = [r for r in self.roles if r not in order]
            nxt = min([r for r in rest if r in attached] or rest, key=weight.get)
            order.append(nxt)
            attached |= partners[nxt]
        return tuple(order)

    def _depths(self, start: str) -> dict[str, int]:
        """Each role's distance from start along required edges; roles out
        of reach are left out."""
        depth, frontier, d = {start: 0}, [start], 0
        while frontier:
            d += 1
            frontier = [s for s in self.roles if s not in depth
                        and any(_rp(r, s) in self.required for r in frontier)]
            depth.update((s, d) for s in frontier)
        return depth

    def _radius(self) -> Optional[int]:
        """How far from the first role's vertex a change can alter a scan,
        or None if some role is out of reach.  Every vertex an embedding
        uses lies within the farthest role's distance along required edges.
        That ring does not count when its roles carry no color, degree or
        closure constraint and no required or forbidden pair among
        themselves: a scan then reads only their ids and their edges to
        nearer roles, and neither changes without a change within one ring
        less."""
        if len(self._depth) < len(self.roles):
            return None
        far = max(self._depth.values())
        ring = [r for r in self.roles if self._depth[r] == far]
        bare = not any(r in self.color or r in self.degree or r in self.closure for r in ring)
        return far - 1 if far and bare and all(_rp(a, b) in self.optional for a, b in combinations(ring, 2)) else far

    def reach(self, roles: Iterable[str]) -> Optional[int]:
        """The radius of a scan that also reads the colors of roles."""
        if self.radius is None:
            return None
        return max([self.radius, *(self._depth[r] for r in roles)])

    # -- matching ----------------------------------------------------------

    def _windows(self) -> tuple[list[tuple[int, Optional[int]]], list[int]]:
        """Each role's host degree window (lo, hi) in `order`, hi None for
        no cap, and the positions of the closure roles with optional edges.

        A role's vertex has a neighbor per required edge.  A closure role's
        neighbors are its required partners plus some optional ones, which
        caps its degree; without optional edges the window is exact and
        settles the closure test.
        """
        bounds: list[tuple[int, Optional[int]]] = []
        loose: list[int] = []
        for i, r in enumerate(self.order):
            n_req = sum(1 for e in self.required if r in e)
            lo, hi = self.degree.get(r, (0, None))
            if r in self.closure:
                n_opt = sum(1 for e in self.optional if r in e)
                hi = n_req + n_opt if hi is None else min(hi, n_req + n_opt)
                if n_opt:
                    loose.append(i)
            bounds.append((max(lo, n_req), hi))
        return bounds, loose

    @cached_property
    def _masks(self) -> frozenset[int]:
        """One bit mask per distinct degree window, bit d for degree d; a
        window with no cap has a negative mask, whose bits from lo up never
        end."""
        return frozenset(-(1 << lo) if hi is None else (1 << hi + 1) - (1 << lo)
                         for lo, hi in self._windows()[0])

    def fits(self, g: Graph) -> bool:
        """Whether every role's degree window holds the degree of some host
        vertex; a host where one holds none has no embedding."""
        host = g.degree_mask()
        return all(host & mask for mask in self._masks)

    def _source(self) -> str:
        """Source of `search(adj, first, verts, C)`, this pattern's scan.

        The i-th role of `order` is bound to `v{i}` in the i-th nested loop
        and its neighborhood to `n{i}`.  Its candidates are the common
        neighbors of its earlier required partners less the neighbors of
        the earlier roles it must not touch, built by one chained set
        operation such as `n3.intersection(n5).difference(n0, n1)` and
        taken in set order; a role with no earlier partner draws from
        `first` (role 0) or `verts`.  Degree and color tests are written
        only for the roles that need them, and the closure test of closure
        roles with optional edges only inside the last loop, which appends
        the image `(v0, v1, ...)` to the list `found`.  Once a role-0
        vertex's loops end, its images, if any, are sorted and each yielded
        as `dict(zip(R, t))` with R the roles in `order`, and a new list
        takes their place: role 0 runs over `first` in its order and the
        images are distinct, so embeddings come out in canonical order with
        one sort per anchor that has any.  The text holds no role name:
        only role positions and the validated degree bounds.
        """
        k = len(self.order)
        pos = {r: i for i, r in enumerate(self.order)}
        partners = [[pos[s] for s in self.order[:i] if _rp(r, s) in self.required] for i, r in enumerate(self.order)]
        strangers = [[pos[s] for s in self.order[:i] if _rp(r, s) not in self.required | self.optional]
                     for i, r in enumerate(self.order)]
        bounds, loose = self._windows()
        read = {j for i in range(k) for j in partners[i] + strangers[i]} | set(loose)

        lines = ["def search(adj, first, verts, C):", "    found = []"]
        for i, r in enumerate(self.order):
            pad = "    " * (i + 1)
            if partners[i]:
                head, *more = (f"n{j:d}" for j in partners[i])
                cands = head + (f".intersection({', '.join(more)})" if more else "")
                if strangers[i]:
                    cands += f".difference({', '.join(f'n{j:d}' for j in strangers[i])})"
                lines.append(f"{pad}for v{i:d} in {cands}:")
                # a candidate is a neighbor of each partner, so not a partner
                placed = [j for j in range(i) if j not in partners[i]]
                skip = []
            else:
                lines.append(f"{pad}for v{i:d} in {'verts' if i else 'first'}:")
                placed = list(range(i))
                skip = [f"v{i:d} in n{j:d}" for j in strangers[i]]
            if len(placed) == 1:
                skip.append(f"v{i:d} == v{placed[0]:d}")
            elif placed:
                skip.append(f"v{i:d} in ({', '.join(f'v{j:d}' for j in placed)})")
            # a candidate has a neighbor per partner already
            lo, hi = bounds[i]
            lo = lo if lo > len(partners[i]) else 0
            tests = []
            if lo and hi is not None:
                tests.append(f"len(n{i:d}) != {lo:d}" if lo == hi else f"not {lo:d} <= len(n{i:d}) <= {hi:d}")
            elif lo:
                tests.append(f"len(n{i:d}) < {lo:d}")
            elif hi is not None:
                tests.append(f"len(n{i:d}) > {hi:d}")
            want = self.color.get(r)
            if want == MUST_BLACK:
                tests.append(f"C.get(v{i:d}) != BLACK")
            elif want == MUST_UNCOLORED:
                tests.append(f"C.get(v{i:d}) is not None")
            pad += "    "
            if skip:
                lines += [f"{pad}if {' or '.join(skip)}:", f"{pad}    continue"]
            if i in read or tests:
                lines.append(f"{pad}n{i:d} = adj[v{i:d}]")
            if tests:
                lines += [f"{pad}if {' or '.join(tests)}:", f"{pad}    continue"]
        image = ", ".join(f"v{i:d}" for i in range(k))
        if loose:
            lines.append(f"{pad}U = {{{image}}}")
            lines += [f"{pad}if not ({' and '.join(f'n{j:d} <= U' for j in loose)}):", f"{pad}    continue"]
        lines.append(f"{pad}found.append(({image},))")
        lines += ["        if found:", "            found.sort()", "            for t in found:",
                  "                yield dict(zip(R, t))", "            found = []"]
        return "\n".join(lines) + "\n"

    def _compile(self) -> Callable[..., Iterator[Embedding]]:
        namespace = {"BLACK": BLACK, "R": self.order}
        exec(compile(self._source(), f"<pattern {self.name}>", "exec"), namespace)
        self._search = namespace["search"]
        return self._search

    def find_all(
        self,
        g: Graph,
        colors: Optional[Coloring] = None,
        anchors: Optional[Sequence[int]] = None,
    ) -> Iterator[Embedding]:
        """Every embedding as a fresh role -> vertex dict, in canonical
        order (role order, ascending vertex ids): the search takes
        candidates in set order and sorts each anchor's embeddings once.

        With anchors (ascending host vertices), only the embeddings that
        place the first role on an anchor, still in canonical order; no
        change farther than `radius` from its anchors alters such a scan.
        The census is not asked here: a host this pattern does not fit
        (see `fits`) yields nothing, and the drivers skip it beforehand.
        """
        verts = g.vertices
        if len(verts) < len(self.roles):
            return iter(())
        search = self._search or self._compile()
        return search(g.adjacency, verts if anchors is None else anchors, verts, {} if colors is None else colors)


def _edges(spec: str) -> frozenset[tuple[str, str]]:
    return frozenset(tuple(e.split("-")) for e in spec.split())


def pattern(name: str, roles: str, req: str, opt: str = "", **kw) -> Pattern:
    return Pattern(
        roles=tuple(roles.split()),
        required=_edges(req),
        optional=_edges(opt) if opt else frozenset(),
        name=name,
        **kw,
    )


def contains_s222(g: Graph) -> Optional[Embedding]:
    """Find an induced long claw: centre c, three paths c-ai-bi, no other
    adjacencies among the seven vertices.

    At each centre c, an arm's legs are its neighbours outside c's closed
    neighbourhood, and an arm with no leg is dropped.  For three pairwise
    nonadjacent arms, arm i's legs that miss the other two arms are a set
    difference; the triple is skipped at the first empty one.  Centres,
    arms and legs go in ascending order, so the claw found is the least in
    (c, a1, a2, a3, b1, b2, b3) order.
    """
    adj = g.adjacency
    for c in g.vertices:
        nc = adj[c]
        if len(nc) < 3:
            continue
        closed = nc | {c}
        legs = {a: adj[a] - closed for a in sorted(nc)}
        arms = [a for a, ls in legs.items() if ls]
        for i, a1 in enumerate(arms):
            n1 = adj[a1]
            for j in range(i + 1, len(arms)):
                a2 = arms[j]
                if a2 in n1:
                    continue
                n2 = adj[a2]
                for a3 in arms[j + 1 :]:
                    if a3 in n1 or a3 in n2:
                        continue
                    n3 = adj[a3]
                    l1 = sorted(legs[a1] - n2 - n3)
                    l2 = l1 and sorted(legs[a2] - n1 - n3)
                    l3 = l2 and sorted(legs[a3] - n1 - n2)
                    if not l3:
                        continue
                    for b1 in l1:
                        m1 = adj[b1]
                        for b2 in l2:
                            if b2 in m1:
                                continue
                            m2 = adj[b2]
                            for b3 in l3:
                                if b3 not in m1 and b3 not in m2:
                                    return {"c": c, "a1": a1, "a2": a2, "a3": a3, "b1": b1, "b2": b2, "b3": b3}
    return None
