"""Anchored induced-subgraph pattern matching.

A Pattern describes a small labelled graph to be located inside a host:
required edges must be present, optional edges may go either way, every
other role pair must be a non-edge.  Roles can additionally constrain the
host degree, demand that the host vertex keeps all its neighbors inside
the matched image (closure), or require a color state.  Each pattern is
searched by a function generated from its declaration and compiled the
first time the pattern is searched; a search takes each role's candidates
in set order, sorts the occurrences found at each vertex of the first role
once, and yields each as a plain role -> vertex dict.  A host has no
occurrence unless the roles can take distinct vertices whose degrees lie
in their windows, which `fits` reads from the host's degree census; the
drivers ask it before they search.

Every search goes through an `Orbits`.  `Pattern.find_all` fixes every
role and so yields every occurrence.  A consumer that needs only one
occurrence of each orbit of the pattern's automorphisms, and none whose
demanded colors already hold, labels fewer roles: the same generator then
compiles order tests `v_i < v_j` from the stabilizer
chain of the automorphisms that keep the consumer's labels, and a demand
test at the last demanded role, into the loops.  Automorphisms are computed
and searches compiled only when first needed, never at import.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .coloring import BLACK, WHITE
from .graph import Graph

# color preconditions
MUST_BLACK = "black"
MUST_UNCOLORED = "uncolored"

Coloring = Mapping[int, str]
# an occurrence of a pattern: its injective role -> vertex map
Embedding = dict[str, int]
# the compiled form of a search: search(adj, first, verts, C)
Search = Callable[..., Iterator[Embedding]]


def _rp(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _count(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


class Pattern:
    """A small labelled graph to locate as an induced subgraph.

    Required edges must be present, optional edges may go either way and
    every other role pair must be a non-edge.  `degree` bounds a role's
    host degree by (lo, hi), hi None for no upper bound; a `closure` role
    keeps all its host neighbors inside the image; `color` demands
    MUST_BLACK or MUST_UNCOLORED of a role's vertex, and `black_roles`
    counts the MUST_BLACK roles.

    Roles are placed in `order`: the most constrained first, then along
    required edges.  The first search compiles a function with one nested
    loop per role in that order that yields a role -> vertex dict per
    occurrence (see `_source`); the declaration is validated here because
    the bounds are written into that source.
    """

    __slots__ = ("roles", "required", "optional", "degree", "closure", "color", "name",
                 "black_roles", "order", "_depth", "radius", "_all", "_auts", "_least")

    def __init__(
        self,
        roles: tuple[str, ...],
        required: Iterable[tuple[str, str]],
        optional: Iterable[tuple[str, str]] = (),
        degree: Optional[dict[str, tuple[int, Optional[int]]]] = None,
        closure: frozenset[str] = frozenset(),
        color: Optional[dict[str, str]] = None,
        name: str = "",
    ) -> None:
        self.roles = roles
        # edges are kept as sorted pairs
        self.required = frozenset(_rp(a, b) for a, b in required)
        self.optional = frozenset(_rp(a, b) for a, b in optional)
        self.degree = {} if degree is None else degree
        self.closure = frozenset(closure)
        self.color = {} if color is None else color
        self.name = name
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
        # distinct roles take distinct vertices, so every embedding under a
        # coloring holds at least this many black vertices
        self.black_roles = sum(want == MUST_BLACK for want in self.color.values())
        self.order = self._role_order()
        self._depth = self._depths(self.order[0])
        self.radius = self._radius()
        # built on first use: the full search, the automorphisms and `least`
        self._all: Optional[Orbits] = None
        self._auts: Optional[tuple[tuple[int, ...], ...]] = None
        self._least: Optional[Orbits] = None

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

    # Hall's condition (P. Hall, "On representatives of subsets", 1935) on
    # the degree census: the windows are intervals of degrees, so taking
    # them by upper bound, each given the least degree left that it admits,
    # places every role if any injection does.  The census caps each count
    # at 15, and no pattern has more roles, so the cap never decides.
    def fits(self, g: Graph) -> bool:
        """Whether the roles can take distinct host vertices whose degrees
        lie in their windows; a host where they cannot has no embedding."""
        census = g.degree_census()
        top = census.bit_length() + 3 >> 2  # no vertex has degree top or more
        for lo, hi in sorted(self._windows()[0], key=lambda w: top if w[1] is None else w[1]):
            d = lo
            while d < top and not census >> 4 * d & 15:
                d += 1
            if d >= top or hi is not None and d > hi:
                return False
            census -= 1 << 4 * d
        return True

    def _source(self, less: Sequence[tuple[int, int]] = (), demands: Sequence[tuple[int, str]] = ()) -> str:
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

        A consumer's search (see `Orbits`) adds two kinds of test.  Each
        pair (i, j) of `less` skips `v{j}` in loop j unless it exceeds
        `v{i}`, i < j, which also tells the two apart.  With `demands`, pairs (position, BLACK or WHITE),
        the loop of the last demanded position skips the image once every
        demanded vertex has its color.  Without either the source is the
        full search of `find_all`.
        """
        k = len(self.order)
        pos = {r: i for i, r in enumerate(self.order)}
        partners = [[pos[s] for s in self.order[:i] if _rp(r, s) in self.required] for i, r in enumerate(self.order)]
        strangers = [[pos[s] for s in self.order[:i] if _rp(r, s) not in self.required | self.optional]
                     for i, r in enumerate(self.order)]
        bounds, loose = self._windows()
        read = {j for i in range(k) for j in partners[i] + strangers[i]} | set(loose)
        last = max((j for j, _ in demands), default=-1)

        lines = ["def search(adj, first, verts, C):", "    found = []"]
        for i, r in enumerate(self.order):
            pad = "    " * (i + 1)
            below = [j for j, m in less if m == i]
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
            # an order test also tells the two vertices apart; it compares
            # ids only, so it comes first
            skip[:0] = [f"v{i:d} {'<=' if j in placed else '<'} v{j:d}" for j in below]
            placed = [j for j in placed if j not in below]
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
            # only the degree tests read the neighborhood
            sized = bool(tests)
            want = self.color.get(r)
            if want == MUST_BLACK:
                tests.append(f"C.get(v{i:d}) != BLACK")
            elif want == MUST_UNCOLORED:
                tests.append(f"C.get(v{i:d}) is not None")
            if i == last:
                met = " and ".join(f"C.get(v{j:d}) == {'BLACK' if col == BLACK else 'WHITE'}" for j, col in demands)
                tests.append(f"({met})" if len(demands) > 1 else met)
            pad += "    "
            if skip:
                lines += [f"{pad}if {' or '.join(skip)}:", f"{pad}    continue"]
            if i in read or sized:
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

    def _exec(self, source: str) -> Search:
        namespace = {"BLACK": BLACK, "WHITE": WHITE, "R": self.order}
        exec(compile(source, f"<pattern {self.name}>", "exec"), namespace)
        return namespace["search"]

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
        It searches through an `Orbits` that fixes every role, so it keeps
        every occurrence and its source is `_source()`.
        """
        if self._all is None:
            self._all = Orbits(self, fixed=self.order)
        return self._all(g, colors, anchors)

    @property
    def least(self) -> Orbits:
        """The search of a consumer with no labels and no demands: of the
        embeddings of `find_all`, the least of each orbit under every
        automorphism, in the same order.  Its first is find_all's first."""
        if self._least is None:
            self._least = Orbits(self)
        return self._least

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """The role permutations that keep the declaration: required,
        optional and forbidden pairs, declared degree windows, closure and
        color constraints.  Each is a tuple s over positions of `order`: s[i]
        = j maps role order[i] to order[j].  Found by backtracking along
        `order` on the first call, and kept."""
        if self._auts is None:
            order, k = self.order, len(self.order)
            kind = [[2 if _rp(a, b) in self.required else _rp(a, b) in self.optional for b in order] for a in order]
            sig = [(self.degree.get(r), r in self.closure, self.color.get(r)) for r in order]
            found: list[tuple[int, ...]] = []

            def extend(image: list[int]) -> None:
                i = len(image)
                if i == k:
                    found.append(tuple(image))
                    return
                for j in range(k):
                    if j not in image and sig[j] == sig[i] and all(kind[i][h] == kind[j][image[h]] for h in range(i)):
                        image.append(j)
                        extend(image)
                        image.pop()

            extend([])
            self._auts = tuple(found)
        return self._auts


# Why a driver that reads an `Orbits` search acts exactly as on `find_all`,
# witnesses included:
# - A demand that holds stays held: colors only grow.  So an occurrence
#   skipped as met would yield a group with nothing to do, now and later.
# - The kept member of an orbit is the first one the full search yields,
#   since canonical order is ascending in `order`.  Its group holds the same
#   demands, so once it is applied every later copy is met; a consumer that
#   reads only its first occurrence reads the same one.
# - A copy tested later than the kept one, at another anchor, passes the
#   color tests only if the kept one did, as long as no test can turn from
#   failing to passing during a scan.  A MUST_UNCOLORED test cannot.  A
#   MUST_BLACK one can, in a scan that blackens: such a consumer fixes the
#   first role, so that all copies share one anchor and are tested at one
#   moment.
# - On an anchored rescan, the least copy of an unmet group lies inside the
#   ball, so the rescan yields it: a copy anchored outside the ball read
#   nothing new since the rule's last pass that found nothing, so its group,
#   which every copy shares, would be met (see `Worklist` in dimatch.rules).
# A consumer whose group is read from colors that its own scan can change
# (rule_hat_pentagon) keeps `find_all`: a later copy could read more.
class Orbits:
    """A consumer's search of a pattern: of the occurrences `find_all`
    yields, the least of each orbit under the automorphisms that keep the
    consumer's labels, and with `demands` only those whose demanded colors
    do not all hold yet, in the same order.

    A role's label is its demanded color, or its own name for a role in
    `fixed`.  On the first call the kept automorphisms G_0 give, along
    `order`, a stabilizer chain: G_{i+1} fixes position i in G_i.  For each
    other position j of the orbit of i under G_i the compiled search tests
    v_i < v_j, so it keeps one member of each orbit, the least in `order`
    (Grochow & Kellis, "Network motif discovery using subgraph enumeration
    and symmetry-breaking", RECOMB 2007).  The demand test sits in the loop
    of the last demanded role.  The argument above says why the drivers'
    outputs do not change.
    """

    __slots__ = ("pattern", "size", "demands", "fixed", "_search")

    def __init__(self, pattern: Pattern, demands: Optional[Mapping[str, str]] = None, fixed: Iterable[str] = ()) -> None:
        self.pattern = pattern
        self.size = len(pattern.roles)
        # role -> the color the consumer demands of its vertex
        self.demands: Mapping[str, str] = {} if demands is None else demands
        self.fixed = tuple(fixed)
        self._search: Optional[Search] = None

    def less(self) -> list[tuple[int, int]]:
        """The order tests (i, j), v_i < v_j, of the stabilizer chain of
        the automorphisms that keep the labels; a fixed role's label is a
        tuple of its name, which no other label equals."""
        p = self.pattern
        labels: dict[str, Hashable] = {**self.demands, **{r: (r,) for r in self.fixed}}
        label = [labels.get(r) for r in p.order]
        group = [s for s in p.automorphisms() if all(label[s[i]] == label[i] for i in range(len(s)))]
        out = []
        for i in range(len(p.order)):
            out += [(i, j) for j in sorted({s[i] for s in group}) if j != i]
            group = [s for s in group if s[i] == i]
        return out

    def _compile(self) -> Search:
        self._search = self.pattern._exec(self.source())
        return self._search

    def source(self) -> str:
        """The pattern's search source with this consumer's tests."""
        p = self.pattern
        pos = {r: i for i, r in enumerate(p.order)}
        return p._source(self.less(), [(pos[r], col) for r, col in self.demands.items()])

    def __call__(self, g: Graph, colors: Optional[Coloring] = None, anchors: Optional[Sequence[int]] = None) -> Iterator[Embedding]:
        """The kept embeddings, as `Pattern.find_all` takes its arguments;
        the search compiles on the first call."""
        verts = g.vertices
        if len(verts) < self.size:
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
