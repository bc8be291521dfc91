"""Forcing rules, the propagation engine and clean pairs.

Every rule inspects the current partial coloring and demands colors that
hold in every completion (tag "forced"), or that can be assumed without
losing completability because any completion can be recolored to comply
(tag "exchange").  Conflicting demands refute the instance.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Generic, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .coloring import BLACK, WHITE, Conflict, PartialColoring, assign
from .graph import Graph
from .patterns import MUST_BLACK, MUST_UNCOLORED, Orbits, Pattern, pattern
from .setmatch import StructureViolation, check_structure, structure_fault

if TYPE_CHECKING:
    from .rewrite import RewriteStep

FORCED = "forced"
EXCHANGE = "exchange"

Demand = tuple[int, str]
# Rules yield one *group* of demands per firing, read from the coloring as
# it stands when the group is yielded; a group is applied atomically.  A
# rule yields only groups with a demand that does not hold yet, and a
# declared rule only one occurrence per orbit of its pattern's symmetries
# (see `Orbits`), so every group it yields would change a color, unless
# an earlier group of the same scan already made the change.  A forced
# rule's scan goes on after a firing and applies every unsatisfied group
# it yields, an exchange rule's scan stops at its first firing; then
# propagation restarts (see `propagate`).
# A rule with a radius also takes ascending anchors and then yields only the
# groups its full scan yields from those anchors, in the same order, reading
# nothing farther than the radius from them.
RuleFn = Callable[..., Iterator[list[Demand]]]
Anchors = Optional[Sequence[int]]


class Rule(NamedTuple):
    """A forcing rule.  `propagate` runs only the rules whose `shape` fits
    the host's degree census (see `DispatchPlan`); a rule the census rules
    out costs no anchors and no call, and leaves no record.  A rule is not
    called either while the coloring has fewer black vertices than its
    shape has MUST_BLACK roles; it is then recorded as a whole pass that
    found nothing (see `propagate`)."""

    id: str
    tag: str
    fn: RuleFn
    # None: every scan is whole, called as fn(g, c).  That form and the
    # default shape are kept only because bench/spans.py rebuilds each
    # rule as Rule(id, tag, fn), losing radius and shape; so a traced run
    # scans every rule whole, meets neither the census nor the black-count
    # gate, and its per-rule figures do not show what those skip.
    radius: Optional[int] = None
    # a pattern every firing contains, under any coloring, with a black
    # vertex on each of its MUST_BLACK roles (`Pattern.black_roles`); a
    # host it does not fit has no firing anywhere, and a coloring with
    # fewer black vertices than those roles none either
    shape: Optional[Pattern] = None


Entry = TypeVar("Entry")

# the most censuses a dispatch plan keeps, so that a long-lived process
# stays bounded; a miss past it drops them all, which moves no output
PLAN_CAP = 2048


class DispatchPlan(Generic[Entry]):
    """The entries of a driver's table that can fire on a host, by degree
    census: those whose shape is None or fits the census, in table order.

    Whether a shape fits depends only on how many vertices the host has of
    each degree, capped at 15 (`Graph.degree_census`), so each census's
    tuple is built once, the first time a host with that census is seen,
    and `Pattern.fits` is asked nowhere else.  The plan remembers the table
    it was built from and starts afresh when asked about another one, so a
    table rebound at module level (as the bench tracer does) is followed,
    and rebinding the original back rebuilds its tuples."""

    __slots__ = ("shape", "table", "by_census")

    def __init__(self, shape: Callable[[Entry], Optional[Pattern]]) -> None:
        self.shape = shape
        self.table: Sequence[Entry] = ()
        self.by_census: dict[int, tuple[Entry, ...]] = {}

    def __call__(self, table: Sequence[Entry], g: Graph) -> tuple[Entry, ...]:
        if table is not self.table:
            self.table, self.by_census = table, {}
        census = g.degree_census()
        entries = self.by_census.get(census)
        if entries is None:
            if len(self.by_census) >= PLAN_CAP:
                self.by_census.clear()
            shape = self.shape
            entries = self.by_census[census] = tuple(e for e in table if (p := shape(e)) is None or p.fits(g))
        return entries


class Worklist:
    """The vertices whose color or adjacency changed during one reduction,
    in order, and per scan the log position of its last pass that found
    nothing, or the start of its last pass that drained; for a whole pass
    also the version of the graph it read.

    A scan whose anchors lie farther than its radius from every vertex
    logged since then would read exactly what it read then, so only the
    anchors inside that ball need a new look.  The balls around the
    changes since one log position come from one breadth-first search,
    grown ring by ring as larger radii are asked for.  Once as many changes
    as the graph has vertices were logged since, the ball costs about as
    much as the graph, and the rescan is whole; so is one whose ball holds
    every vertex, which `propagate` then records as whole.  An edit draws
    the graph a new version and every change is logged, so a whole pass
    recorded at the graph's current version and the current log length
    read exactly the current state, even after an edit that logged nothing
    (one that removes a whole component).  The balls are kept for one
    version and log length too.  A rule that the dispatch plan leaves out
    makes no pass and leaves no record: its last pass that found nothing
    still bounds what changed.  Nor does a rule that `propagate` skips at
    a settled coloring.  A rule that `propagate` skips because the
    coloring has fewer black vertices than its shape's MUST_BLACK roles
    leaves a whole record: a whole pass at that moment would have found
    nothing, and that is what the record says.

    A forced rule's pass that applied every group it yielded (see
    `propagate`) gets as its quiet mark the log length before the pass,
    since the pass read some anchors before its own changes.  A group
    anchored outside the ball a later rescan asks for read nothing that
    changed since that mark.  So it reads now what it read when the pass
    came by, or, for an anchored pass that did not come by, what it read
    at the pass's start, when the mark before covered it; either way
    it was satisfied then, since applying it would have logged a vertex
    within the radius, and it still is.  So once a rule's whole pass
    drained, a later pass on the same graph version that finds nothing has
    accounted for every group the rule has on the current state, drained
    anchored passes in between included.  `propagate`, which never edits
    the graph, records such a pass as whole too, so the fixpoint read may
    skip the rule.

    For the rigidity test of `propagate` it also keeps the watch, the
    vertex at which the last refused test found a fact broken, and whether
    propagation last ended at a pair that is rigid once cleaned.
    """

    __slots__ = ("log", "quiet", "whole", "_balls", "_state", "watch", "rigid")

    def __init__(self) -> None:
        self.log: list[int] = []
        self.quiet: dict[str, int] = {}
        # key -> (graph version, log length) of its last whole pass
        self.whole: dict[str, tuple[int, int]] = {}
        # one breadth-first search per log position, on the current graph
        # version and log: [ball, last ring, [sorted ball at radius 0, 1, ...]]
        self._balls: dict[int, list] = {}
        self._state: tuple[int, int] = (-1, 0)
        # the vertex at which the last refused rigidity test broke a fact
        self.watch: Optional[int] = None
        # whether propagation last ended at a pair rigid once cleaned
        self.rigid = False

    def anchors(self, g: Graph, key: str, radius: Optional[int]) -> Optional[list[int]]:
        """Ascending anchors to rescan for key; None means all of g: on
        its first pass, without a radius, after at least g.n logged
        changes, or when the ball at that radius holds every vertex of g."""
        since, now = self.quiet.get(key), len(self.log)
        if since is None or radius is None or now - since >= g.n:
            return None
        state = (g.version, now)
        if self._state != state:
            self._state, self._balls = state, {}
        grown = self._balls.get(since)
        if grown is None:
            adj = g.adjacency
            ball = {v for v in self.log[since:] if v in adj}
            grown = self._balls[since] = [ball, ball, [sorted(ball) if len(ball) < len(adj) else None]]
        ball, frontier, out = grown
        if radius >= len(out):
            adj = g.adjacency
            while radius >= len(out):
                frontier = {w for v in frontier for w in adj[v]} - ball
                ball |= frontier
                # a ball that holds all of g stands for a whole scan
                out.append(sorted(ball) if len(ball) < len(adj) else None)
            grown[1] = frontier
        return out[radius]

    def found_nothing(self, key: str, whole_on: Optional[Graph] = None) -> None:
        """Record that key's pass found nothing; whole_on is the graph a
        whole pass read."""
        self.quiet[key] = len(self.log)
        if whole_on is not None:
            self.whole[key] = (whole_on.version, len(self.log))

    def scanned_whole(self, g: Graph) -> set[str]:
        """The keys whose last whole pass found nothing on g as it stands."""
        now = (g.version, len(self.log))
        return {key for key, at in self.whole.items() if at == now}


class ReductionAudit:
    """Observer of every coloring, cleaning step and rewrite the reduction
    makes; the methods are no-ops, so a subclass overrides what it needs.
    g_pre and c_pre are copies taken before the step, only when an audit is
    passed; g_post and c_post are the reduction's own graph and coloring,
    which later steps edit in place."""

    def on_color(self, g: Graph, rule_id: str, tag: str, v: int, color: str, pre: PartialColoring) -> None:
        pass

    def on_clean(self, g_pre: Graph, c_pre: PartialColoring, g_post: Graph, c_post: PartialColoring) -> None:
        pass

    def on_rewrite(self, step: RewriteStep, g_pre: Graph, c_pre: PartialColoring, g_post: Graph, c_post: PartialColoring) -> None:
        pass


# --------------------------------------------------------------------------
# cheap local rules: whites force black neighbors, a matched black pair
# whitens its surroundings, a black vertex with one escape forces it.


def _basic_fixpoint(g: Graph, c: PartialColoring, wl: Worklist) -> Optional[Conflict]:
    """Sweep the vertices in ascending order until a sweep colors nothing.

    A vertex's step reads only its closed neighborhood, so a sweep visits
    only the vertices whose closed neighborhood changed since their last
    step: a coloring made at v queues the vertices it affects above v in
    this sweep and the others in the next.  The first sweep starts from
    the changes logged since the last fixpoint (all of g on a fresh
    worklist), and every coloring is logged.  A step colors and names
    neighbors in ascending order, so its conflicts depend on g alone.
    """
    adj, get = g.adjacency, c.state.get
    first = wl.anchors(g, "_basic", 1)
    sweep = list(g.vertices if first is None else first)
    while sweep:
        queued = set(sweep)
        later: set[int] = set()
        i = 0

        def colored(w: int) -> None:
            wl.log.append(w)
            for x in (w, *adj[w]):
                if x <= v:
                    later.add(x)
                elif x not in queued:
                    queued.add(x)
                    insort(sweep, x)

        while i < len(sweep):
            v = sweep[i]
            i += 1
            col = get(v)
            if col is None:
                continue
            ns = adj[v]
            if col == WHITE:
                fill, why = BLACK, "white_neighbors"
            else:
                black_nbrs = [w for w in ns if get(w) == BLACK]
                if len(black_nbrs) >= 2:
                    return Conflict("pair_overload", v, BLACK, f"black neighbors {sorted(black_nbrs)[:2]}")
                if not black_nbrs:
                    open_nbrs = [w for w in ns if get(w) != WHITE]
                    if not open_nbrs:
                        return Conflict("no_partner", v, BLACK, "all neighbors white")
                    if len(open_nbrs) == 1:
                        conflict = assign(g, c, open_nbrs[0], BLACK, "last_partner")
                        if conflict is not None:
                            return conflict
                        colored(open_nbrs[0])
                    continue
                # the partner is black, so the uncolored neighbors are the rest
                fill, why = WHITE, "matched_pair"
            todo = [w for w in ns if get(w) is None]
            if len(todo) > 1:
                todo.sort()
            for w in todo:
                conflict = assign(g, c, w, fill, why)
                if conflict is not None:
                    return conflict
                colored(w)
        sweep = sorted(later)
    wl.found_nothing("_basic")
    return None


# --------------------------------------------------------------------------
# structural equalities: a black corner of a chordless square makes the
# opposite corner black and the other two white, and a black triangle vertex
# or private outside neighbor whitens the other.  White halves would never
# fire: every rule scans at the basic fixpoint, where each neighbor of a
# white vertex is black already (`assign` never whitens a vertex next to a
# white one), so the black halves draw the same conclusions.

P_BLACK_SQUARE = pattern("black_square", "a b c d", "a-b b-c c-d d-a", color={"a": MUST_BLACK})

# The shapes of the code rules (see Rule.shape) sit beside them.
P_TRIANGLE_OUTSIDER = pattern("triangle_outsider", "t r1 r2 u", "t-r1 t-r2 r1-r2 t-u")


# Code, not a declaration: that takes one pattern per black role under one
# id, and merging their scans by anchor cost +5 % on the claw networks.
# A group whitens one of t and u, a triangle vertex and its outsider (next
# to t, not to the other two), when the other is black.  So a scan skips,
# in the order of `Graph.triangles`, every triangle with no vertex in the
# closed neighborhood of a black vertex, and reads none without a black
# vertex.  It only whitens, so that neighborhood cannot grow while it runs.
# Walking the triangle index at the neighborhood instead, then sorting,
# cost more on every bench workload.
def rule_triangle_outsider(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    adj, get = g.adjacency, c.state.get
    near: set[int] = set()
    for v, col in c.state.items():
        if col == BLACK:
            near.add(v)
            near |= adj[v]
    if not near:
        return
    for tri in g.triangles(anchors):
        if near.isdisjoint(tri):
            continue
        t1, t2, t3 = tri
        # t's outsiders, ascending; a triangle vertex is next to the other
        # two, so the difference drops it
        for t, r1, r2 in ((t1, t2, t3), (t2, t1, t3), (t3, t1, t2)):
            for u in sorted(adj[t].difference(adj[r1], adj[r2])):
                ct, cu = get(t), get(u)
                if ct == BLACK and cu is None:
                    yield [(u, WHITE)]
                elif cu == BLACK and ct is None:
                    yield [(t, WHITE)]


# --------------------------------------------------------------------------
# the main catalog


def _demands(rule_id: str, tag: str, p: Pattern, **colors: str) -> Rule:
    """A rule that demands the given role colors on the embeddings of p,
    with p's radius.  It searches p through an `Orbits` labelled by the
    demanded colors, so it yields one embedding per orbit of the
    automorphisms that keep them, and none whose demands all hold already.

    A forced scan that blackens could make a MUST_BLACK test pass for a
    later copy of an occurrence whose least copy, at an earlier anchor,
    failed it; for such a rule the first role is fixed too, so every copy
    of an occurrence has one anchor and is tested at one moment."""
    fixed = (p.order[0],) if BLACK in colors.values() and MUST_BLACK in p.color.values() else ()
    find = Orbits(p, colors, fixed)

    def fn(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
        for emb in find(g, c.state, anchors):
            yield [(emb[role], color) for role, color in colors.items()]

    # propagate reads the demanded vertices' colors
    return Rule(rule_id, tag, fn, p.reach(colors), shape=p)


P_DEGREE_ONE = pattern("degree_one", "v", "", degree={"v": (0, 1)})


# Code, not a declaration: a filter over g.vertices in place of the
# low_degree_vertices index cost +25 % opcodes on claw networks.
def rule_degree_one(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    # only groups not yet satisfied: a leaf's support not yet black, an
    # isolated vertex not yet white
    adj, get = g.adjacency, c.state.get
    for v in g.low_degree_vertices() if anchors is None else anchors:
        ns = adj[v]
        if not ns:
            if get(v) != WHITE:
                yield [(v, WHITE)]
        elif len(ns) == 1:
            (s,) = ns
            if get(s) != BLACK:
                yield [(s, BLACK)]


# two black vertices at distance two, and a common neighbor w
P_BLACK_PAIR = pattern("black_pair", "u v w", "u-w v-w", color={"u": MUST_BLACK, "v": MUST_BLACK})


def _triangle_pairs(g: Graph, shared: int, anchors: Anchors) -> Iterator[set[int]]:
    """The common vertices of the triangle pairs t1 < t2 that share exactly
    `shared` vertices, in sorted pair order."""
    tri_at = g.triangles_at()
    for t1 in g.triangles(anchors):
        s1 = set(t1)
        for t2 in sorted({t2 for v in t1 for t2 in tri_at[v] if t2 > t1}):
            common = s1.intersection(t2)
            if len(common) == shared:
                yield common


# two triangles sharing only c, with any edges between their other vertices
P_BOWTIE = pattern("bowtie", "c a1 b1 a2 b2", "c-a1 c-b1 a1-b1 c-a2 c-b2 a2-b2", opt="a1-a2 a1-b2 b1-a2 b1-b2")
# two triangles sharing the edge a-b
P_DIAMOND = pattern("diamond", "a b c d", "a-b a-c b-c a-d b-d", opt="c-d")


# Code, not a declaration: searched in full, P_BOWTIE matched every bowtie 8
# times, which cost +7 % on the largest bench batch and raised its growth
# exponent.  Declared through `_demands` it would find each once, which is
# not measured yet.
def rule_bowtie_center(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    get = c.state.get
    for common in _triangle_pairs(g, 1, anchors):
        v = common.pop()
        if get(v) != WHITE:
            yield [(v, WHITE)]


# Code, not a declaration: this reads the triangle index, where a search of
# P_DIAMOND tries every edge at every vertex; declared, it cost +2 % on the
# claw networks.
def rule_diamond_pair(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    get = c.state.get
    for common in _triangle_pairs(g, 2, anchors):
        a, b = sorted(common)
        if get(a) != BLACK or get(b) != BLACK:
            yield [(a, BLACK), (b, BLACK)]


P_LEAF_SURPLUS = pattern("leaf_surplus", "s l1 l2", "s-l1 s-l2", degree={"l1": (1, 1), "l2": (1, 1)})


# Code, not a declaration: a group whitens all leaves of v but one.
def rule_leaf_surplus(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    # A support vertex keeps at most one of its leaves non-white; whiten
    # the rest (valid recoloring, not a forced consequence).
    for v in g.vertices if anchors is None else anchors:
        leaves = [w for w in g.neighbors(v) if g.degree(w) == 1]
        if len(leaves) < 2:
            continue
        leaves.sort()
        black = [w for w in leaves if c.get(w) == BLACK]
        keep = black[0] if black else leaves[0]
        group = [(w, WHITE) for w in leaves if w != keep and c.get(w) is None]
        if group:
            yield group


# v1(B) - v2 - v3 - v4 with deg(v3) = 2 forces v4 black.
P_CHAIN = pattern(
    "chain",
    "v1 v2 v3 v4",
    "v1-v2 v2-v3 v3-v4",
    opt="v1-v4 v2-v4",
    degree={"v3": (2, 2)},
    color={"v1": MUST_BLACK},
)


P_TRIANGLE_TAIL = pattern(
    "triangle_tail",
    "x y z u v",
    "x-y y-z z-u z-v u-v",
    degree={"y": (2, 2)},
)


P_HOUSE = pattern(
    "house",
    "x y z u v",
    "x-y x-z y-z z-u u-v v-y",
)


P_HAT_PENTAGON = pattern(
    "hat_pentagon",
    "x w1 u1 u2 w2 y",
    "x-w1 w1-u1 u1-u2 u2-w2 w2-x u1-y u2-y",
)


# Code, not a declaration: a group can whiten every other neighbor of x.
# It searches every embedding, not one per orbit: the mirror copy of an
# occurrence (w1, u1 swapped with w2, u2) comes later in the scan, and if
# another group blackened y meanwhile it yields the whites this one did not.
def rule_hat_pentagon(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    get = c.state.get
    for emb in P_HAT_PENTAGON.find_all(g, anchors=anchors):
        x, y = emb["x"], emb["y"]
        w1, w2 = emb["w1"], emb["w2"]
        group = [(x, BLACK)]
        if g.degree(x) == 2:
            group.append((y, BLACK))
        if get(y) == BLACK:
            group.extend((z, WHITE) for z in sorted(g.neighbors(x)) if z not in (w1, w2))
        if any(get(v) != col for v, col in group):
            yield group


# exchange variant: with these rigid degrees, a completion that blackens
# w1 can be recolored to whiten it instead.
P_HAT_PENTAGON_RIGID = pattern(
    "hat_pentagon_rigid",
    "x w1 u1 u2 w2 y",
    "x-w1 w1-u1 u1-u2 u2-w2 w2-x u1-y u2-y",
    degree={"u1": (3, 3), "u2": (3, 3), "w1": (2, 2), "w2": (2, 2)},
    color={r: MUST_UNCOLORED for r in ("u1", "u2", "w1", "w2")},
)


P_ANCHORED_PENTAGON = pattern(
    "anchored_pentagon",
    "x y u v z s t",
    "x-y y-u u-v v-z z-x u-s u-t s-t",
    degree={"y": (2, 2), "z": (2, 2)},
)
_ANCHORED_PENTAGON_AT_X = Orbits(P_ANCHORED_PENTAGON, fixed=("x",))


# Code, not a declaration: a group whitens every other neighbor of x.  The
# group reads x, y and z only, so one embedding per orbit of the symmetries
# that fix x (s and t swapped) is enough.
def rule_anchored_pentagon(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    get = c.state.get
    for emb in _ANCHORED_PENTAGON_AT_X(g, None, anchors):
        x, y, z = emb["x"], emb["y"], emb["z"]
        group = [(x, BLACK)]
        group.extend((w, WHITE) for w in sorted(g.neighbors(x)) if w not in (y, z))
        if any(get(v) != col for v, col in group):
            yield group


P_SPOKED_TRIANGLE = pattern(
    "spoked_triangle",
    "x1 x2 x3 y1 y2 y3 v u",
    "x1-x2 x1-x3 x2-x3 x1-y1 x2-y2 x3-y3 y1-v y2-v y3-v v-u",
    degree={"y1": (2, 2), "y2": (2, 2), "y3": (2, 2)},
)


# Code, not a declaration: a pattern would find each square twice per shared
# neighbor and read two rings out; v's own ring settles the condition.
def rule_square_degree_two(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    # v of degree two on a chordless square: its two neighbors are
    # nonadjacent and share a neighbor other than v
    adj = g.adjacency
    for v in g.vertices if anchors is None else anchors:
        ns = adj[v]
        if len(ns) == 2:
            x, y = ns
            if y not in adj[x] and len(adj[x] & adj[y]) > 1 and c.get(v) != WHITE:
                yield [(v, WHITE)]


P_TRIANGLE_CIRCUIT = pattern(
    "triangle_circuit",
    "x u1 u2 y z v w1 w2",
    "x-u1 x-u2 u1-u2 x-y y-z z-v v-w1 v-w2 w1-u1 w2-u2",
    color={"v": MUST_BLACK},
)


P_TWIN_FAN = pattern(
    "twin_fan",
    "x y z v1 v2 w1 w2 u1 u2",
    "x-y x-z y-z y-v1 y-v2 z-w1 z-w2 u1-v1 u1-w1 u2-v2 u2-w2",
    degree={"y": (4, 4), "z": (4, 4), "v1": (2, 2), "v2": (2, 2), "w1": (2, 2), "w2": (2, 2)},
    color={
        "y": MUST_UNCOLORED,
        "z": MUST_UNCOLORED,
        "v1": MUST_UNCOLORED,
        "v2": MUST_UNCOLORED,
        "w1": MUST_UNCOLORED,
        "w2": MUST_UNCOLORED,
    },
)


def _isolated_in_neighborhood(g: Graph, v: int) -> list[int]:
    ns = g.neighbors(v)
    return [w for w in sorted(ns) if not (g.neighbors(w) & ns)]


# three pairwise nonadjacent neighbors of v
P_CLAW = pattern("claw", "v a b c", "v-a v-b v-c")


# Code, not a declaration: its condition reads every neighbor of v.
def rule_scattered_neighborhood(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    # Needs a host with no induced long claw: three pairwise "isolated"
    # neighbors of a white vertex would grow into one.
    get = c.state.get
    for v in g.vertices if anchors is None else anchors:
        if get(v) != BLACK and g.degree(v) >= 3 and len(_isolated_in_neighborhood(g, v)) >= 3:
            yield [(v, BLACK)]


P_CUBIC_CAPS = pattern(
    "cubic_caps",
    "x1 x2 y1 y2 w1 w2 v1 v2",
    "x1-w1 x1-w2 x1-y1 x2-v1 x2-v2 x2-y2 w1-v1 w2-v2",
    degree={
        "x1": (3, 3),
        "x2": (3, 3),
        "w1": (2, 2),
        "w2": (2, 2),
        "v1": (2, 2),
        "v2": (2, 2),
    },
)


P_LONE_WING = pattern("lone_wing", "v w1 w2 w3 w4", "v-w1 v-w2 v-w3 v-w4 w1-w2", degree={"v": (4, 4)})


# Code, not a declaration: it reads every outside neighbor of w3 and w4.
def rule_lone_wing(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    # v has exactly four neighbors with a single adjacent pair w1-w2 among
    # them, and the two loose neighbors w3, w4 admit no private pair.  If v
    # were white, all four would be black and w1-w2 a matched pair.  w3 is
    # next to none of w1, w2, w4, so its partner u3 lies outside N[v]; u3
    # may have no other black neighbor, so N(u3) meets N[v] in w3 alone.
    # The same holds for w4 and its partner u4, and u3, u4 are distinct and
    # nonadjacent: a private pair.  Without one, v is black.
    get = c.state.get
    for v in g.vertices if anchors is None else anchors:
        if g.degree(v) != 4 or get(v) == BLACK:
            continue
        ns = sorted(g.neighbors(v))
        inner = [(a, b) for a, b in combinations(ns, 2) if g.has_edge(a, b)]
        if len(inner) != 1:
            continue
        w3, w4 = [x for x in ns if x not in inner[0]]
        five = set(ns) | {v}
        ext3 = [u for u in sorted(g.neighbors(w3)) if u not in five and g.neighbors(u) & five == {w3}]
        ext4 = [u for u in sorted(g.neighbors(w4)) if u not in five and g.neighbors(u) & five == {w4}]
        private_pair = any(
            u1 != u2 and not g.has_edge(u1, u2) for u1 in ext3 for u2 in ext4
        )
        if not private_pair:
            yield [(v, BLACK)]


P_SEVEN_CYCLE = pattern(
    "seven_cycle",
    "z u1 x w1 w2 y u2",
    "z-u1 u1-x x-w1 w1-w2 w2-y y-u2 u2-z",
    color={"x": MUST_BLACK, "y": MUST_BLACK},
)


P_BRACED_PENDANT = pattern(
    "braced_pendant",
    "x y u1 u2 v1 v2 w1 w2",
    "x-y x-u1 x-u2 u1-v1 u2-v2 v1-v2 v1-w1 v2-w2 w1-w2",
    color={"x": MUST_BLACK},
)


# Radii: the farthest vertex a scan reads, counted from its anchor.  The
# pentagon rules also demand colors of x's neighbors, one ring beyond x:
# outside hat_pentagon's pattern, inside anchored_pentagon's (its x is next
# to the anchor).
CATALOG: tuple[Rule, ...] = (
    _demands("square_alternation", FORCED, P_BLACK_SQUARE, c=BLACK, b=WHITE, d=WHITE),
    Rule("triangle_outsider", FORCED, rule_triangle_outsider, 2, shape=P_TRIANGLE_OUTSIDER),
    Rule("degree_one", FORCED, rule_degree_one, 1, shape=P_DEGREE_ONE),
    _demands("black_pair_neighbors", FORCED, P_BLACK_PAIR, w=WHITE),
    Rule("bowtie_center", FORCED, rule_bowtie_center, 2, shape=P_BOWTIE),
    Rule("diamond_pair", FORCED, rule_diamond_pair, 1, shape=P_DIAMOND),
    Rule("leaf_surplus", EXCHANGE, rule_leaf_surplus, 1, shape=P_LEAF_SURPLUS),
    _demands("chain_step", FORCED, P_CHAIN, v4=BLACK),
    _demands("triangle_tail", FORCED, P_TRIANGLE_TAIL, x=BLACK),
    _demands("house_apex", FORCED, P_HOUSE, x=BLACK),
    Rule("hat_pentagon", FORCED, rule_hat_pentagon, P_HAT_PENTAGON.radius + 1, shape=P_HAT_PENTAGON),
    _demands("hat_pentagon_swap", EXCHANGE, P_HAT_PENTAGON_RIGID, w1=WHITE),
    Rule("anchored_pentagon", FORCED, rule_anchored_pentagon, P_ANCHORED_PENTAGON.radius, shape=P_ANCHORED_PENTAGON),
    _demands("spoked_triangle", FORCED, P_SPOKED_TRIANGLE, u=WHITE),
    Rule("square_degree_two", FORCED, rule_square_degree_two, 1),
    _demands("triangle_circuit", FORCED, P_TRIANGLE_CIRCUIT, x=WHITE),
    _demands("twin_fan_swap", EXCHANGE, P_TWIN_FAN, w1=WHITE, w2=WHITE),
    Rule("scattered_neighborhood", FORCED, rule_scattered_neighborhood, 1, shape=P_CLAW),
    _demands("cubic_caps", FORCED, P_CUBIC_CAPS, y1=WHITE, y2=WHITE),
    Rule("lone_wing", FORCED, rule_lone_wing, 2, shape=P_LONE_WING),
    _demands("seven_cycle_step", FORCED, P_SEVEN_CYCLE, z=BLACK),
    _demands("braced_pendant", FORCED, P_BRACED_PENDANT, y=WHITE),
)


_PLAN: DispatchPlan[Rule] = DispatchPlan(lambda rule: rule.shape)


def rigid_pair(g: Graph, c: PartialColoring, wl: Worklist) -> bool:
    """Whether the pair cleaning would leave of (g, c) is rigid, that is,
    whether `check_structure` accepts (g, c).  A refusal names the vertex
    whose fact broke, which wl keeps as its watch.  The next test asks
    that vertex first and, while the fact stays broken there, is refused
    at once, without a walk.  The walk goes down from the greatest vertex,
    while the rules and rewrites search up from the least, so a watch
    tends to outlast the steps between two tests.  Neither a refusal nor
    an acceptance copies or builds a graph."""
    v = wl.watch
    if v in g.adjacency and structure_fault(g, c, v) is not None:
        return False
    try:
        check_structure(g, c)
    except StructureViolation as err:
        wl.watch = err.vertex
        return False
    return True


def propagate(
    g: Graph,
    c: PartialColoring,
    audit: Optional[ReductionAudit] = None,
    wl: Optional[Worklist] = None,
) -> Optional[Conflict]:
    """Run every rule to a joint fixpoint.  Mutates c; returns the conflict
    that refutes the instance, or None.

    A scan of a forced rule applies every unsatisfied group it yields; an
    exchange rule's scan stops at its first.  After a scan that applied a
    group, propagation restarts with the cheap rules, in catalog order.
    Draining is sound: a forced group holds in every completion of the
    coloring it was read from, and colorings only grow here, so a group
    read before some of the scan's own colorings is still forced, and one
    satisfied meanwhile is skipped.  Nor does it change where the forced
    rules end: together with the basic ones they reach the same coloring
    or a conflict in any order (chaotic iteration; Apt, "The essence of
    constraint propagation", 1999), and only which conflict is met first
    may change.  The exchange rules are exempt: their guards read "still
    uncolored", so each of their firings must see every earlier one, and
    one runs only once every rule before it in the catalog found nothing.

    A rule with a radius rescans only near the changes logged in wl since
    its last scan that found nothing, or since the start of its last scan
    that drained; on a fresh worklist (the default) every rule's first
    scan is whole.  Every group a rescan misses was already satisfied
    then and still is (see `Worklist`), and its anchors are ascending, so
    it fires where a full scan fires, in the same order.  A scan that
    finds nothing is recorded in wl with its graph when it was whole, or
    when a whole scan of the rule drained earlier in this call.  Only
    the rules of g's dispatch plan run, once looked up per call, since
    coloring leaves the degree census alone: a rule whose `shape` does not
    fit g's degree census has no firing on g under any coloring, so it is
    not called, asks wl for no anchors and leaves no record.  Every change
    is logged, so its last recorded scan still bounds what changed since.

    Nor is a rule called, or wl asked for its anchors, while c holds fewer
    black vertices than its shape has MUST_BLACK roles; it is recorded as
    a whole pass that found nothing, the record such a pass would leave
    here, so anchored rescans and `is_clean_pair` read what they would
    read after that pass.  The skip is exact: a scan colors nothing before
    its first group, and every firing puts a black vertex on each of those
    roles, a different one per role (a declared rule's search tests each
    role's color).  A rule written as code has no MUST_BLACK role in its
    shape, so it is never skipped.  Vertices colored outside g only raise
    the count, so they only make the skip rarer.

    Propagation also ends, before any catalog rule of the round, once the
    basic fixpoint leaves a pair that is rigid once cleaned (see
    `rigid_pair`): dropping its white vertices and matched black pairs
    leaves no white vertex, no two adjacent black ones and the structure
    `decompose` reads.  wl.rigid is then True, and False after any other
    end.  Cleaning keeps completability at any basic fixpoint without a
    conflict, not only at the full one, and on the cleaned pair exact
    hitting decides whether c extends to g (see
    `dimatch.rewrite.reduce_to_irreducible`), so the reduction needs only
    that cleaning step, and the rules' remaining scans are skipped: the
    coloring is then not the fixpoint.  Skipping them loses nothing:
    each coloring made so far keeps completability, forced ones holding
    in every completion and exchange ones in some, so, as in the chaotic
    iteration above, where the sound steps stop changes nothing about
    what they preserve.  The test runs once per round and, refused,
    mostly costs one vertex's facts.

    Propagation ends as well once the basic fixpoint colors all of g.
    `assign` and the sweep make that settled coloring a dominating induced
    matching, where every forced demand holds on a long-claw-free graph,
    and every exchange guard needs an uncolored vertex, so no rule could
    fire.
    """
    wl = Worklist() if wl is None else wl
    get = c.state.get
    plan = _PLAN(CATALOG, g)
    # the rules whose whole scan drained in this call, on this version of g
    drained: set[str] = set()
    while True:
        conflict = _basic_fixpoint(g, c, wl)
        if conflict is not None:
            return conflict
        wl.rigid = rigid_pair(g, c, wl)
        if wl.rigid:
            return None
        if len(c.state) == g.n and all(v in c.state for v in g.vertices):
            return None
        # black vertices of c, counted when a rule first needs them; only
        # the last scan of a pass colors, so the count holds for the pass
        blacks = -1
        for rule in plan:
            need = 0 if rule.shape is None else rule.shape.black_roles
            if need:
                if blacks < 0:
                    blacks = list(c.state.values()).count(BLACK)
                if need > blacks:
                    wl.found_nothing(rule.id, g)
                    continue
            anchors = wl.anchors(g, rule.id, rule.radius)
            since = None
            for group in rule.fn(g, c) if anchors is None else rule.fn(g, c, anchors):
                todo = [(v, col) for v, col in group if get(v) != col]
                if not todo:
                    continue
                if since is None:
                    # a scan logs nothing before its first firing
                    since = len(wl.log)
                for v, col in todo:
                    pre = c.copy() if audit is not None else None
                    conflict = assign(g, c, v, col, rule.id)
                    if conflict is not None:
                        return conflict
                    wl.log.append(v)
                    if audit is not None:
                        audit.on_color(g, rule.id, rule.tag, v, col, pre)
                if rule.tag != FORCED:
                    break
            if since is not None:
                if rule.tag == FORCED:
                    # its next rescan covers every change since it began
                    wl.quiet[rule.id] = since
                    if anchors is None:
                        drained.add(rule.id)
                break
            wl.found_nothing(rule.id, g if anchors is None or rule.id in drained else None)
        else:
            return None


# --------------------------------------------------------------------------
# clean pairs: what is left once cleaning (`dimatch.rewrite.clean`) has
# dropped the whites and matched black pairs


def is_clean_pair(g: Graph, c: PartialColoring, wl: Optional[Worklist] = None) -> bool:
    """No whites, blacks pairwise at distance >= 3, rules at fixpoint.

    The fixpoint is read, not propagated again.  With no white and no two
    blacks within distance two, a basic rule can act only at a black vertex
    with fewer than two neighbours, and a catalog rule only by yielding a
    group that would change a color; so each rule of g's dispatch plan
    scans the whole of g once, and the first such group decides.  The
    rules the census rules out are left out without asking it again.  wl,
    if given, is the worklist that logged every change to c on g: a rule
    whose last whole scan recorded there found nothing on g as it stands
    is not scanned again.
    """
    if c.whites():
        return False
    for u in c.blacks():
        ns = g.neighbors(u)
        if len(ns) < 2:
            return False
        for w in ns:
            if c.get(w) == BLACK or any(x != u and c.get(x) == BLACK for x in g.neighbors(w)):
                return False
    done = wl.scanned_whole(g) if wl is not None else ()
    for rule in _PLAN(CATALOG, g):
        if rule.id not in done:
            for group in rule.fn(g, c):
                if any(c.get(v) != col for v, col in group):
                    return False
    return True


def clean_pair_violation(g: Graph) -> Optional[str]:
    """The first of two structural facts that g breaks, or None: no vertex
    lies in two triangles, and no two triangles are joined by three edges.

    Every clean pair the reduction reaches has both, because the forcing
    rules pre-empt each break.  The reduction reaches one only after
    propagation found nothing and cleaning made no step, so no rule has a
    group that would change a color, no vertex is white and no black vertex
    has a black neighbour.  If a vertex v lies in two triangles that share
    only v, `bowtie_center` demands v white; if they share an edge ab,
    `diamond_pair` demands a and b black, a matched pair that cleaning
    would drop.  The census lets both rules run, since v has degree at
    least four and a, b at least three.  So triangles are disjoint, and a
    vertex of one has at most one neighbour in another, since two would
    close a triangle at that neighbour.  Three edges between a1a2a3 and
    b1b2b3 then match each ai to bi, a prism, in which a1 a2 a3 b3 b2 is an
    induced house with apex a1, and likewise for every vertex; so
    `house_apex` demands all six black, and a1 with a2 is a matched pair.
    A break is therefore a fault of the program, not a refutation.
    """
    tri_at = g.triangles_at()
    for v in tri_at:
        if len(tri_at[v]) > 1:
            return f"vertex {v} lies in {len(tri_at[v])} triangles"
    for t1 in g.triangles():
        for t2 in sorted({t for a in t1 for b in g.neighbors(a) for t in tri_at[b] if t > t1}):
            between = [(a, b) for a in t1 for b in t2 if g.has_edge(a, b)]
            if len(between) > 2:
                return f"triangles {t1} and {t2} joined by {len(between)} edges"
    return None
