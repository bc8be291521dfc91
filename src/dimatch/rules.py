"""Forcing rules, the propagation engine and clean pairs.

Every rule inspects the current partial coloring and demands colors that
hold in every completion (tag "forced"), or that can be assumed without
losing completability because any completion can be recolored to comply
(tag "exchange").  Conflicting demands refute the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import insort
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Optional, Sequence

from .coloring import BLACK, WHITE, Conflict, PartialColoring, assign
from .graph import Graph
from .patterns import MUST_BLACK, MUST_UNCOLORED, Pattern, pattern

if TYPE_CHECKING:
    from .rewrite import RewriteStep

FORCED = "forced"
EXCHANGE = "exchange"

Demand = tuple[int, str]
# Rules yield one *group* of demands per firing; a group is applied
# atomically and the whole scan restarts, so later firings see the result.
# A rule with a radius also takes ascending anchors and then yields only the
# groups its full scan yields from those anchors, in the same order, reading
# nothing farther than the radius from them.
RuleFn = Callable[..., Iterator[list[Demand]]]
Anchors = Optional[Sequence[int]]


@dataclass(frozen=True)
class Rule:
    """A forcing rule.  `propagate` checks the host's degree census
    against `shape` before it asks for anchors; a rule the census rules
    out costs no anchors and no call, and leaves no record."""

    id: str
    tag: str
    fn: RuleFn
    # None: every scan is whole, called as fn(g, c).  That form and the
    # default shape are kept only because bench/spans.py rebuilds each
    # rule as Rule(id, tag, fn), losing radius and shape.
    radius: Optional[int] = None
    # a pattern every firing contains, under any coloring; a host it does
    # not fit has no firing anywhere
    shape: Optional[Pattern] = None


class Worklist:
    """The vertices whose color or adjacency changed during one reduction,
    in order, and per scan the log position of its last pass that found
    nothing; for a whole pass also the graph it read.

    A scan whose anchors lie farther than its radius from every vertex
    logged since then would read exactly what it read then, so only the
    anchors inside that ball need a new look.  The balls around the
    changes since one log position come from one breadth-first search,
    grown ring by ring as larger radii are asked for.  Once as many changes
    as the graph has vertices were logged since, the ball costs about as
    much as the graph, and the rescan is whole.  Graphs are immutable and
    every change is logged, so a whole pass recorded on the current graph
    at the current log length read exactly the current state.  A rule
    whose shape the degree census rules out makes no pass and leaves no
    record: its last pass that found nothing still bounds what changed.
    """

    __slots__ = ("log", "quiet", "whole", "_balls", "_state")

    def __init__(self) -> None:
        self.log: list[int] = []
        self.quiet: dict[str, int] = {}
        self.whole: dict[str, tuple[Graph, int]] = {}
        # one breadth-first search per log position, on the current graph
        # and log: [ball, last ring, [sorted ball at radius 0, 1, ...]]
        self._balls: dict[int, list] = {}
        self._state: tuple[Optional[Graph], int] = (None, 0)

    def anchors(self, g: Graph, key: str, radius: Optional[int]) -> Optional[list[int]]:
        """Ascending anchors to rescan for key; None means all of g: on
        its first pass, without a radius, or after at least g.n logged
        changes."""
        since, now = self.quiet.get(key), len(self.log)
        if since is None or radius is None or now - since >= len(g.vertices):
            return None
        if self._state[0] is not g or self._state[1] != now:
            self._state, self._balls = (g, now), {}
        grown = self._balls.get(since)
        if grown is None:
            ball = {v for v in self.log[since:] if v in g}
            grown = self._balls[since] = [ball, ball, [sorted(ball)]]
        ball, frontier, out = grown
        if radius >= len(out):
            adj = g.adjacency
            while radius >= len(out):
                frontier = {w for v in frontier for w in adj[v]} - ball
                ball |= frontier
                out.append(sorted(ball))
            grown[1] = frontier
        return out[radius]

    def found_nothing(self, key: str, whole_on: Optional[Graph] = None) -> None:
        """Record that key's pass found nothing; whole_on is the graph a
        whole pass read."""
        self.quiet[key] = len(self.log)
        if whole_on is not None:
            self.whole[key] = (whole_on, len(self.log))

    def scanned_whole(self, g: Graph) -> set[str]:
        """The keys whose last whole pass found nothing on g as it stands."""
        now = len(self.log)
        return {key for key, (h, at) in self.whole.items() if h is g and at == now}


class ReductionAudit:
    """Observer of every coloring, cleaning step and rewrite the reduction
    makes; the methods are no-ops, so a subclass overrides what it needs."""

    def on_color(self, g: Graph, rule_id: str, tag: str, v: int, color: str, pre: PartialColoring) -> None:
        pass

    def on_clean(self, g_pre: Graph, c_pre: PartialColoring, g_post: Graph, c_post: PartialColoring) -> None:
        pass

    def on_rewrite(self, step: RewriteStep, g_pre: Graph, c_pre: PartialColoring, g_post: Graph, c_post: PartialColoring) -> None:
        pass


def _opp(color: str) -> str:
    return WHITE if color == BLACK else BLACK


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
    worklist), and every coloring is logged.
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
                for w in ns:
                    if get(w) is None:
                        conflict = assign(g, c, w, BLACK, "white_neighbors")
                        if conflict is not None:
                            return conflict
                        colored(w)
                continue
            black_nbrs = [w for w in ns if get(w) == BLACK]
            if len(black_nbrs) >= 2:
                return Conflict("pair_overload", v, BLACK, f"black neighbors {black_nbrs[:2]}")
            if black_nbrs:
                partner = black_nbrs[0]
                for w in ns:
                    if w != partner and get(w) is None:
                        conflict = assign(g, c, w, WHITE, "matched_pair")
                        if conflict is not None:
                            return conflict
                        colored(w)
                continue
            open_nbrs = [w for w in ns if get(w) != WHITE]
            if not open_nbrs:
                return Conflict("no_partner", v, BLACK, "all neighbors white")
            if len(open_nbrs) == 1:
                conflict = assign(g, c, open_nbrs[0], BLACK, "last_partner")
                if conflict is not None:
                    return conflict
                colored(open_nbrs[0])
        sweep = sorted(later)
    wl.found_nothing("_basic")
    return None


# --------------------------------------------------------------------------
# structural equalities: chordless squares alternate, a triangle vertex and
# a private outside neighbor always disagree.


def rule_square_alternation(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    get = c.state.get
    for cyc in g.induced_c4s(anchors):
        for i in range(4):
            col = get(cyc[i])
            if col is None:
                continue
            yield [
                (cyc[(i + 2) % 4], col),
                (cyc[(i + 1) % 4], _opp(col)),
                (cyc[(i + 3) % 4], _opp(col)),
            ]
            break


# The shapes of the code rules (see Rule.shape) sit beside them.
P_TRIANGLE_OUTSIDER = pattern("triangle_outsider", "t r1 r2 u", "t-r1 t-r2 r1-r2 t-u")


def _triangle_outsiders(g: Graph, anchors: Anchors) -> Iterator[tuple[int, int]]:
    """Pairs (t, u): t in a triangle, u a neighbor of t outside it and
    nonadjacent to the other two triangle vertices."""
    adj = g.adjacency
    for t1, t2, t3 in g.triangles(anchors):
        # a triangle vertex is next to the other two, so it is no outsider
        for t, r1, r2 in ((t1, t2, t3), (t2, t1, t3), (t3, t1, t2)):
            n1, n2 = adj[r1], adj[r2]
            for u in adj[t]:
                if u not in n1 and u not in n2:
                    yield t, u


def rule_triangle_outsider(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    get = c.state.get
    for t, u in _triangle_outsiders(g, anchors):
        ct, cu = get(t), get(u)
        if ct is not None and cu is None:
            yield [(u, _opp(ct))]
        elif cu is not None and ct is None:
            yield [(t, _opp(cu))]


# --------------------------------------------------------------------------
# the main catalog


def _demands(rule_id: str, tag: str, p: Pattern, **colors: str) -> Rule:
    """A rule that demands the given role colors on every embedding of p,
    with p's radius.  The coloring is always passed on; patterns without
    color constraints never read it."""

    def fn(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
        for emb in p.find_all(g, c.state, anchors=anchors):
            yield [(emb[role], color) for role, color in colors.items()]

    # propagate reads the demanded vertices' colors
    return Rule(rule_id, tag, fn, p.reach(colors), shape=p)


P_DEGREE_ONE = pattern("degree_one", "v", "", degree={"v": (0, 1)})


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


def _blacks(c: PartialColoring, anchors: Anchors) -> list[int]:
    return sorted(c.blacks()) if anchors is None else [v for v in anchors if c.get(v) == BLACK]


def rule_black_pair_neighbors(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    # black pairs u < v at distance two, found from u's second neighborhood
    for u in _blacks(c, anchors):
        nu = g.neighbors(u)
        far = {v for w in nu for v in g.neighbors(w) if v > u and v not in nu and c.get(v) == BLACK}
        for v in sorted(far):
            yield [(w, WHITE) for w in sorted(nu & g.neighbors(v))]


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


def rule_bowtie_center(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    for common in _triangle_pairs(g, 1, anchors):
        yield [(common.pop(), WHITE)]


def rule_diamond_pair(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    for common in _triangle_pairs(g, 2, anchors):
        yield [(v, BLACK) for v in sorted(common)]


P_LEAF_SURPLUS = pattern("leaf_surplus", "s l1 l2", "s-l1 s-l2", degree={"l1": (1, 1), "l2": (1, 1)})


def rule_leaf_surplus(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    # A support vertex keeps at most one of its leaves non-white; whiten
    # the rest (valid recoloring, not a forced consequence).
    for v in g.vertices if anchors is None else anchors:
        leaves = sorted(w for w in g.neighbors(v) if g.degree(w) == 1)
        if len(leaves) < 2:
            continue
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


def rule_hat_pentagon(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    for emb in P_HAT_PENTAGON.find_all(g, anchors=anchors):
        x, y = emb["x"], emb["y"]
        w1, w2 = emb["w1"], emb["w2"]
        group = [(x, BLACK)]
        if g.degree(x) == 2:
            group.append((y, BLACK))
        if c.get(y) == BLACK:
            group.extend((z, WHITE) for z in sorted(g.neighbors(x)) if z not in (w1, w2))
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


def rule_anchored_pentagon(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    for emb in P_ANCHORED_PENTAGON.find_all(g, anchors=anchors):
        x, y, z = emb["x"], emb["y"], emb["z"]
        group = [(x, BLACK)]
        group.extend((w, WHITE) for w in sorted(g.neighbors(x)) if w not in (y, z))
        yield group


P_SPOKED_TRIANGLE = pattern(
    "spoked_triangle",
    "x1 x2 x3 y1 y2 y3 v u",
    "x1-x2 x1-x3 x2-x3 x1-y1 x2-y2 x3-y3 y1-v y2-v y3-v v-u",
    degree={"y1": (2, 2), "y2": (2, 2), "y3": (2, 2)},
)


def rule_square_degree_two(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    for cyc in g.induced_c4s(anchors):
        for v in cyc:
            if g.degree(v) == 2:
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


def rule_scattered_neighborhood(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    # Needs a host with no induced long claw: three pairwise "isolated"
    # neighbors of a white vertex would grow into one.
    for v in g.vertices if anchors is None else anchors:
        if g.degree(v) >= 3 and len(_isolated_in_neighborhood(g, v)) >= 3:
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


def rule_lone_wing(g: Graph, c: PartialColoring, anchors: Anchors = None) -> Iterator[list[Demand]]:
    # v has exactly four neighbors with a single adjacent pair w1-w2 among
    # them, and the two loose neighbors w3, w4 admit no private pair.  If v
    # were white, all four would be black and w1-w2 a matched pair.  w3 is
    # next to none of w1, w2, w4, so its partner u3 lies outside N[v]; u3
    # may have no other black neighbor, so N(u3) meets N[v] in w3 alone.
    # The same holds for w4 and its partner u4, and u3, u4 are distinct and
    # nonadjacent: a private pair.  Without one, v is black.
    for v in g.vertices if anchors is None else anchors:
        if g.degree(v) != 4:
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
    Rule("square_alternation", FORCED, rule_square_alternation, 2),
    Rule("triangle_outsider", FORCED, rule_triangle_outsider, 2, shape=P_TRIANGLE_OUTSIDER),
    Rule("degree_one", FORCED, rule_degree_one, 1, shape=P_DEGREE_ONE),
    Rule("black_pair_neighbors", FORCED, rule_black_pair_neighbors, 2),
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
    Rule("square_degree_two", FORCED, rule_square_degree_two, 2),
    _demands("triangle_circuit", FORCED, P_TRIANGLE_CIRCUIT, x=WHITE),
    _demands("twin_fan_swap", EXCHANGE, P_TWIN_FAN, w1=WHITE, w2=WHITE),
    Rule("scattered_neighborhood", FORCED, rule_scattered_neighborhood, 1, shape=P_CLAW),
    _demands("cubic_caps", FORCED, P_CUBIC_CAPS, y1=WHITE, y2=WHITE),
    Rule("lone_wing", FORCED, rule_lone_wing, 2, shape=P_LONE_WING),
    _demands("seven_cycle_step", FORCED, P_SEVEN_CYCLE, z=BLACK),
    _demands("braced_pendant", FORCED, P_BRACED_PENDANT, y=WHITE),
)


def propagate(
    g: Graph,
    c: PartialColoring,
    audit: Optional[ReductionAudit] = None,
    wl: Optional[Worklist] = None,
    skip: Collection[str] = (),
) -> Optional[Conflict]:
    """Run every rule to a joint fixpoint.  Mutates c; returns the conflict
    that refutes the instance, or None.

    One rule firing is applied per scan; the scan then restarts with the
    cheap rules, so every firing sees an up-to-date coloring (the
    exchange rules rely on that for their "still uncolored" guards).

    A rule with a radius rescans only near the changes logged in wl since
    its last scan that found nothing; on a fresh worklist (the default)
    every rule's first scan is whole.  Every group a rescan misses was
    already satisfied then and still is, and its anchors are ascending,
    so the first firing is the one a full scan finds.  A whole scan that
    finds nothing is recorded in wl with its graph.  A rule whose `shape`
    does not fit g's degree census has no firing on g under any coloring:
    it is not called, asks wl for no anchors and leaves no record.  Every
    change is logged, so its last recorded scan still bounds what changed
    since, and the fixpoint check applies the same gate.

    The rules in skip are known to find nothing on g and c as passed in, so
    they are not called until something is colored.
    """
    wl = Worklist() if wl is None else wl
    get = c.state.get
    start = len(wl.log)
    while True:
        conflict = _basic_fixpoint(g, c, wl)
        if conflict is not None:
            return conflict
        fired = False
        for rule in CATALOG:
            if rule.id in skip and len(wl.log) == start:
                continue
            if rule.shape is not None and not rule.shape.fits(g):
                continue
            anchors = wl.anchors(g, rule.id, rule.radius)
            for group in rule.fn(g, c) if anchors is None else rule.fn(g, c, anchors):
                todo = [(v, col) for v, col in group if get(v) != col]
                if not todo:
                    continue
                for v, col in todo:
                    pre = c.copy() if audit is not None else None
                    conflict = assign(g, c, v, col, rule.id)
                    if conflict is not None:
                        return conflict
                    wl.log.append(v)
                    if audit is not None:
                        audit.on_color(g, rule.id, rule.tag, v, col, pre)
                fired = True
                break
            if fired:
                break
            wl.found_nothing(rule.id, g if anchors is None else None)
        if not fired:
            return None


# --------------------------------------------------------------------------
# clean pairs: what is left once cleaning (`dimatch.rewrite.clean`) has
# dropped the whites and matched black pairs


def is_clean_pair(g: Graph, c: PartialColoring, wl: Optional[Worklist] = None) -> bool:
    """No whites, blacks pairwise at distance >= 3, rules at fixpoint.

    The fixpoint is confirmed by one propagation from a fresh worklist, in
    which every rule scans the whole of g.  wl, if given, is the worklist
    that logged every change to c on g: a rule whose last whole scan
    recorded there found nothing on g as it stands already has that scan
    and is not called again.
    """
    if c.whites():
        return False
    for u in c.blacks():
        for w in g.neighbors(u):
            if c.get(w) == BLACK or any(x != u and c.get(x) == BLACK for x in g.neighbors(w)):
                return False
    probe = c.copy()
    done = wl.scanned_whole(g) if wl is not None else ()
    if propagate(g, probe, skip=done) is not None:
        return False
    return probe.state == c.state


def clean_pair_violation(g: Graph, c: PartialColoring, wl: Optional[Worklist] = None) -> Optional[str]:
    """Structural facts every completable clean pair satisfies.

    A violation on a clean pair produced by the pipeline means the
    instance admits no completion, so the caller may refute.

    A check after one that passed on wl looks only within two of the
    vertices logged since: a vertex gains a triangle only next to an
    edited vertex, and two triangles newly joined by three edges are
    matched by them, so the least vertex of each lies that close to an
    edited one.  Anchors ascend, so the violation found first is the one
    a whole scan finds first.  Without wl the check is whole.
    """
    wl = Worklist() if wl is None else wl
    anchors = wl.anchors(g, "_clean_pair", 2)
    tri_at = g.triangles_at()
    for v in tri_at if anchors is None else anchors:
        if len(tri_at[v]) > 1:
            return f"vertex {v} lies in {len(tri_at[v])} triangles"
    # No vertex lies in two triangles, which rules out K4s, diamonds and
    # butterflies.  So triangles are disjoint, and a vertex of one has at
    # most one neighbour in another (two would close a third triangle).
    for t1 in g.triangles(anchors):
        for t2 in sorted({t for a in t1 for b in g.neighbors(a) for t in tri_at[b] if t > t1}):
            between = [(a, b) for a in t1 for b in t2 if g.has_edge(a, b)]
            if len(between) > 2:
                return f"triangles {t1} and {t2} joined by {len(between)} edges"
    wl.found_nothing("_clean_pair")
    return None
