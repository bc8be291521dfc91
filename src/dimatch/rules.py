"""Forcing rules, the propagation engine, cleaning and clean pairs.

Every rule inspects the current partial coloring and demands colors that
hold in every completion (tag "forced"), or that can be assumed without
losing completability because any completion can be recolored to comply
(tag "exchange").  Conflicting demands refute the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterator, Optional

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
RuleFn = Callable[[Graph, PartialColoring], Iterator[list[Demand]]]


@dataclass(frozen=True)
class Rule:
    id: str
    tag: str
    fn: RuleFn


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


def _basic_fixpoint(g: Graph, c: PartialColoring) -> Optional[Conflict]:
    again = True
    while again:
        again = False
        for v in g.vertices:
            col = c.get(v)
            if col is None:
                continue
            ns = g.neighbors(v)
            if col == WHITE:
                for w in ns:
                    if c.get(w) is None:
                        conflict = assign(g, c, w, BLACK, "white_neighbors")
                        if conflict is not None:
                            return conflict
                        again = True
                continue
            black_nbrs = [w for w in ns if c.get(w) == BLACK]
            if len(black_nbrs) >= 2:
                return Conflict("pair_overload", v, BLACK, f"black neighbors {black_nbrs[:2]}")
            if black_nbrs:
                partner = black_nbrs[0]
                for w in ns:
                    if w != partner and c.get(w) is None:
                        conflict = assign(g, c, w, WHITE, "matched_pair")
                        if conflict is not None:
                            return conflict
                        again = True
                continue
            open_nbrs = [w for w in ns if c.get(w) != WHITE]
            if not open_nbrs:
                return Conflict("no_partner", v, BLACK, "all neighbors white")
            if len(open_nbrs) == 1:
                conflict = assign(g, c, open_nbrs[0], BLACK, "last_partner")
                if conflict is not None:
                    return conflict
                again = True
    return None


# --------------------------------------------------------------------------
# structural equalities: chordless squares alternate, a triangle vertex and
# a private outside neighbor always disagree.


def rule_square_alternation(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    for a, b, d, e in g.induced_c4s():
        cyc = (a, b, d, e)
        for i in range(4):
            col = c.get(cyc[i])
            if col is None:
                continue
            yield [
                (cyc[(i + 2) % 4], col),
                (cyc[(i + 1) % 4], _opp(col)),
                (cyc[(i + 3) % 4], _opp(col)),
            ]
            break


def _triangle_outsiders(g: Graph) -> Iterator[tuple[int, int]]:
    """Pairs (t, u): t in a triangle, u a neighbor of t outside it and
    nonadjacent to the other two triangle vertices."""
    for tri in g.triangles():
        ts = set(tri)
        for t in tri:
            rest = ts - {t}
            for u in g.neighbors(t):
                if u in ts:
                    continue
                if not any(g.has_edge(u, r) for r in rest):
                    yield t, u


def rule_triangle_outsider(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    for t, u in _triangle_outsiders(g):
        ct, cu = c.get(t), c.get(u)
        if ct is not None and cu is None:
            yield [(u, _opp(ct))]
        elif cu is not None and ct is None:
            yield [(t, _opp(cu))]


# --------------------------------------------------------------------------
# the main catalog


def _demands(p: Pattern, **colors: str) -> RuleFn:
    """A rule that demands the given role colors on every embedding of p.
    The coloring is always passed on; patterns without color constraints
    never read it."""

    def fn(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
        for emb in p.find_all(g, c.state):
            yield [(emb[role], color) for role, color in colors.items()]

    return fn


def rule_degree_one(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    for v in g.vertices:
        d = g.degree(v)
        if d == 0:
            yield [(v, WHITE)]
        elif d == 1:
            yield [(next(iter(g.neighbors(v))), BLACK)]


def rule_black_pair_neighbors(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    blacks = sorted(c.blacks())
    for u, v in combinations(blacks, 2):
        if g.has_edge(u, v):
            continue
        common = sorted(g.neighbors(u) & g.neighbors(v))
        if common:
            yield [(w, WHITE) for w in common]


def rule_bowtie_center(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    for t1, t2 in combinations(g.triangles(), 2):
        shared = set(t1) & set(t2)
        if len(shared) == 1:
            yield [(shared.pop(), WHITE)]


def rule_diamond_pair(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    for t1, t2 in combinations(g.triangles(), 2):
        shared = set(t1) & set(t2)
        if len(shared) == 2:
            yield [(v, BLACK) for v in sorted(shared)]


def rule_leaf_surplus(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    # A support vertex keeps at most one of its leaves non-white; whiten
    # the rest (valid recoloring, not a forced consequence).
    for v in g.vertices:
        leaves = sorted(w for w in g.neighbors(v) if g.degree(w) == 1)
        if len(leaves) < 2:
            continue
        black = [w for w in leaves if c.get(w) == BLACK]
        keep = black[0] if black else leaves[0]
        group = [(w, WHITE) for w in leaves if w != keep and c.get(w) is None]
        if group:
            yield group


def rule_chain_step(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    # v1(B) - v2 - v3 - v4 with deg(v3) = 2 forces v4 black.
    for v1 in sorted(c.blacks()):
        for v2 in sorted(g.neighbors(v1)):
            for v3 in sorted(g.neighbors(v2)):
                if v3 == v1 or g.degree(v3) != 2:
                    continue
                for v4 in g.neighbors(v3):
                    if v4 != v2 and v4 != v1:
                        yield [(v4, BLACK)]


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


def rule_hat_pentagon(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    for emb in P_HAT_PENTAGON.find_all(g):
        x, y = emb["x"], emb["y"]
        w1, w2 = emb["w1"], emb["w2"]
        group = [(x, BLACK)]
        if g.degree(x) == 2:
            group.append((y, BLACK))
        if c.get(y) == BLACK:
            group.extend((z, WHITE) for z in sorted(g.neighbors(x)) if z not in (w1, w2))
        yield group


def rule_hat_pentagon_swap(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    # exchange variant: with the rigid degrees below, a completion that
    # blackens w1 can be recolored to whiten it instead.
    for emb in P_HAT_PENTAGON.find_all(g):
        w1, w2, u1, u2 = emb["w1"], emb["w2"], emb["u1"], emb["u2"]
        if g.degree(u1) == 3 and g.degree(u2) == 3 and g.degree(w1) == 2 and g.degree(w2) == 2:
            if all(c.get(v) is None for v in (u1, u2, w1, w2)):
                yield [(w1, WHITE)]


P_ANCHORED_PENTAGON = pattern(
    "anchored_pentagon",
    "x y u v z s t",
    "x-y y-u u-v v-z z-x u-s u-t s-t",
    degree={"y": (2, 2), "z": (2, 2)},
)


def rule_anchored_pentagon(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    for emb in P_ANCHORED_PENTAGON.find_all(g):
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


def rule_square_degree_two(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    for cyc in g.induced_c4s():
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


def rule_scattered_neighborhood(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    # Needs a host with no induced long claw: three pairwise "isolated"
    # neighbors of a white vertex would grow into one.
    for v in g.vertices:
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


def rule_lone_wing(g: Graph, c: PartialColoring) -> Iterator[list[Demand]]:
    # v has exactly four neighbors with a single adjacent pair among them,
    # and the two loose neighbors admit no private disjoint extensions.
    if not g.is_butterfly_free():
        return
    for v in g.vertices:
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


CATALOG: tuple[Rule, ...] = (
    Rule("square_alternation", FORCED, rule_square_alternation),
    Rule("triangle_outsider", FORCED, rule_triangle_outsider),
    Rule("degree_one", FORCED, rule_degree_one),
    Rule("black_pair_neighbors", FORCED, rule_black_pair_neighbors),
    Rule("bowtie_center", FORCED, rule_bowtie_center),
    Rule("diamond_pair", FORCED, rule_diamond_pair),
    Rule("leaf_surplus", EXCHANGE, rule_leaf_surplus),
    Rule("chain_step", FORCED, rule_chain_step),
    Rule("triangle_tail", FORCED, _demands(P_TRIANGLE_TAIL, x=BLACK)),
    Rule("house_apex", FORCED, _demands(P_HOUSE, x=BLACK)),
    Rule("hat_pentagon", FORCED, rule_hat_pentagon),
    Rule("hat_pentagon_swap", EXCHANGE, rule_hat_pentagon_swap),
    Rule("anchored_pentagon", FORCED, rule_anchored_pentagon),
    Rule("spoked_triangle", FORCED, _demands(P_SPOKED_TRIANGLE, u=WHITE)),
    Rule("square_degree_two", FORCED, rule_square_degree_two),
    Rule("triangle_circuit", FORCED, _demands(P_TRIANGLE_CIRCUIT, x=WHITE)),
    Rule("twin_fan_swap", EXCHANGE, _demands(P_TWIN_FAN, w1=WHITE, w2=WHITE)),
    Rule("scattered_neighborhood", FORCED, rule_scattered_neighborhood),
    Rule("cubic_caps", FORCED, _demands(P_CUBIC_CAPS, y1=WHITE, y2=WHITE)),
    Rule("lone_wing", FORCED, rule_lone_wing),
    Rule("seven_cycle_step", FORCED, _demands(P_SEVEN_CYCLE, z=BLACK)),
    Rule("braced_pendant", FORCED, _demands(P_BRACED_PENDANT, y=WHITE)),
)

RULES_BY_ID = {r.id: r for r in CATALOG}


def propagate(g: Graph, c: PartialColoring, audit: Optional[ReductionAudit] = None) -> Optional[Conflict]:
    """Run every rule to a joint fixpoint.  Mutates c; returns the conflict
    that refutes the instance, or None.

    One rule firing is applied per scan; the scan then restarts with the
    cheap rules, so every firing sees an up-to-date coloring (the
    exchange rules rely on that for their "still uncolored" guards).
    """
    while True:
        conflict = _basic_fixpoint(g, c)
        if conflict is not None:
            return conflict
        fired = False
        for rule in CATALOG:
            for group in rule.fn(g, c):
                todo = [(v, col) for v, col in group if c.get(v) != col]
                if not todo:
                    continue
                for v, col in todo:
                    pre = c.copy() if audit is not None else None
                    conflict = assign(g, c, v, col, rule.id)
                    if conflict is not None:
                        return conflict
                    if audit is not None:
                        audit.on_color(g, rule.id, rule.tag, v, col, pre)
                fired = True
                break
            if fired:
                break
        if not fired:
            return None


# --------------------------------------------------------------------------
# cleaning


@dataclass(frozen=True)
class CleanStep:
    """Removed material; restored verbatim when lifting a completion."""

    whites: tuple[int, ...]
    black_pairs: tuple[tuple[int, int], ...]
    incident_edges: tuple[tuple[int, int], ...] = ()

    def removed(self) -> set[int]:
        out = set(self.whites)
        for u, v in self.black_pairs:
            out |= {u, v}
        return out


def clean(g: Graph, c: PartialColoring) -> tuple[Graph, PartialColoring, Optional[CleanStep]]:
    """Drop white vertices and matched black pairs; restrict the coloring."""
    whites = tuple(sorted(c.whites()))
    pairs = []
    for v in sorted(c.blacks()):
        for w in g.neighbors(v):
            if w > v and c.get(w) == BLACK:
                pairs.append((v, w))
    removed = set(whites)
    for u, v in pairs:
        removed |= {u, v}
    if not removed:
        return g, c, None
    incident = tuple(e for e in g.edges() if e[0] in removed or e[1] in removed)
    step = CleanStep(whites, tuple(pairs), incident)
    g2 = g.remove_vertices(removed)
    c2 = c.restrict(g2.vertices)
    return g2, c2, step


def is_clean_pair(g: Graph, c: PartialColoring) -> bool:
    """No whites, blacks pairwise at distance >= 3, rules at fixpoint."""
    if c.whites():
        return False
    blacks = sorted(c.blacks())
    for u, v in combinations(blacks, 2):
        if not g.dist_at_least_3(u, v):
            return False
    probe = c.copy()
    if propagate(g, probe) is not None:
        return False
    return probe.state == c.state


def clean_pair_violation(g: Graph, c: PartialColoring) -> Optional[str]:
    """Structural facts every completable clean pair satisfies.

    A violation on a clean pair produced by the pipeline means the
    instance admits no completion, so the caller may refute.
    """
    if g.has_k4():
        return "contains K4"
    if g.diamonds():
        return "contains induced diamond"
    if not g.is_butterfly_free():
        return "contains induced butterfly"
    tri_at = g.triangles_at()
    for v, ts in tri_at.items():
        if len(ts) > 1:
            return f"vertex {v} lies in {len(ts)} triangles"
    tris = g.triangles()
    for t1, t2 in combinations(tris, 2):
        if set(t1) & set(t2):
            continue
        between = [(a, b) for a in t1 for b in t2 if g.has_edge(a, b)]
        if len(between) > 2:
            return f"triangles {t1} and {t2} joined by {len(between)} edges"
        if len(between) == 2:
            (a1, b1), (a2, b2) = between
            if a1 == a2 or b1 == b2:
                return f"triangles {t1} and {t2} joined by adjacent edges"
    return None
