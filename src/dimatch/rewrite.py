"""Local graph rewrites with completion lifting, and the reduction driver.

Each rewrite replaces a matched local configuration by a smaller one while
preserving exactly whether a feasible complete coloring exists.  The trace
records enough of the removed material to translate a completion of the
final graph back into one of the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .coloring import BLACK, WHITE, Conflict, PartialColoring
from .graph import Graph
from .patterns import MUST_BLACK, MUST_UNCOLORED, Embedding, Pattern, pattern
from .rules import (
    Anchors,
    CleanStep,
    ReductionAudit,
    Worklist,
    clean,
    clean_pair_violation,
    is_clean_pair,
    propagate,
)


class LiftError(RuntimeError):
    """A completion of the reduced graph hit no translation case."""


@dataclass(frozen=True)
class RewriteStep:
    rule_id: str
    embedding: dict[str, int]
    removed_vertices: tuple[int, ...]
    removed_colors: dict[int, Optional[str]]
    removed_incident_edges: tuple[tuple[int, int], ...]
    added_ids: dict[str, int]
    added_edges: tuple[tuple[int, int], ...]
    removed_survivor_edges: tuple[tuple[int, int], ...]

    def removed_color(self, role: str) -> Optional[str]:
        return self.removed_colors.get(self.embedding[role])


TraceEntry = RewriteStep | CleanStep
LiftFn = Callable[[RewriteStep, dict[int, str]], None]
GuardFn = Callable[[Graph, PartialColoring, Embedding], bool]


@dataclass(frozen=True)
class RewriteRule:
    id: str
    pattern: Pattern
    grey: tuple[str, ...]
    new_vertices: tuple[str, ...] = ()
    # edges among survivors and new vertices, by role
    add_edges: tuple[tuple[str, str], ...] = ()
    remove_survivor_edges: tuple[tuple[str, str], ...] = ()
    guard: Optional[GuardFn] = None
    # colors the removed vertices; None when the rule removes none
    lift: Optional[LiftFn] = None

    def find(self, g: Graph, c: PartialColoring, anchors: Anchors = None) -> Optional[Embedding]:
        """The first embedding the guard accepts, in canonical order; with
        anchors, the first one placing the pattern's first role on one."""
        for emb in self.pattern.find_all(g, c.state, anchors=anchors):
            if self.guard is None or self.guard(g, c, emb):
                return emb
        return None

    def apply(self, g: Graph, c: PartialColoring, emb: Embedding) -> tuple[Graph, PartialColoring, RewriteStep]:
        amap = emb.assignment
        removed = tuple(sorted(amap[r] for r in self.grey))
        incident = tuple(sorted({(min(v, w), max(v, w)) for v in removed for w in g.neighbors(v)}))
        fresh = g.fresh_ids(len(self.new_vertices))
        added_ids = dict(zip(self.new_vertices, fresh))
        lookup = {**amap, **added_ids}
        added = tuple((lookup[a], lookup[b]) for a, b in self.add_edges)
        surv_del = tuple((amap[a], amap[b]) for a, b in self.remove_survivor_edges)
        g2 = g.rewrite(
            remove_vertices=removed,
            add_vertices=fresh,
            add_edges=added,
            remove_edges=surv_del,
        )
        c2 = c.restrict(v for v in g2.vertices)
        step = RewriteStep(
            rule_id=self.id,
            embedding=dict(amap),
            removed_vertices=removed,
            removed_colors={v: c.get(v) for v in removed},
            removed_incident_edges=incident,
            added_ids=added_ids,
            added_edges=added,
            removed_survivor_edges=surv_del,
        )
        return g2, c2, step


# --------------------------------------------------------------------------
# lift helpers


def _set(colors: dict[int, str], step: RewriteStep, role: str, color: str) -> None:
    v = step.embedding[role]
    prior = step.removed_colors.get(v)
    if prior is not None and prior != color:
        raise LiftError(f"{step.rule_id}: removed vertex {v} was {prior}, lift wants {color}")
    colors[v] = color


def _col(colors: dict[int, str], step: RewriteStep, role: str) -> str:
    v = step.embedding[role]
    try:
        return colors[v]
    except KeyError:
        raise LiftError(f"{step.rule_id}: survivor {role}={v} is uncolored") from None


def _expect(cond: bool, step: RewriteStep, why: str) -> None:
    if not cond:
        raise LiftError(f"{step.rule_id}: {why}")


# --------------------------------------------------------------------------
# pruning rules (vertex deletions only)


P_TAIL = pattern("prune_tail", "w x y z", "w-x x-y y-z",
                 closure=frozenset({"x", "y", "z"}),
                 color={"x": MUST_UNCOLORED, "z": MUST_UNCOLORED})


def lift_tail(step: RewriteStep, colors: dict[int, str]) -> None:
    if _col(colors, step, "w") == BLACK:
        _set(colors, step, "y", BLACK)
        _set(colors, step, "z", BLACK)
        _set(colors, step, "x", WHITE)
    else:
        _set(colors, step, "x", BLACK)
        _set(colors, step, "y", BLACK)
        _set(colors, step, "z", WHITE)


P_SPIDER = pattern(
    "prune_spider",
    "x u v w a1 a2 a3",
    "x-u x-v x-w u-a1 v-a2 w-a3 a1-a2 a1-a3 a2-a3",
    closure=frozenset({"x", "u", "v", "w"}),
    color={"u": MUST_UNCOLORED, "v": MUST_UNCOLORED, "w": MUST_UNCOLORED},
)


def lift_spider(step: RewriteStep, colors: dict[int, str]) -> None:
    legs = [("u", "a1"), ("v", "a2"), ("w", "a3")]
    whites = [leg for leg, anchor in legs if _col(colors, step, anchor) == WHITE]
    _expect(len(whites) == 1, step, f"triangle has {len(whites)} whites")
    _set(colors, step, "x", BLACK)
    for leg, _anchor in legs:
        _set(colors, step, leg, BLACK if leg == whites[0] else WHITE)


def _fan_pattern(name: str, spokes5: bool, linked: bool) -> Pattern:
    roles = "v w1 w2 w3 w4" + (" w5" if spokes5 else "") + " u1 u2 u3 u4 x y"
    req = "v-w1 v-w2 v-w3 v-w4 w1-u1 w2-u2 w3-u3 w4-u4 u1-u2 u3-u4 x-u1 x-u2 y-u3 y-u4"
    if spokes5:
        req += " v-w5"
    if linked:
        req += " x-y"
    greys = {"v", "w1", "w2", "w3", "w4"} | ({"w5"} if spokes5 else set())
    return pattern(
        name,
        roles,
        req,
        closure=frozenset(greys),
        color={w: MUST_UNCOLORED for w in greys - {"v"}},
    )


def lift_fan(step: RewriteStep, colors: dict[int, str]) -> None:
    """Every fan: v black, and of its spokes w1..w5 only the one under the
    white hub among u1..u4 black, or else the spoke without a hub.  The
    fans that add no vertex leave x-y an edge of the reduced graph, and
    then exactly one hub is white."""
    emb = step.embedding
    hubs = [k for k in (1, 2, 3, 4) if f"u{k}" in emb]
    whites = [k for k in hubs if _col(colors, step, f"u{k}") == WHITE]
    _expect(len(whites) <= 1, step, f"{len(whites)} white hubs")
    if not step.added_ids:
        _expect(len(whites) == 1, step, "expected exactly one white hub")
    spokes = [k for k in (1, 2, 3, 4, 5) if f"w{k}" in emb]
    black_spoke = whites[0] if whites else next(k for k in spokes if k not in hubs)
    _set(colors, step, "v", BLACK)
    for k in spokes:
        _set(colors, step, f"w{k}", BLACK if k == black_spoke else WHITE)


P_FAN5 = _fan_pattern("prune_fan5", spokes5=True, linked=True)
P_FAN4 = _fan_pattern("prune_fan4", spokes5=False, linked=True)


P_HUB_TRIANGLE = pattern(
    "prune_hub_triangle",
    "x a b w1 w2 u2 u2p",
    "x-b b-a a-w1 w1-x w2-x w2-a w2-u2 w2-u2p u2-u2p",
    opt="u2-b u2-w1 u2p-b u2p-w1",
    closure=frozenset({"w2", "u2", "u2p"}),
    color={"w2": MUST_UNCOLORED},
)


def _dashes(g: Graph, emb: Embedding, role: str, targets: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(t for t in targets if g.has_edge(emb[role], emb[t]))


def _removed_dashes(step: RewriteStep, role: str, targets: tuple[str, ...]) -> tuple[str, ...]:
    """The dashes of role at the time of the step, read off the edges the
    step removed."""
    emb, incident = step.embedding, step.removed_incident_edges
    return tuple(t for t in targets if (min(emb[role], emb[t]), max(emb[role], emb[t])) in incident)


def guard_hub_triangle(g: Graph, c: PartialColoring, emb: Embedding) -> bool:
    return not (
        _dashes(g, emb, "u2", ("b", "w1")) and _dashes(g, emb, "u2p", ("b", "w1"))
    )


def lift_hub_triangle(step: RewriteStep, colors: dict[int, str]) -> None:
    cx = _col(colors, step, "x")
    cw1 = _col(colors, step, "w1")
    _expect(cx != cw1, step, "square corners agree")
    dashed = {r: _removed_dashes(step, r, ("b", "w1")) for r in ("u2", "u2p")}
    first, second = "u2", "u2p"
    if step.removed_color(second) == BLACK or (
        step.removed_color(first) != BLACK and dashed[first] and not dashed[second]
    ):
        first, second = second, first
    # `first` is black in the clean state if either was; otherwise it is the
    # dash-free member of the pair and safe to blacken.
    _expect(not dashed[first], step, f"hub vertex {first} has outward edges")
    _set(colors, step, first, BLACK)
    _set(colors, step, second, cx)
    _set(colors, step, "w2", cw1)


P_DOUBLE_HOUSE = pattern(
    "prune_double_house",
    "x w1 s a b c y w2 u2",
    "a-b a-c b-c a-w1 a-w2 b-x b-y x-w1 s-x s-w1 y-u2 w2-u2",
    closure=frozenset({"a", "b", "c", "y", "w2", "u2"}),
    color={
        "s": MUST_BLACK,
        "a": MUST_UNCOLORED,
        "b": MUST_UNCOLORED,
        "y": MUST_UNCOLORED,
        "w2": MUST_UNCOLORED,
    },
)


def lift_double_house(step: RewriteStep, colors: dict[int, str]) -> None:
    cx = _col(colors, step, "x")
    cw1 = _col(colors, step, "w1")
    _expect(cx != cw1, step, "square corners agree")
    for role, col in (("a", cx), ("y", cx), ("b", cw1), ("w2", cw1), ("c", BLACK), ("u2", BLACK)):
        _set(colors, step, role, col)


P_TWIN_TRIANGLE = pattern(
    "prune_twin_triangle",
    "a b c x y z w2 w1 u1 u1p",
    "a-b a-c b-c x-y x-z y-z b-x a-w2 a-w1 x-w1 w1-u1 w1-u1p u1-u1p",
    opt="u1p-b u1p-w2 u1p-y u1-y",
    closure=frozenset({"w1", "u1", "u1p"}),
    color={"c": MUST_BLACK, "w1": MUST_UNCOLORED},
)


def guard_twin_triangle(g: Graph, c: PartialColoring, emb: Embedding) -> bool:
    if _dashes(g, emb, "u1", ("y",)) and _dashes(g, emb, "u1p", ("b", "w2", "y")):
        return False
    if g.has_edge(emb["u1"], emb["y"]) or g.has_edge(emb["u1p"], emb["y"]):
        # a hub attached to y completes a house over x-y, whose apex z is
        # black on every reachable state; the lift relies on that color
        return c.get(emb["z"]) == BLACK
    return True


def lift_twin_triangle(step: RewriteStep, colors: dict[int, str]) -> None:
    ca = _col(colors, step, "a")
    cb = _col(colors, step, "b")
    _expect(ca != cb, step, "triangle base corners agree")
    _expect(_col(colors, step, "x") == ca, step, "x disagrees with a")
    _expect(_col(colors, step, "w2") == cb, step, "w2 disagrees with b")
    first, second = "u1", "u1p"
    d_first = _removed_dashes(step, first, ("y",))
    d_second = _removed_dashes(step, second, ("b", "w2", "y"))
    if d_first:
        _expect(not d_second, step, "both triangle hubs have outward edges")
        first, second = second, first
        d_second = d_first
    if not d_second:
        if step.removed_color(first) != BLACK and step.removed_color(second) == BLACK:
            first, second = second, first
        if step.removed_color(first) == BLACK:
            _set(colors, step, first, BLACK)
            _set(colors, step, second, ca)
        else:
            _set(colors, step, second, BLACK)
            _set(colors, step, first, ca)
        _set(colors, step, "w1", cb)
        return
    _expect(step.removed_color(second) != BLACK, step, "dashed hub is black")
    if "y" in d_second:
        _expect(_col(colors, step, "y") == cb, step, "y disagrees with b under dash")
    _set(colors, step, first, BLACK)
    _set(colors, step, second, ca)
    _set(colors, step, "w1", cb)


P_CAPPED_HOUSE = pattern(
    "prune_capped_house",
    "u x y z w1 w2 v",
    "x-y x-w1 y-w1 y-z z-v v-w2 w2-w1 w1-u",
    closure=frozenset({"x", "y", "z", "w1", "w2", "v"}),
    color={
        "y": MUST_UNCOLORED,
        "z": MUST_UNCOLORED,
        "w1": MUST_UNCOLORED,
        "w2": MUST_UNCOLORED,
    },
)


def lift_capped_house(step: RewriteStep, colors: dict[int, str]) -> None:
    if _col(colors, step, "u") == BLACK:
        blacks, whites = ("x", "y", "w2", "v"), ("z", "w1")
    else:
        blacks, whites = ("x", "z", "w1", "v"), ("y", "w2")
    for r in blacks:
        _set(colors, step, r, BLACK)
    for r in whites:
        _set(colors, step, r, WHITE)


# --------------------------------------------------------------------------
# folding rules (may add vertices or edges)


P_FOLD_FAN5 = _fan_pattern("fold_fan5", spokes5=True, linked=False)
P_FOLD_FAN4 = _fan_pattern("fold_fan4", spokes5=False, linked=False)


P_FOLD_FAN_LEAF = pattern(
    "fold_fan_leaf",
    "v w1 w2 w3 w4 u1 u2 u3 x",
    "v-w1 v-w2 v-w3 v-w4 w1-u1 w2-u2 w3-u3 u1-u2 x-u1 x-u2",
    closure=frozenset({"v", "w1", "w2", "w3", "w4"}),
    color={w: MUST_UNCOLORED for w in ("w1", "w2", "w3", "w4")},
)


P_TWIN_SPIDERS = pattern(
    "fold_twin_spiders",
    "x y z w1 w2 w3 w4 u1 u2 d e",
    "x-y x-z y-z x-w2 x-w3 y-w1 z-w4 w1-u1 w2-u1 w3-u2 w4-u2 u1-d u2-e",
    closure=frozenset({"x", "y", "z", "w1", "w2", "w3", "w4", "u1", "u2"}),
    color={
        "u1": MUST_BLACK,
        "u2": MUST_BLACK,
        "x": MUST_UNCOLORED,
        "y": MUST_UNCOLORED,
        "z": MUST_UNCOLORED,
        "w1": MUST_UNCOLORED,
        "w2": MUST_UNCOLORED,
        "w3": MUST_UNCOLORED,
        "w4": MUST_UNCOLORED,
    },
)


def lift_twin_spiders(step: RewriteStep, colors: dict[int, str]) -> None:
    cd = _col(colors, step, "d")
    ce = _col(colors, step, "e")
    _expect(not (cd == BLACK and ce == BLACK), step, "both anchors black")
    side = {
        "u1": "u1", "u2": "u2", "w1": "w1", "w2": "w2", "w3": "w3", "w4": "w4",
        "x": "x", "y": "y", "z": "z",
    }
    if ce == BLACK:
        side = {
            "u1": "u2", "u2": "u1", "w1": "w4", "w2": "w3", "w3": "w2", "w4": "w1",
            "x": "x", "y": "z", "z": "y",
        }
        cd, ce = ce, cd
    if cd == BLACK:
        blacks, whites = ("u1", "u2", "x", "y", "w4"), ("w1", "w2", "w3", "z")
    else:
        blacks, whites = ("u1", "u2", "w2", "w3", "y", "z"), ("w1", "x", "w4")
    for r in blacks:
        _set(colors, step, side[r], BLACK)
    for r in whites:
        _set(colors, step, side[r], WHITE)


P_FOLD_HUB = pattern(
    "fold_hub",
    "v w1 w2 x y z f u",
    "x-y x-z y-z z-w2 z-u y-w1 w1-v w2-v v-f",
    degree={"f": (1, 2)},
    closure=frozenset({"v", "w1", "w2", "x", "y", "z"}),
    color={
        "v": MUST_BLACK,
        "w1": MUST_UNCOLORED,
        "w2": MUST_UNCOLORED,
        "x": MUST_UNCOLORED,
        "y": MUST_UNCOLORED,
        "z": MUST_UNCOLORED,
        "f": MUST_UNCOLORED,
    },
)


def lift_fold_hub(step: RewriteStep, colors: dict[int, str]) -> None:
    cf = _col(colors, step, "f")
    cu = _col(colors, step, "u")
    _expect(not (cf == BLACK and cu == BLACK), step, "both anchors black")
    if cf == BLACK:
        blacks, whites = ("v", "y", "z"), ("w1", "w2", "x")
    elif cu == BLACK:
        blacks, whites = ("v", "w2", "y", "x"), ("w1", "z")
    else:
        blacks, whites = ("v", "w1", "z", "x"), ("w2", "y")
    for r in blacks:
        _set(colors, step, r, BLACK)
    for r in whites:
        _set(colors, step, r, WHITE)


P_CROSS_LINK = pattern(
    "fold_cross_link",
    "a b c x y w1 w2",
    "a-b a-c b-c a-w1 a-w2 b-x b-y x-w1 y-w2",
    closure=frozenset({"a", "b", "c"}),
    color={"a": MUST_UNCOLORED, "b": MUST_UNCOLORED},
)


def lift_cross_link(step: RewriteStep, colors: dict[int, str]) -> None:
    cx = _col(colors, step, "x")
    cw1 = _col(colors, step, "w1")
    _expect(_col(colors, step, "y") == cx, step, "square corners x,y disagree")
    _expect(_col(colors, step, "w2") == cw1, step, "square corners w1,w2 disagree")
    _expect(cx != cw1, step, "square corners agree")
    _set(colors, step, "a", cx)
    _set(colors, step, "b", cw1)
    _set(colors, step, "c", BLACK)


P_UNLINK = pattern(
    "unlink_triangles",
    "a b c x w1 s",
    "a-b a-c b-c s-x s-w1 x-w1 b-x a-w1",
    degree={"b": (3, 3), "c": (2, 2), "s": (2, 2)},
    color={
        "c": MUST_BLACK,
        "s": MUST_BLACK,
        "a": MUST_UNCOLORED,
        "b": MUST_UNCOLORED,
        "x": MUST_UNCOLORED,
        "w1": MUST_UNCOLORED,
    },
)


P_CLAW_CHAIN = pattern(
    "fold_claw_chain",
    "z1 y1 x1 x2 q y2 z2 r",
    "y1-z1 y1-x1 y1-x2 x2-q q-y2 y2-z2 y2-r",
    closure=frozenset({"z1", "y1", "x2", "q", "y2", "z2"}),
    color={
        "y1": MUST_BLACK,
        "y2": MUST_BLACK,
        "z1": MUST_UNCOLORED,
        "x2": MUST_UNCOLORED,
        "q": MUST_UNCOLORED,
        "z2": MUST_UNCOLORED,
        "x1": MUST_UNCOLORED,
        "r": MUST_UNCOLORED,
    },
)


def lift_claw_chain(step: RewriteStep, colors: dict[int, str]) -> None:
    c1 = _col(colors, step, "x1")
    cr = _col(colors, step, "r")
    _expect(not (c1 == BLACK and cr == BLACK), step, "both anchors black")
    _set(colors, step, "y1", BLACK)
    _set(colors, step, "y2", BLACK)
    _set(colors, step, "z2", WHITE)
    if c1 == BLACK:
        plan = (("z1", WHITE), ("x2", WHITE), ("q", BLACK))
    elif cr == BLACK:
        plan = (("z1", WHITE), ("x2", BLACK), ("q", WHITE))
    else:
        plan = (("z1", BLACK), ("x2", WHITE), ("q", BLACK))
    for role, col in plan:
        _set(colors, step, role, col)


P_CONTRACT_PATH = pattern(
    "contract_path",
    "v1 v2 v3 v4 v5",
    "v1-v2 v2-v3 v3-v4 v4-v5",
    closure=frozenset({"v2", "v3", "v4"}),
)


def lift_contract_path(step: RewriteStep, colors: dict[int, str]) -> None:
    c1 = _col(colors, step, "v1")
    c5 = _col(colors, step, "v5")
    _expect(not (c1 == WHITE and c5 == WHITE), step, "joined ends both white")
    if c1 == BLACK and c5 == BLACK:
        plan = (("v2", BLACK), ("v3", WHITE), ("v4", BLACK))
    elif c1 == BLACK:
        plan = (("v2", WHITE), ("v3", BLACK), ("v4", BLACK))
    else:
        plan = (("v2", BLACK), ("v3", BLACK), ("v4", WHITE))
    for role, col in plan:
        _set(colors, step, role, col)


REWRITE_RULES: tuple[RewriteRule, ...] = (
    RewriteRule("prune_tail", P_TAIL, grey=("x", "y", "z"), lift=lift_tail),
    RewriteRule("prune_spider", P_SPIDER, grey=("x", "u", "v", "w"), lift=lift_spider),
    RewriteRule("prune_fan5", P_FAN5, grey=("v", "w1", "w2", "w3", "w4", "w5"), lift=lift_fan),
    RewriteRule("prune_fan4", P_FAN4, grey=("v", "w1", "w2", "w3", "w4"), lift=lift_fan),
    RewriteRule(
        "prune_hub_triangle", P_HUB_TRIANGLE, grey=("w2", "u2", "u2p"),
        guard=guard_hub_triangle, lift=lift_hub_triangle,
    ),
    RewriteRule(
        "prune_double_house", P_DOUBLE_HOUSE, grey=("a", "b", "c", "y", "w2", "u2"),
        lift=lift_double_house,
    ),
    RewriteRule(
        "prune_twin_triangle", P_TWIN_TRIANGLE, grey=("w1", "u1", "u1p"),
        guard=guard_twin_triangle, lift=lift_twin_triangle,
    ),
    RewriteRule(
        "prune_capped_house", P_CAPPED_HOUSE, grey=("x", "y", "z", "w1", "w2", "v"),
        lift=lift_capped_house,
    ),
    RewriteRule(
        "fold_fan5", P_FOLD_FAN5, grey=("v", "w1", "w2", "w3", "w4", "w5"),
        new_vertices=("a", "b", "c"),
        add_edges=(("a", "b"), ("a", "c"), ("b", "c"), ("b", "x"), ("c", "y")),
        lift=lift_fan,
    ),
    RewriteRule(
        "fold_fan4", P_FOLD_FAN4, grey=("v", "w1", "w2", "w3", "w4"),
        add_edges=(("x", "y"),),
        lift=lift_fan,
    ),
    RewriteRule(
        "fold_fan_leaf", P_FOLD_FAN_LEAF, grey=("v", "w1", "w2", "w3", "w4"),
        new_vertices=("a1", "a2", "a3", "a4", "a5", "a6", "a7"),
        add_edges=(
            ("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("a1", "a4"),
            ("a4", "a5"), ("a5", "a6"), ("a5", "a7"), ("a1", "x"), ("a7", "u3"),
        ),
        lift=lift_fan,
    ),
    RewriteRule(
        "fold_twin_spiders", P_TWIN_SPIDERS,
        grey=("x", "y", "z", "w1", "w2", "w3", "w4", "u1", "u2"),
        new_vertices=("f1", "f2"),
        add_edges=(("f1", "f2"), ("f1", "d"), ("f1", "e")),
        lift=lift_twin_spiders,
    ),
    # The replacement keeps f's matching partner available (lf is black in
    # every completion, via its pendant) while u's contact m1 sits in a
    # triangle, so it is white whenever u is black and u keeps relying on
    # its outside partner.  Chaining lf-k-m1 rules out f and u both black.
    RewriteRule(
        "fold_hub", P_FOLD_HUB, grey=("v", "w1", "w2", "x", "y", "z"),
        new_vertices=("lf", "p", "k", "m1", "m2", "m3"),
        add_edges=(
            ("lf", "p"), ("lf", "f"), ("lf", "k"), ("k", "m1"),
            ("m1", "m2"), ("m1", "m3"), ("m2", "m3"), ("m1", "u"),
        ),
        lift=lift_fold_hub,
    ),
    RewriteRule(
        "fold_cross_link", P_CROSS_LINK, grey=("a", "b", "c"),
        add_edges=(("x", "w2"), ("y", "w1")),
        lift=lift_cross_link,
    ),
    RewriteRule(
        "unlink_triangles", P_UNLINK, grey=(),
        remove_survivor_edges=(("b", "x"),),
    ),
    RewriteRule(
        "fold_claw_chain", P_CLAW_CHAIN, grey=("z1", "y1", "x2", "q", "y2", "z2"),
        new_vertices=("n1", "n2"),
        add_edges=(("n1", "n2"), ("n1", "x1"), ("n1", "r")),
        lift=lift_claw_chain,
    ),
    RewriteRule(
        "contract_path", P_CONTRACT_PATH, grey=("v2", "v3", "v4"),
        add_edges=(("v1", "v5"),),
        lift=lift_contract_path,
    ),
)

RULES_BY_ID = {r.id: r for r in REWRITE_RULES}


def try_rewrite(
    g: Graph, c: PartialColoring, wl: Optional[Worklist] = None
) -> Optional[tuple[Graph, PartialColoring, RewriteStep]]:
    """Apply the first applicable rewrite in fixed priority order.  A rule
    searches only near the changes logged in wl since its last search that
    found nothing, as in `propagate`; on a fresh worklist, everywhere."""
    wl = Worklist() if wl is None else wl
    for rule in REWRITE_RULES:
        emb = rule.find(g, c, wl.anchors(g, rule.id, rule.pattern.radius))
        if emb is not None:
            return rule.apply(g, c, emb)
        wl.found_nothing(rule.id)
    return None


def _changed(entry: TraceEntry) -> set[int]:
    """The surviving and new vertices whose adjacency a step changed."""
    if isinstance(entry, CleanStep):
        return {v for e in entry.incident_edges for v in e} - entry.removed()
    edges = entry.removed_incident_edges + entry.added_edges + entry.removed_survivor_edges
    touched = {v for e in edges for v in e} | set(entry.added_ids.values())
    return touched - set(entry.removed_vertices)


# --------------------------------------------------------------------------
# driver


def bad_vertex_count(g: Graph) -> int:
    """Vertices violating the degree-four shape of irreducible graphs."""
    tri_at = g.triangles_at()
    count = 0
    for v in g.vertices:
        d = g.degree(v)
        if d > 4:
            count += 1
        elif d == 4:
            good = any(
                all(g.degree(w) == 2 for w in t if w != v) for t in tri_at[v]
            )
            if not good:
                count += 1
    return count


def measure(g: Graph) -> tuple[int, int, int]:
    return (bad_vertex_count(g), g.n, g.m)


def _c5_component(g: Graph) -> Optional[frozenset[int]]:
    for comp in g.components():
        if len(comp) == 5 and all(g.degree(v) == 2 for v in comp):
            return comp
    return None


STEP_CAP_FACTOR = 10


@dataclass
class ReduceResult:
    refuted: Optional[Conflict]
    graph: Graph
    coloring: PartialColoring
    trace: list[TraceEntry]
    rewrite_steps: int

    @property
    def is_refuted(self) -> bool:
        return self.refuted is not None


def reduce_to_irreducible(
    g: Graph,
    c: Optional[PartialColoring] = None,
    audit: Optional[ReductionAudit] = None,
) -> ReduceResult:
    """Alternate propagation, cleaning and rewriting until nothing applies.

    Termination is audited: the (bad vertices, n, m) measure must drop
    lexicographically at every rewrite, and the number of rewrites may not
    exceed STEP_CAP_FACTOR * n^2.
    """
    if c is None:
        c = PartialColoring()
    trace: list[TraceEntry] = []
    steps = 0
    cap = max(STEP_CAP_FACTOR * g.n * g.n, 16)
    wl = Worklist()
    while True:
        conflict = propagate(g, c, audit, wl)
        if conflict is not None:
            return ReduceResult(conflict, g, c, trace, steps)
        g2, c2, cstep = clean(g, c)
        if cstep is not None:
            if audit:
                audit.on_clean(g, c, g2, c2)
            trace.append(cstep)
            wl.log.extend(_changed(cstep))
            g, c = g2, c2
            continue
        violation = clean_pair_violation(g, c)
        if violation is not None:
            return ReduceResult(Conflict("clean_pair", -1, "", violation), g, c, trace, steps)
        comp = _c5_component(g)
        if comp is not None:
            witness = Conflict("c5_component", min(comp), "", f"component {sorted(comp)} is a five-cycle")
            return ReduceResult(witness, g, c, trace, steps)
        before = measure(g)
        outcome = try_rewrite(g, c, wl)
        if outcome is None:
            assert is_clean_pair(g, c), "fixpoint is not a clean pair"
            return ReduceResult(None, g, c, trace, steps)
        g2, c2, step = outcome
        after = measure(g2)
        if not after < before:
            raise AssertionError(
                f"measure did not drop at {step.rule_id}: {before} -> {after}"
            )
        steps += 1
        if steps > cap:
            raise AssertionError(f"rewrite budget exceeded: {steps} > {cap}")
        if audit:
            audit.on_rewrite(step, g, c, g2, c2)
        trace.append(step)
        wl.log.extend(_changed(step))
        g, c = g2, c2


def lift_completion(trace: list[TraceEntry], final: PartialColoring) -> PartialColoring:
    """Translate a completion of the final graph back through the trace.
    Each rewrite step first drops the colors of the vertices it added."""
    colors = dict(final.state)
    for entry in reversed(trace):
        if isinstance(entry, CleanStep):
            for v in entry.whites:
                colors[v] = WHITE
            for u, v in entry.black_pairs:
                colors[u] = BLACK
                colors[v] = BLACK
        else:
            for v in entry.added_ids.values():
                colors.pop(v, None)
            lift = RULES_BY_ID[entry.rule_id].lift
            if lift is not None:
                lift(entry, colors)
    return PartialColoring(colors)


def format_trace(trace: list[TraceEntry]) -> str:
    """One line per step, for --trace output and debugging."""
    lines = []
    for k, entry in enumerate(trace, start=1):
        if isinstance(entry, CleanStep):
            lines.append(
                f"STEP {k}: rule=clean removed_whites={list(entry.whites)} "
                f"removed_black_pairs={[list(p) for p in entry.black_pairs]}"
            )
        else:
            emb = ",".join(f"{r}:{v}" for r, v in sorted(entry.embedding.items()))
            lines.append(
                f"STEP {k}: rule={entry.rule_id} embedding={emb} "
                f"removed={list(entry.removed_vertices)} added={sorted(entry.added_ids.values())}"
            )
    return "\n".join(lines)
