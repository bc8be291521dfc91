"""Local graph rewrites and cleaning with completion lifting, and the
reduction driver.

Each rewrite replaces a matched local configuration by a smaller one while
preserving exactly whether a feasible complete coloring exists; cleaning
drops white vertices and matched black pairs.  Both record a RewriteStep
with enough of the removed material to translate a completion of the
final graph back into one of the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional

from .coloring import BLACK, WHITE, Conflict, PartialColoring
from .graph import Graph
from .patterns import MUST_BLACK, MUST_UNCOLORED, Embedding, Pattern, pattern
from .rules import (
    Anchors,
    ReductionAudit,
    Worklist,
    clean_pair_violation,
    is_clean_pair,
    propagate,
)


class LiftError(RuntimeError):
    """No coloring of a step's removed vertices is valid under the given
    completion of the reduced graph."""


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


def _rewrite(
    g: Graph,
    c: PartialColoring,
    rule_id: str,
    embedding: dict[str, int],
    removed: Iterable[int],
    added_ids: dict[str, int],
    added_edges: tuple[tuple[int, int], ...] = (),
    removed_survivor_edges: tuple[tuple[int, int], ...] = (),
) -> tuple[Graph, PartialColoring, RewriteStep]:
    """Make the change on g, restrict c to the new graph and record the
    step, with the removed vertices' edges and colors."""
    removed = tuple(sorted(removed))
    incident = tuple(sorted({(min(v, w), max(v, w)) for v in removed for w in g.neighbors(v)}))
    g2 = g.rewrite(removed, added_ids.values(), added_edges, removed_survivor_edges)
    step = RewriteStep(
        rule_id, embedding, removed, {v: c.get(v) for v in removed}, incident,
        added_ids, added_edges, removed_survivor_edges,
    )
    return g2, c.restrict(g2.vertices), step


def clean(g: Graph, c: PartialColoring) -> tuple[Graph, PartialColoring, Optional[RewriteStep]]:
    """Drop white vertices and matched black pairs; restrict the coloring.
    The step has rule "clean", an empty embedding and colors every vertex
    it removes."""
    blacks = c.blacks()
    removed = c.whites() | {v for v in blacks if g.neighbors(v) & blacks}
    if not removed:
        return g, c, None
    return _rewrite(g, c, "clean", {}, removed, {})


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

    def find(self, g: Graph, c: PartialColoring, anchors: Anchors = None) -> Optional[Embedding]:
        """The first embedding the guard accepts, in canonical order; with
        anchors, the first one placing the pattern's first role on one."""
        for emb in self.pattern.find_all(g, c.state, anchors=anchors):
            if self.guard is None or self.guard(g, c, emb):
                return emb
        return None

    def apply(self, g: Graph, c: PartialColoring, emb: Embedding) -> tuple[Graph, PartialColoring, RewriteStep]:
        amap = emb.assignment
        added_ids = dict(zip(self.new_vertices, g.fresh_ids(len(self.new_vertices))))
        lookup = {**amap, **added_ids}
        added = tuple((lookup[a], lookup[b]) for a, b in self.add_edges)
        surv_del = tuple((amap[a], amap[b]) for a, b in self.remove_survivor_edges)
        return _rewrite(g, c, self.id, dict(amap), (amap[r] for r in self.grey), added_ids, added, surv_del)


# --------------------------------------------------------------------------
# pruning rules (vertex deletions only)


P_TAIL = pattern("prune_tail", "w x y z", "w-x x-y y-z",
                 closure=frozenset({"x", "y", "z"}),
                 color={"x": MUST_UNCOLORED, "z": MUST_UNCOLORED})


P_SPIDER = pattern(
    "prune_spider",
    "x u v w a1 a2 a3",
    "x-u x-v x-w u-a1 v-a2 w-a3 a1-a2 a1-a3 a2-a3",
    closure=frozenset({"x", "u", "v", "w"}),
    color={"u": MUST_UNCOLORED, "v": MUST_UNCOLORED, "w": MUST_UNCOLORED},
)


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


def guard_hub_triangle(g: Graph, c: PartialColoring, emb: Embedding) -> bool:
    return not (
        _dashes(g, emb, "u2", ("b", "w1")) and _dashes(g, emb, "u2p", ("b", "w1"))
    )


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
        # black on every reachable state; the rewrite relies on that color
        return c.get(emb["z"]) == BLACK
    return True


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


P_CROSS_LINK = pattern(
    "fold_cross_link",
    "a b c x y w1 w2",
    "a-b a-c b-c a-w1 a-w2 b-x b-y x-w1 y-w2",
    closure=frozenset({"a", "b", "c"}),
    color={"a": MUST_UNCOLORED, "b": MUST_UNCOLORED},
)


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


P_CONTRACT_PATH = pattern(
    "contract_path",
    "v1 v2 v3 v4 v5",
    "v1-v2 v2-v3 v3-v4 v4-v5",
    closure=frozenset({"v2", "v3", "v4"}),
)


REWRITE_RULES: tuple[RewriteRule, ...] = (
    RewriteRule("prune_tail", P_TAIL, grey=("x", "y", "z")),
    RewriteRule("prune_spider", P_SPIDER, grey=("x", "u", "v", "w")),
    RewriteRule("prune_fan5", P_FAN5, grey=("v", "w1", "w2", "w3", "w4", "w5")),
    RewriteRule("prune_fan4", P_FAN4, grey=("v", "w1", "w2", "w3", "w4")),
    RewriteRule(
        "prune_hub_triangle", P_HUB_TRIANGLE, grey=("w2", "u2", "u2p"), guard=guard_hub_triangle,
    ),
    RewriteRule("prune_double_house", P_DOUBLE_HOUSE, grey=("a", "b", "c", "y", "w2", "u2")),
    RewriteRule(
        "prune_twin_triangle", P_TWIN_TRIANGLE, grey=("w1", "u1", "u1p"), guard=guard_twin_triangle,
    ),
    RewriteRule("prune_capped_house", P_CAPPED_HOUSE, grey=("x", "y", "z", "w1", "w2", "v")),
    RewriteRule(
        "fold_fan5", P_FOLD_FAN5, grey=("v", "w1", "w2", "w3", "w4", "w5"),
        new_vertices=("a", "b", "c"),
        add_edges=(("a", "b"), ("a", "c"), ("b", "c"), ("b", "x"), ("c", "y")),
    ),
    RewriteRule("fold_fan4", P_FOLD_FAN4, grey=("v", "w1", "w2", "w3", "w4"), add_edges=(("x", "y"),)),
    RewriteRule(
        "fold_fan_leaf", P_FOLD_FAN_LEAF, grey=("v", "w1", "w2", "w3", "w4"),
        new_vertices=("a1", "a2", "a3", "a4", "a5", "a6", "a7"),
        add_edges=(
            ("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("a1", "a4"),
            ("a4", "a5"), ("a5", "a6"), ("a5", "a7"), ("a1", "x"), ("a7", "u3"),
        ),
    ),
    RewriteRule(
        "fold_twin_spiders", P_TWIN_SPIDERS,
        grey=("x", "y", "z", "w1", "w2", "w3", "w4", "u1", "u2"),
        new_vertices=("f1", "f2"),
        add_edges=(("f1", "f2"), ("f1", "d"), ("f1", "e")),
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
    ),
    RewriteRule("fold_cross_link", P_CROSS_LINK, grey=("a", "b", "c"), add_edges=(("x", "w2"), ("y", "w1"))),
    RewriteRule("unlink_triangles", P_UNLINK, grey=(), remove_survivor_edges=(("b", "x"),)),
    RewriteRule(
        "fold_claw_chain", P_CLAW_CHAIN, grey=("z1", "y1", "x2", "q", "y2", "z2"),
        new_vertices=("n1", "n2"),
        add_edges=(("n1", "n2"), ("n1", "x1"), ("n1", "r")),
    ),
    RewriteRule("contract_path", P_CONTRACT_PATH, grey=("v2", "v3", "v4"), add_edges=(("v1", "v5"),)),
)


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


def _changed(step: RewriteStep) -> set[int]:
    """The surviving and new vertices whose adjacency a step changed."""
    edges = step.removed_incident_edges + step.added_edges + step.removed_survivor_edges
    touched = {v for e in edges for v in e} | set(step.added_ids.values())
    return touched - set(step.removed_vertices)


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
    trace: list[RewriteStep]
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
    trace: list[RewriteStep] = []
    steps = 0
    cap = max(STEP_CAP_FACTOR * g.n * g.n, 16)
    wl = Worklist()
    # measure(g) while g is the graph the last rewrite made; propagation
    # keeps g, a clean step replaces it
    measured: Optional[tuple[int, int, int]] = None
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
            g, c, measured = g2, c2, None
            continue
        violation = clean_pair_violation(g, c)
        if violation is not None:
            return ReduceResult(Conflict("clean_pair", -1, "", violation), g, c, trace, steps)
        comp = _c5_component(g)
        if comp is not None:
            witness = Conflict("c5_component", min(comp), "", f"component {sorted(comp)} is a five-cycle")
            return ReduceResult(witness, g, c, trace, steps)
        outcome = try_rewrite(g, c, wl)
        if outcome is None:
            if not is_clean_pair(g, c, wl):
                raise AssertionError("fixpoint is not a clean pair")
            return ReduceResult(None, g, c, trace, steps)
        g2, c2, step = outcome
        before = measure(g) if measured is None else measured
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
        g, c, measured = g2, c2, after


def _lift_step(step: RewriteStep, colors: dict[int, str]) -> None:
    """Color the vertices step removed, given in colors a valid complete
    coloring of the graph after the step, its added vertices included.

    Validity is local, so only the removed vertices and the survivors the
    step touched are checked, on the graph before the step.  A touched
    survivor was valid after it, so its same-colored removed neighbours
    must number its same-colored ends of added edges less those of removed
    survivor edges.  Removed vertices colored when the step was made keep
    that color; the others take the first valid choice, ascending, BLACK
    before WHITE.  A clean step colored all of them, so its lift only
    checks.
    """
    changed = _changed(step)
    missing = changed - colors.keys()
    if missing:
        raise LiftError(f"{step.rule_id}: vertex {min(missing)} is uncolored")
    owed = dict.fromkeys(changed - set(step.added_ids.values()), 0)
    for sign, edges in ((1, step.added_edges), (-1, step.removed_survivor_edges)):
        for a, b in edges:
            if colors[a] == colors[b]:
                for s in (a, b):
                    if s in owed:
                        owed[s] += sign
    nbrs: dict[int, list[int]] = {}
    for a, b in step.removed_incident_edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)

    def same(v: int) -> int:
        return sum(colors[w] == colors[v] for w in nbrs.get(v, ()))

    free = [v for v in step.removed_vertices if step.removed_colors[v] is None]
    colors.update((v, col) for v, col in step.removed_colors.items() if col is not None)
    for choice in product((BLACK, WHITE), repeat=len(free)):
        colors.update(zip(free, choice))
        if all(same(v) == (colors[v] == BLACK) for v in step.removed_vertices) and all(
            same(s) == k for s, k in owed.items()
        ):
            return
    raise LiftError(f"{step.rule_id}: no coloring of {list(step.removed_vertices)} is valid")


def lift_completion(trace: list[RewriteStep], final: PartialColoring) -> PartialColoring:
    """Translate a completion of the final graph back through the trace.
    Each step drops the colors of the vertices it added once its removed
    vertices are colored."""
    colors = dict(final.state)
    for step in reversed(trace):
        _lift_step(step, colors)
        for v in step.added_ids.values():
            colors.pop(v, None)
    return PartialColoring(colors)


def format_trace(trace: list[RewriteStep]) -> str:
    """One line per step, for --trace output and debugging.  A clean step
    lists its whites and its black pairs, the edges between removed
    blacks."""
    lines = []
    for k, step in enumerate(trace, start=1):
        if step.rule_id == "clean":
            cols = step.removed_colors
            whites = [v for v in step.removed_vertices if cols[v] == WHITE]
            pairs = [[a, b] for a, b in step.removed_incident_edges if cols.get(a) == cols.get(b) == BLACK]
            lines.append(f"STEP {k}: rule=clean removed_whites={whites} removed_black_pairs={pairs}")
        else:
            emb = ",".join(f"{r}:{v}" for r, v in sorted(step.embedding.items()))
            lines.append(
                f"STEP {k}: rule={step.rule_id} embedding={emb} "
                f"removed={list(step.removed_vertices)} added={sorted(step.added_ids.values())}"
            )
    return "\n".join(lines)
