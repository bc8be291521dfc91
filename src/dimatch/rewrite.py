"""Local graph rewrites and cleaning with completion lifting, and the
reduction driver.

Each rewrite replaces a matched local configuration by a smaller one while
preserving exactly whether a feasible complete coloring exists; cleaning
drops white vertices and matched black pairs.  Both record a RewriteStep
with enough of the removed material to translate a completion of the
final graph back into one of the original graph; `RewriteStep.make` then
makes the step on a graph and coloring in place.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from .coloring import BLACK, WHITE, Conflict, PartialColoring
from .graph import Graph
from .patterns import MUST_BLACK, MUST_UNCOLORED, Embedding, Pattern, pattern
from .rules import (
    Anchors,
    DispatchPlan,
    ReductionAudit,
    Worklist,
    clean_pair_violation,
    is_clean_pair,
    propagate,
)
from .setmatch import IrreducibleDecomposition, read_decomposition


class LiftError(RuntimeError):
    """No coloring of a step's removed vertices is valid under the given
    completion of the reduced graph."""


class RewriteStep(NamedTuple):
    rule_id: str
    embedding: dict[str, int]
    removed_vertices: tuple[int, ...]
    removed_colors: dict[int, Optional[str]]
    removed_incident_edges: tuple[tuple[int, int], ...]
    added_ids: dict[str, int]
    added_edges: tuple[tuple[int, int], ...]
    removed_survivor_edges: tuple[tuple[int, int], ...]
    # the surviving and new vertices whose adjacency the step changes, as
    # `_record` derives them from the fields above; read only.  The
    # driver, the measure and the lift each read it.
    changed: set[int]

    def make(self, g: Graph, c: PartialColoring) -> None:
        """Make this step on g, the graph it was recorded on, and on c, in
        place: the removed vertices leave both, then the added vertices and
        edges join g and the removed survivor edges leave it."""
        g.edit(self.removed_vertices, self.added_ids.values(), self.added_edges, self.removed_survivor_edges)
        for v in self.removed_vertices:
            c.state.pop(v, None)


def _record(
    g: Graph,
    c: PartialColoring,
    rule_id: str,
    embedding: dict[str, int],
    removed: Iterable[int],
    added_ids: dict[str, int],
    added_edges: tuple[tuple[int, int], ...] = (),
    removed_survivor_edges: tuple[tuple[int, int], ...] = (),
) -> RewriteStep:
    """The step making the change on g, with the removed vertices' edges
    and colors."""
    removed = tuple(sorted(removed))
    incident = tuple(sorted({(min(v, w), max(v, w)) for v in removed for w in g.neighbors(v)}))
    touched = {v for e in incident + added_edges + removed_survivor_edges for v in e} | set(added_ids.values())
    return RewriteStep(
        rule_id, embedding, removed, {v: c.get(v) for v in removed}, incident,
        added_ids, added_edges, removed_survivor_edges, touched - set(removed),
    )


def clean(g: Graph, c: PartialColoring) -> Optional[RewriteStep]:
    """The step dropping the white vertices and matched black pairs, or
    None if there are none; it is not yet made.  It has rule "clean", an
    empty embedding and colors every vertex it removes."""
    adj, blacks = g.adjacency, c.blacks()
    removed = {v for v, col in c.state.items() if col == WHITE or not blacks.isdisjoint(adj[v])}
    if not removed:
        return None
    return _record(g, c, "clean", {}, removed, {})


class RewriteRule(NamedTuple):
    """A rewrite declared by its pattern: the rule is named after it and
    deletes its closure roles, the roles whose whole neighbourhood lies in
    the match.  It then adds the new vertices and edges and removes the
    survivor edges given here."""

    pattern: Pattern
    new_vertices: tuple[str, ...] = ()
    # edges among survivors and new vertices, by role
    add_edges: tuple[tuple[str, str], ...] = ()
    remove_survivor_edges: tuple[tuple[str, str], ...] = ()
    guard: Optional[Callable[[Graph, PartialColoring, Embedding], bool]] = None

    @property
    def id(self) -> str:
        return self.pattern.name

    def find(self, g: Graph, c: PartialColoring, anchors: Anchors = None) -> Optional[Embedding]:
        """The first embedding the guard accepts, in canonical order; with
        anchors, the first one placing the pattern's first role on one.
        Without a guard the first embedding is the least of its orbit under
        the pattern's automorphisms, so the search yields one per orbit
        (see `Orbits`).  A guard reads roles that an automorphism may
        swap, so a guarded rule searches every embedding."""
        if self.guard is None:
            return next(self.pattern.least(g, c.state, anchors), None)
        for emb in self.pattern.find_all(g, c.state, anchors=anchors):
            if self.guard(g, c, emb):
                return emb
        return None

    def apply(self, g: Graph, c: PartialColoring, emb: Embedding) -> RewriteStep:
        """The step this rewrite takes at emb, not yet made."""
        added_ids = dict(zip(self.new_vertices, g.fresh_ids(len(self.new_vertices))))
        lookup = {**emb, **added_ids}
        added = tuple((lookup[a], lookup[b]) for a, b in self.add_edges)
        surv_del = tuple((emb[a], emb[b]) for a, b in self.remove_survivor_edges)
        return _record(g, c, self.id, emb, (emb[r] for r in self.pattern.closure), added_ids, added, surv_del)


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
    RewriteRule(P_TAIL),
    RewriteRule(P_SPIDER),
    RewriteRule(P_FAN5),
    RewriteRule(P_FAN4),
    RewriteRule(P_HUB_TRIANGLE, guard=guard_hub_triangle),
    RewriteRule(P_DOUBLE_HOUSE),
    RewriteRule(P_TWIN_TRIANGLE, guard=guard_twin_triangle),
    RewriteRule(P_CAPPED_HOUSE),
    RewriteRule(
        P_FOLD_FAN5, new_vertices=("a", "b", "c"),
        add_edges=(("a", "b"), ("a", "c"), ("b", "c"), ("b", "x"), ("c", "y")),
    ),
    RewriteRule(P_FOLD_FAN4, add_edges=(("x", "y"),)),
    RewriteRule(
        P_FOLD_FAN_LEAF, new_vertices=("a1", "a2", "a3", "a4", "a5", "a6", "a7"),
        add_edges=(
            ("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("a1", "a4"),
            ("a4", "a5"), ("a5", "a6"), ("a5", "a7"), ("a1", "x"), ("a7", "u3"),
        ),
    ),
    RewriteRule(
        P_TWIN_SPIDERS, new_vertices=("f1", "f2"),
        add_edges=(("f1", "f2"), ("f1", "d"), ("f1", "e")),
    ),
    # The replacement keeps f's matching partner available (lf is black in
    # every completion, via its pendant) while u's contact m1 sits in a
    # triangle, so it is white whenever u is black and u keeps relying on
    # its outside partner.  Chaining lf-k-m1 rules out f and u both black.
    RewriteRule(
        P_FOLD_HUB, new_vertices=("lf", "p", "k", "m1", "m2", "m3"),
        add_edges=(
            ("lf", "p"), ("lf", "f"), ("lf", "k"), ("k", "m1"),
            ("m1", "m2"), ("m1", "m3"), ("m2", "m3"), ("m1", "u"),
        ),
    ),
    RewriteRule(P_CROSS_LINK, add_edges=(("x", "w2"), ("y", "w1"))),
    RewriteRule(P_UNLINK, remove_survivor_edges=(("b", "x"),)),
    RewriteRule(P_CLAW_CHAIN, new_vertices=("n1", "n2"), add_edges=(("n1", "n2"), ("n1", "x1"), ("n1", "r"))),
    RewriteRule(P_CONTRACT_PATH, add_edges=(("v1", "v5"),)),
)


_PLAN: DispatchPlan[RewriteRule] = DispatchPlan(lambda rule: rule.pattern)


def try_rewrite(g: Graph, c: PartialColoring, wl: Optional[Worklist] = None) -> Optional[RewriteStep]:
    """The step of the first applicable rewrite in fixed priority order,
    not yet made, or None.  A rule searches only near the changes logged
    in wl since its last search that found nothing, as in `propagate`; on
    a fresh worklist, everywhere.
    Only the rules of g's dispatch plan (see `DispatchPlan`) are tried: a
    rule whose pattern does not fit g's degree census has no embedding
    anywhere on g, so it asks for no anchors, is not searched and leaves
    no record, as in `propagate`."""
    wl = Worklist() if wl is None else wl
    for rule in _PLAN(REWRITE_RULES, g):
        emb = rule.find(g, c, wl.anchors(g, rule.id, rule.pattern.radius))
        if emb is not None:
            return rule.apply(g, c, emb)
        wl.found_nothing(rule.id)
    return None


# --------------------------------------------------------------------------
# driver


def _bad(g: Graph, v: int) -> bool:
    """v violates the degree-four shape of irreducible graphs: its degree
    is above four, or four with no triangle whose other vertices have
    degree two."""
    d = g.degree(v)
    if d != 4:
        return d > 4
    return not any(all(g.degree(w) == 2 for w in t if w != v) for t in g.triangles_at()[v])


def bad_vertex_count(g: Graph) -> int:
    """Vertices violating the degree-four shape of irreducible graphs."""
    return sum(_bad(g, v) for v in g.vertices)


def measure(g: Graph) -> tuple[int, int, int]:
    return (bad_vertex_count(g), g.n, g.m)


def remeasure(before: tuple[int, int, int], g: Graph, c: PartialColoring, step: RewriteStep) -> tuple[int, int, int]:
    """Make step on g and c, and return measure(g) after it, given before =
    measure(g) before it.  Whether a vertex is bad depends on its degree,
    its triangles and their other vertices' degrees, so only the step's
    neighbourhood is recounted, once before the edit and once after: the
    vertices it changes or removes and, taken before the edit, the
    neighbors of the changed ones.  A neighbor after the step was one
    before it unless their edge is new, and then it is changed itself."""
    changed = step.changed
    near = changed.union(step.removed_vertices)
    for v in changed:
        if v in g:
            near |= g.neighbors(v)
    bad = before[0]
    for v in near:
        if v in g:
            bad -= _bad(g, v)
    step.make(g, c)
    for v in near:
        if v in g:
            bad += _bad(g, v)
    return (bad, g.n, g.m)


def _c5_component(g: Graph) -> Optional[frozenset[int]]:
    """The component that is a five-cycle with the least minimum vertex, or
    None: components come in least-vertex order, so it is the first.

    The driver asks only at the fixpoint, where no rewrite applies, and
    decides as an ask in any earlier round would.  Whenever propagation
    found nothing and cleaning made no step, a five-cycle component is
    uncolored: no vertex is white, and a black one would make `chain_step`
    demand a second black two steps away, between which
    `black_pair_neighbors` demands a white.  An uncolored five-cycle has no
    dominating induced matching, and it holds no occurrence of a catalog
    rule, a rewrite pattern or a basic rule: every pattern is connected,
    and none embeds in an uncolored five-cycle.  So no later step touches
    it, and once it is there the answer is NO whenever it is read.
    """
    # such a component has five vertices of degree two
    if g.degree_counts().get(2, 0) < 5:
        return None
    return next((comp for comp in g.components() if len(comp) == 5 and all(g.degree(v) == 2 for v in comp)), None)


STEP_CAP_FACTOR = 10


class ReduceResult(NamedTuple):
    refuted: Optional[Conflict]
    graph: Graph
    coloring: PartialColoring
    trace: list[RewriteStep]
    rewrite_steps: int
    # the pair's decomposition when the reduction ended at a rigid pair,
    # read once it was cleaned; None at a refutation and at the fixpoint
    decomposition: Optional[IrreducibleDecomposition] = None

    @property
    def is_refuted(self) -> bool:
        return self.refuted is not None


def reduce_to_irreducible(
    g: Graph,
    c: Optional[PartialColoring] = None,
    audit: Optional[ReductionAudit] = None,
) -> ReduceResult:
    """Alternate propagation, cleaning and rewriting until the pair is
    rigid or nothing applies.

    Propagation ends the reduction at the first basic fixpoint whose pair
    is rigid once cleaned (see `propagate`): dropping its white vertices
    and matched black pairs leaves no white vertex, no two adjacent black
    vertices and the structure `check_structure` checks.  The reduction
    then makes the ordinary cleaning step, if there is anything to clean,
    so the trace and the lift are those of any other cleaning, and the
    result carries the decomposition read off the cleaned pair; no
    catalog scan, rewrite search or fixpoint read follows.  This is exact
    by two facts.

    Cleaning keeps completability at any basic fixpoint without a
    conflict, not only at the full one.  There every neighbour of a white
    vertex is black, and a black vertex with a black partner has no other
    black neighbour and only white ones besides.  So a valid completion
    of the cleaned pair, with the removed vertices in their colors, is
    valid on g: a removed white sees only blacks, a removed black only its
    partner and whites, and a survivor next to a removed vertex is an
    unmatched black next to whites, the only survivors that lose a
    neighbour, and whites do not count for a black.  Conversely a valid
    completion of g restricts to one of the cleaned pair, since no
    survivor loses a black neighbour.  Each triangle lies wholly inside
    or wholly outside what cleaning removes (a white vertex lies in one
    only with a matched pair, and a matched pair's third neighbour is
    white), so the triangles `check_structure` reads at a survivor are
    the cleaned pair's.  This is the argument for draining in
    `propagate` once more: each step made so far keeps completability, in
    whatever order, so cleaning may come where the rules' scans stop.

    And on a rigid pair (g, c), a valid complete coloring of g extending
    c exists exactly when the sets of `build_family` can be hit exactly
    once; this is the lemma that decides the cleaned pair.

    Proof.  In a valid coloring the white vertices are independent and
    each black vertex has exactly one black neighbour.  On a rigid pair
    the black vertices are the star centers and triangle vertices of
    degree two, whose neighbours are uncolored, and every uncolored vertex
    is in the core, a spoke of a degree-four triangle or a star leaf.
    Three kinds of constraint then say what a valid completion is, each
    a set hit exactly once, where a core vertex is chosen when white and a
    pendant tip when black.  A triangle has exactly one white vertex (two
    would be adjacent, three blacks would give one two black neighbours);
    if no spoke is in it, the white lies in its core part, as a black
    vertex there is white in no completion.  The ends u, w of a core edge
    lie in distinct triangles, so if u is black its partner is in its
    triangle and w is white, and if u is white, w is black: exactly one is
    white.  A center's neighbours are its leaves, so exactly one leaf is
    black; an arm a anchored at r is black exactly when r is white (a
    black a with a black r would give a two black neighbours, a white a
    needs r black), so it is black exactly when its representative is
    chosen, as a tip is.  Conversely `coloring_from_hit` colors g from any
    exact hitting set, and each vertex is valid under those constraints:
    a degree-four triangle's spokes have no other neighbours and take the
    colors its hub leaves them, and every edge between two parts is a core
    edge or an arm.  Only the facts `check_structure` checks on a pair
    with nothing to clean, no white and no black-black edge are used, so
    the lemma holds after any number of steps; cleaning, rewrites and
    forcing rules keep completability, and lifting takes any valid
    completion of the final pair back to g.

    Termination is audited: the (bad vertices, n, m) measure must drop
    lexicographically at every rewrite, and the number of rewrites may not
    exceed STEP_CAP_FACTOR * n^2.  The measure is counted whole once, at
    the first rewrite, and then carried through every step by `remeasure`.
    At the fixpoint, which a reduction reaches only when it never met a
    pair rigid once cleaned, a five-cycle component answers NO (see `_c5_component`);
    otherwise the final pair must be clean and keep the facts of
    `clean_pair_violation`, which the rules pre-empt, and either failing
    is a fault (AssertionError), never a NO.

    Up to the first cleaning or rewrite step, g and c are the ones passed
    in, and propagation colors c.  That step copies both, and it and every
    later step edit the copies in place, so g itself is never edited and
    an input that needs no step is returned as it is, with every index it
    built.
    """
    if c is None:
        c = PartialColoring()
    trace: list[RewriteStep] = []
    steps = 0
    cap = max(STEP_CAP_FACTOR * g.n * g.n, 16)
    wl = Worklist()
    owned = False
    # measure(g) from the first rewrite on
    measured: Optional[tuple[int, int, int]] = None
    while True:
        conflict = propagate(g, c, audit, wl)
        if conflict is not None:
            return ReduceResult(conflict, g, c, trace, steps)
        step = clean(g, c)
        rewriting = step is None
        if rewriting:
            if wl.rigid:
                return ReduceResult(None, g, c, trace, steps, read_decomposition(g, c))
            step = try_rewrite(g, c, wl)
            if step is None:
                comp = _c5_component(g)
                if comp is not None:
                    witness = Conflict("c5_component", min(comp), "", f"component {sorted(comp)} is a five-cycle")
                    return ReduceResult(witness, g, c, trace, steps)
                violation = clean_pair_violation(g)
                if violation is not None or not is_clean_pair(g, c, wl):
                    raise AssertionError(f"fixpoint is not a clean pair: {violation or 'is_clean_pair fails'}")
                return ReduceResult(None, g, c, trace, steps)
            if measured is None:
                measured = measure(g)
        if not owned:
            g, c, owned = g.copy(), c.copy(), True
        pre = (g.copy(), c.copy()) if audit else None
        before = measured
        if measured is None:
            step.make(g, c)
        else:
            measured = remeasure(measured, g, c, step)
        if rewriting:
            if not measured < before:
                raise AssertionError(
                    f"measure did not drop at {step.rule_id}: {before} -> {measured}"
                )
            steps += 1
            if steps > cap:
                raise AssertionError(f"rewrite budget exceeded: {steps} > {cap}")
            if audit:
                audit.on_rewrite(step, *pre, g, c)
        elif audit:
            audit.on_clean(*pre, g, c)
        trace.append(step)
        if wl.rigid:
            return ReduceResult(None, g, c, trace, steps, read_decomposition(g, c))
        wl.log.extend(step.changed)


def _lift_step(step: RewriteStep, colors: dict[int, str]) -> None:
    """Color the vertices step removed, given in colors a valid complete
    coloring of the graph after the step, its added vertices included.

    Validity is local, so only the removed vertices and the survivors the
    step touched are checked, on the graph before the step.  A touched
    survivor was valid after it, so its same-colored removed neighbours
    must number its same-colored ends of added edges less those of removed
    survivor edges.  Removed vertices colored when the step was made keep
    that color; the others take the first valid choice, ascending, BLACK
    before WHITE.  That choice is found by backtracking: each vertex is
    checked as soon as it and its neighbours in the step are colored.  A
    clean step colored all of them, so its lift only checks.
    """
    changed = step.changed
    # a set minus colors.keys() would walk every key of colors
    missing = {v for v in changed if v not in colors}
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

    free = [v for v in step.removed_vertices if step.removed_colors[v] is None]
    colors.update((v, col) for v, col in step.removed_colors.items() if col is not None)
    # due[i]: the vertices to check once free[:i] are colored
    rank = {v: i + 1 for i, v in enumerate(free)}
    due: list[list[int]] = [[] for _ in range(len(free) + 1)]
    for v in (*step.removed_vertices, *owed):
        due[max(rank.get(w, 0) for w in (v, *nbrs.get(v, ())))].append(v)

    def valid(v: int) -> bool:
        same = sum(colors[w] == colors[v] for w in nbrs.get(v, ()))
        return same == (owed[v] if v in owed else colors[v] == BLACK)

    def extend(i: int) -> bool:
        if not all(valid(v) for v in due[i]):
            return False
        if i == len(free):
            return True
        for col in (BLACK, WHITE):
            colors[free[i]] = col
            if extend(i + 1):
                return True
        return False

    if not extend(0):
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
