from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import dimatch.pipeline
import dimatch.rules
import dimatch.setmatch
from dimatch.coloring import BLACK, WHITE, PartialColoring, verify_complete
from dimatch.graph import Graph, complete, cycle, from_edges, star
from dimatch.matching import solve_saturation
from dimatch.oracle import GeneratorError, brute_dim, mixed_instance
from dimatch.patterns import contains_s222
from dimatch.pipeline import solve
from dimatch.rewrite import lift_completion, reduce_to_irreducible
from dimatch.rules import Worklist
from dimatch.setmatch import (
    SetFamilyInstance,
    Star,
    StructureViolation,
    assert_irreducible_structure,
    build_family,
    coloring_from_hit,
    decompose,
    solve_hitting,
)

from .util import (
    PLANTED_HOSTS,
    all_completions,
    brute_hitting,
    brute_maximal_cliques,
    membership_ok,
    planted,
    reference_decomposition,
    reference_solve_hitting,
    without_rigid_exit,
)


def fig_claw_bridge():
    """A pendant claw bridging two disjoint triangles; irreducible shape."""
    edges = [
        (1, 2), (1, 3), (2, 3),      # triangle anchored at 1
        (4, 5), (4, 6), (5, 6),      # triangle anchored at 4
        (7, 8), (7, 9), (7, 10),     # claw centered at 7
        (8, 1), (9, 4),              # arms; 10 stays pendant
    ]
    return from_edges(10, edges), PartialColoring({7: BLACK})


def test_structure_accepts_empty_graph():
    assert assert_irreducible_structure(from_edges(0, []), PartialColoring()) is None


def test_structure_accepts_single_triangle():
    assert assert_irreducible_structure(complete(3), PartialColoring()) is None


def test_structure_accepts_degree_four_gadget():
    # r of degree 4 inside a triangle whose other two vertices have degree 2,
    # its outer neighbors anchored in their own triangles
    g = from_edges(9, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5),
                       (4, 6), (4, 7), (6, 7), (5, 8), (5, 9), (8, 9)])
    assert assert_irreducible_structure(g, PartialColoring()) is None


def test_structure_rejects_high_degree():
    # a hub of degree five above its leaves, so the walk down meets it first
    msg = assert_irreducible_structure(from_edges(6, [(6, v) for v in range(1, 6)]), PartialColoring())
    assert msg is not None and "degree" in msg


def test_structure_rejects_degree4_without_triangle():
    from dimatch.graph import star

    msg = assert_irreducible_structure(star(4), PartialColoring())
    assert msg is not None


def test_structure_accepts_claw_bridge_and_decomposes():
    g, c = fig_claw_bridge()
    assert assert_irreducible_structure(g, c) is None
    d = decompose(g, c)
    # the pendant tip 10 represents itself, the arms 8 and 9 their anchors
    assert d.stars == (Star(7, (8, 9, 10), (1, 4, 10)),)
    assert d.degree4_triangles == ()
    assert d.core == frozenset({1, 2, 3, 4, 5, 6})


def test_structure_rejects_claw_into_one_triangle():
    edges = [
        (1, 2), (1, 3), (2, 3),
        (4, 5), (4, 6), (4, 7),
        (5, 1), (6, 2),
    ]
    g = from_edges(7, edges)
    msg = assert_irreducible_structure(g, PartialColoring({4: BLACK}))
    assert msg is not None and "anchored twice" in msg


_TWO_TRIANGLES = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]


def _claw_bridge_with(edges=(), colors=None) -> tuple[Graph, PartialColoring]:
    g, c = fig_claw_bridge()
    return from_edges(10, [*g.edges(), *edges]), PartialColoring(colors or c.state)


# one pair per structure fact, with the text of its violation; the walk goes
# down from the greatest vertex, so each pair breaks its fact at a vertex
# above every other break.  A claw center's fourth neighbor is a degree-4
# vertex outside every triangle.  The walk skips what cleaning drops, so a
# white vertex or a matched black one breaks a fact only next to an
# uncolored vertex, and a pair the walk accepts with something left to
# clean is refused by `decompose` alone
REJECTING = {
    "high degree": (from_edges(6, [(6, v) for v in range(1, 6)]), PartialColoring(),
                    "vertex 6 has degree 5, above four"),
    "bowtie": (from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]), PartialColoring(),
               "vertex 1 lies in 2 triangles"),
    "isolated": (from_edges(4, [(1, 2), (1, 3), (2, 3)]), PartialColoring(), "isolated vertex 4"),
    "hub outside": (from_edges(5, [(5, 1), (5, 2), (5, 3), (5, 4)]), PartialColoring(),
                    "degree-4 vertex 5 outside every triangle"),
    "hub partners": (from_edges(6, [(4, 5), (4, 6), (5, 6), (6, 1), (6, 2), (5, 3)]), PartialColoring(),
                     "triangle of degree-4 vertex 6 has high-degree partners"),
    "black anchor": (from_edges(6, [*_TWO_TRIANGLES, (3, 6)]), PartialColoring({6: BLACK}),
                     "black triangle vertex 6 has degree 3"),
    "pendant path": (from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5)]), PartialColoring(),
                     "vertex 5 outside the triangles has 0 black neighbors"),
    "long path": (from_edges(9, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]),
                  PartialColoring({5: BLACK, 8: BLACK}), "star [7, 8, 9] has an arm outside the triangles"),
    "lone leaf": (from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5)]), PartialColoring({5: BLACK}),
                  "star center 5 has one leaf"),
    "black pair": (*_claw_bridge_with(colors={7: BLACK, 10: BLACK}),
                   "matched black vertex 7 has a neighbor 8 that is not white"),
    "matched arm": (*_claw_bridge_with(colors={7: BLACK, 8: BLACK}),
                    "matched black vertex 8 has a neighbor 1 that is not white"),
    "black triple": (from_edges(3, [(1, 3), (2, 3)]), PartialColoring({1: BLACK, 2: BLACK, 3: BLACK}),
                     "black vertex 3 has 2 black neighbors"),
    "white anchor": (*_claw_bridge_with(colors={7: BLACK, 3: WHITE}),
                     "white vertex 3 has a neighbor 1 that is not black"),
    "attached center": (*_claw_bridge_with(edges=[(7, 2)]), "degree-4 vertex 7 outside every triangle"),
    "path center attached": (from_edges(9, [*_TWO_TRIANGLES, (7, 8), (7, 9), (8, 1), (9, 4), (7, 2)]),
                             PartialColoring({7: BLACK}), "star center 7 has a neighbor in a triangle"),
    "white center": (from_edges(10, [*_TWO_TRIANGLES, (10, 7), (10, 8), (10, 9), (7, 1), (8, 4)]),
                     PartialColoring({10: WHITE}), "white vertex 10 has a neighbor 7 that is not black"),
    "two tips": (from_edges(10, [*_TWO_TRIANGLES, (7, 8), (7, 9), (7, 10), (8, 1)]), PartialColoring({7: BLACK}),
                 "star [7, 8, 9, 10] lacks the shape of arms and at most one pendant tip"),
    "thick leaf": (*_claw_bridge_with(edges=[(10, 2), (10, 5)]),
                   "star [7, 8, 9, 10] lacks the shape of arms and at most one pendant tip"),
    "no tip": (*_claw_bridge_with(edges=[(10, 5)]), "star [7, 8, 9, 10] anchored twice in one triangle"),
    "colored tip": (from_edges(10, [*_TWO_TRIANGLES, (10, 7), (10, 8), (10, 9), (7, 1), (8, 4)]),
                    PartialColoring({10: BLACK, 9: WHITE}), "cleaning would remove vertex 9"),
    "one triangle": (from_edges(7, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (4, 7), (5, 1), (6, 2)]),
                     PartialColoring({4: BLACK}), "star [4, 5, 6, 7] anchored twice in one triangle"),
}


@pytest.mark.parametrize("name", sorted(REJECTING))
def test_decompose_raises_what_the_structure_check_reports(name):
    g, c, want = REJECTING[name]
    assert assert_irreducible_structure(g, c) == want
    with pytest.raises(StructureViolation) as err:
        decompose(g, c)
    assert str(err.value) == want


def test_a_structure_violation_is_a_fault_not_a_no(monkeypatch):
    """A reduction that reaches its fixpoint leaves only pairs with the
    structure, so a break there is raised out of `solve` instead of
    answered as a NO.  With the rigid exit, the claw bridge ends rigid
    and the pipeline does not decompose it again."""
    def planted(g, c):
        raise StructureViolation("planted")

    monkeypatch.setattr(dimatch.pipeline, "decompose", planted)
    assert solve(fig_claw_bridge()[0]).is_yes
    without_rigid_exit(monkeypatch)
    with pytest.raises(StructureViolation, match="planted"):
        solve(fig_claw_bridge()[0])



def test_decompose_reads_the_reference_decomposition_on_the_planted_corpus():
    """On the irreducible pairs of the planted corpus (`PLANTED_HOSTS` in
    random gadget context), decompose returns the stars, in order, the
    degree-four triangles, the core and the candidates that a reading of
    `g.subgraph(outside).components()` gives, and the family's hitting set
    is the reference matcher's."""
    pairs = stars = hubs = 0
    for _, host, colors in PLANTED_HOSTS:
        for seed in range(100):
            h = planted(host, colors, seed)
            if contains_s222(h) is not None:
                continue
            for comp in h.components():
                rr = reduce_to_irreducible(h.subgraph(comp), PartialColoring())
                if rr.is_refuted:
                    continue
                g, c = rr.graph, rr.coloring
                d = decompose(g, c)
                assert d == reference_decomposition(g, c), (h.edges(), sorted(comp))
                family = build_family(g, c, d)
                assert solve_hitting(family) == reference_solve_hitting(family)
                pairs += 1
                stars += len(d.stars)
                hubs += len(d.degree4_triangles)
    assert pairs > 2000 and stars > 100 and hubs > 0, (pairs, stars, hubs)

# long-claw-free graphs with a DIM whose irreducible pair keeps a path a1-x-a3
# outside the triangles: a black center of degree two, its arms anchored in
# distinct triangles.  A claw-only reading refused that star as a NO.  The
# pair of 11 is reached by cleaning the whites 10 and 11 off the center and
# off black triangle vertices
TWO_ARM_STARS = {
    9: [(1, 2), (1, 5), (2, 3), (3, 4), (3, 6), (3, 7), (4, 5), (4, 8), (4, 9), (6, 7), (8, 9)],
    11: [(1, 2), (1, 5), (1, 10), (1, 11), (2, 3), (3, 4), (3, 6), (3, 7), (4, 5), (4, 8), (4, 9),
         (6, 7), (6, 11), (8, 9), (8, 10)],
    12: [(1, 2), (1, 5), (1, 8), (2, 3), (3, 4), (3, 6), (3, 7), (4, 5), (4, 11), (4, 12), (6, 7),
         (8, 9), (9, 10), (11, 12)],
}


@pytest.mark.parametrize("n", sorted(TWO_ARM_STARS))
def test_a_star_of_two_arms_is_solved_as_the_oracle_answers(n):
    g = from_edges(n, TWO_ARM_STARS[n])
    assert contains_s222(g) is None and brute_dim(g) is not None
    rr = reduce_to_irreducible(g)
    stars = decompose(rr.graph, rr.coloring).stars
    assert any(len(s.leaves) == 2 and not set(s.leaves) & set(s.reps) for s in stars)
    rep = solve(g)
    assert rep.is_yes and verify_complete(g, rep.certificate)


# stars bridging triangles 1-2-3, 4-5-6 and 7-8-9 from a black center 10
STAR_PAIRS = {
    "three arms": ([(10, 11), (10, 12), (10, 13), (11, 1), (12, 4), (13, 7)], Star(10, (11, 12, 13), (1, 4, 7))),
    "two arms": ([(10, 11), (10, 12), (11, 1), (12, 4)], Star(10, (11, 12), (1, 4))),
    "arm and tip": ([(10, 11), (10, 12), (11, 1)], Star(10, (11, 12), (1, 12))),
}


@pytest.mark.parametrize("name", sorted(STAR_PAIRS))
def test_a_star_expands_its_hits_to_exactly_the_completions(name):
    """The star's set is its representatives, and the exact hitting sets of
    the family expand to exactly the completions brute force finds."""
    edges, star = STAR_PAIRS[name]
    triangles = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (7, 8), (7, 9), (8, 9)]
    g = from_edges(max(v for e in edges for v in e), triangles + edges)
    c = PartialColoring({10: BLACK})
    d = decompose(g, c)
    assert d.stars == (star,)
    inst = build_family(g, c, d)
    assert frozenset(star.reps) in inst.sets
    hits = [frozenset(h) for k in range(len(inst.elements) + 1) for h in combinations(inst.elements, k)
            if all(len(a.intersection(h)) == 1 for a in inst.sets)]
    expanded = {frozenset(coloring_from_hit(g, c, d, h).state.items()) for h in hits}
    assert expanded == {frozenset(full.state.items()) for full in all_completions(g, c)}
    assert (brute_dim(g, c) is not None) == bool(hits)


def _random_rigid_pair(rng: random.Random) -> tuple[Graph, PartialColoring]:
    """A pair built from the parts of the rigid structure, with no forcing
    rule or rewrite: triangles, some a degree-four gadget (a hub with two
    outside edges, its partners of degree two) or with a black vertex of
    degree two, then stars of two or three leaves around a black center,
    at most one leaf a pendant tip and the arms anchored in distinct
    triangles, then core edges between the triangle vertices left free.
    At most 20 vertices; `decompose` may still refuse it, when a core edge
    closes a triangle at a hub."""
    edges, colors, slots = [], {}, []
    triangles = rng.randint(1, 5)
    for t in range(triangles):
        a, b, c = 3 * t + 1, 3 * t + 2, 3 * t + 3
        edges += [(a, b), (a, c), (b, c)]
        kind = rng.random()
        if kind < 0.2:
            slots += [(a, t), (a, t)]
        elif kind < 0.4:
            colors[c] = BLACK
            slots += [(a, t), (b, t)]
        else:
            slots += [(a, t), (b, t), (c, t)]
    rng.shuffle(slots)
    nxt = 3 * triangles + 1
    for _ in range(rng.randint(0, 3)):
        leaves = rng.choice((2, 3))
        if nxt + leaves > 20:
            break
        x, nxt = nxt, nxt + 1
        colors[x] = BLACK
        anchored: set[int] = set()
        for i in range(leaves):
            free = [k for k, (_, t) in enumerate(slots) if t not in anchored]
            if free and not (i == 0 and rng.random() < 0.4):
                r, t = slots.pop(free[0])
                anchored.add(t)
                edges += [(x, nxt), (nxt, r)]
            elif len(anchored) == i:
                # the star's one pendant tip: every leaf so far is an arm
                edges.append((x, nxt))
            else:
                break
            nxt += 1
    while len(slots) >= 2 and rng.random() < 0.9:
        (u, t), (w, s) = slots.pop(), slots.pop()
        if t != s and u != w and (min(u, w), max(u, w)) not in edges:
            edges.append((min(u, w), max(u, w)))
    return Graph(range(1, nxt), edges), PartialColoring(colors)


def test_exact_hitting_decides_every_rigid_pair():
    """The lemma behind the rigid exit, checked without the rules: on
    random rigid pairs of at most 20 vertices, the family has an exact
    hitting set exactly when brute force extends the coloring, and every
    hitting set found expands to a complete coloring that verifies."""
    rng = random.Random(34)
    decided = Counter()
    for _ in range(3000):
        g, c = _random_rigid_pair(rng)
        try:
            d = decompose(g, c)
        except StructureViolation:
            decided["refused"] += 1
            continue
        chosen = solve_hitting(build_family(g, c, d))
        assert (chosen is not None) == (brute_dim(g, c) is not None), (g.edges(), c.state)
        if chosen is not None:
            assert verify_complete(g, coloring_from_hit(g, c, d, chosen)), (g.edges(), c.state)
        decided[chosen is not None] += 1
        decided["stars"] += len(d.stars) > 0
        decided["hubs"] += len(d.degree4_triangles) > 0
    assert decided[True] + decided[False] >= 2500 and decided[False] >= 200, decided
    assert decided["stars"] >= 1500 and decided["hubs"] >= 500, decided


def _cleaned(g: Graph, c: PartialColoring) -> tuple[Graph, PartialColoring]:
    """The pair cleaning leaves, cut without `clean`: the vertices that are
    uncolored, or black with no black neighbour."""
    keep = [v for v in g.vertices
            if c.get(v) is None or c.get(v) == BLACK and not any(c.get(w) == BLACK for w in g.neighbors(v))]
    return g.subgraph(keep), PartialColoring({v: c.get(v) for v in keep if c.get(v) is not None})


def _hung_pair(rng: random.Random) -> tuple[Graph, PartialColoring]:
    """A pair of `_random_rigid_pair` with matched black pairs and white
    vertices hung on it, at a basic fixpoint and without a conflict: each
    new white is joined only to black vertices, old or new, and each new
    black pair only to its partner and to new whites.  So every neighbour
    of a white is black, a matched pair's other neighbours are white, and
    an old black keeps its uncolored neighbours.  At most 24 vertices."""
    g, c = _random_rigid_pair(rng)
    edges, colors, nxt = g.edges(), dict(c.state), g.n + 1
    blacks = sorted(v for v, col in colors.items() if col == BLACK)
    for _ in range(rng.randint(0, 2)):
        if nxt + 1 > 24:
            break
        edges.append((nxt, nxt + 1))
        colors[nxt] = colors[nxt + 1] = BLACK
        blacks += [nxt, nxt + 1]
        nxt += 2
    for _ in range(rng.randint(0, 3)):
        if nxt > 24 or not blacks:
            break
        colors[nxt] = WHITE
        edges += [(x, nxt) for x in rng.sample(blacks, min(len(blacks), rng.randint(1, 3)))]
        nxt += 1
    return Graph(range(1, nxt), edges), PartialColoring(colors)


def test_exact_hitting_decides_every_pair_rigid_once_cleaned():
    """The lemma through cleaning, checked without the catalog: on the
    pairs of `_hung_pair` that the rigidity test accepts, the reduction
    ends at once, with no step but one cleaning step when there is
    something to clean, on the pair `_cleaned` cuts, and with the
    decomposition `decompose` reads there.  The family then has an exact
    hitting set exactly when brute force extends the coloring on the pair
    before cleaning, and a hitting set found lifts to a complete coloring
    of it that verifies."""
    rng = random.Random(35)
    decided = Counter()
    for _ in range(3000):
        g, c = _hung_pair(rng)
        if not dimatch.rules.rigid_pair(g, c, Worklist()):
            decided["refused"] += 1
            continue
        cg, cc = _cleaned(g, c)
        rr = reduce_to_irreducible(g, c.copy())
        assert not rr.is_refuted and rr.rewrite_steps == 0, (g.edges(), c.state)
        assert [s.rule_id for s in rr.trace] == ["clean"] * (cg.n < g.n), (g.edges(), c.state)
        assert rr.graph == cg and rr.coloring == cc, (g.edges(), c.state)
        assert rr.decomposition == decompose(cg, cc), (g.edges(), c.state)
        chosen = solve_hitting(build_family(cg, cc, rr.decomposition))
        assert (chosen is not None) == (brute_dim(g, c) is not None), (g.edges(), c.state)
        if chosen is not None:
            full = lift_completion(rr.trace, coloring_from_hit(cg, cc, rr.decomposition, chosen))
            assert verify_complete(g, full), (g.edges(), c.state)
        decided[chosen is not None] += 1
        decided["cleaned"] += cg.n < g.n
    assert decided[True] + decided[False] >= 2500 and decided[False] >= 200, decided
    assert decided["cleaned"] >= 2000, decided


def test_a_white_tip_is_read_once_cleaned():
    """A black center with two arms and a white pendant tip is rigid once
    the tip is cleaned off: the rigidity test accepts it, `decompose`
    refuses it as it stands, and the reduction cleans the tip and reads
    the two-arm star."""
    g, c, _ = REJECTING["colored tip"]
    assert dimatch.rules.rigid_pair(g, c, Worklist())
    rr = reduce_to_irreducible(g, c.copy())
    assert [s.removed_vertices for s in rr.trace] == [(9,)]
    assert rr.decomposition.stars == (Star(10, (7, 8), (1, 4)),)
    assert rr.decomposition == decompose(*_cleaned(g, c))


def test_solving_the_claw_bridge_cuts_one_subgraph(monkeypatch):
    """The structure check and the decomposition share one walk, and the
    set family reads the triangles, so the outside graph is the only
    subgraph a solve cuts."""
    calls = []
    cut = Graph.subgraph

    def counted(self, *args, **kwargs):
        calls.append(self.n)
        return cut(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "subgraph", counted)
    assert solve(fig_claw_bridge()[0]).is_yes
    assert len(calls) == 1


def test_a_refused_rigidity_test_cuts_no_subgraph(monkeypatch):
    """Reducing cycle(3k) tests rigidity once per propagation round and is
    refused until the triangle it contracts to, whose accepted test cuts
    the one subgraph; cycle(3k + 1) ends in a conflict and cuts none."""
    calls, tests = [], []
    cut, rigid = Graph.subgraph, dimatch.rules.rigid_pair

    def counted(self, *args, **kwargs):
        calls.append(self.n)
        return cut(self, *args, **kwargs)

    def tested(g, c, wl):
        tests.append(g.n)
        return rigid(g, c, wl)

    monkeypatch.setattr(Graph, "subgraph", counted)
    monkeypatch.setattr(dimatch.rules, "rigid_pair", tested)
    for n, cuts in ((30, [3]), (31, [])):
        calls.clear()
        tests.clear()
        rr = reduce_to_irreducible(cycle(n))
        assert calls == cuts and len(tests) >= 9, (n, calls, tests)
        assert (rr.decomposition is not None) == bool(cuts)


# -- family construction ------------------------------------------------------


def test_family_single_triangle():
    g = complete(3)
    c = PartialColoring()
    d = decompose(g, c)
    inst = build_family(g, c, d)
    assert inst.sets == (frozenset({1, 2, 3}),)


def test_family_claw_bridge():
    g, c = fig_claw_bridge()
    d = decompose(g, c)
    inst = build_family(g, c, d)
    assert frozenset({1, 4, 10}) in inst.sets      # anchors plus pendant tip
    assert frozenset({1, 2, 3}) in inst.sets
    assert frozenset({4, 5, 6}) in inst.sets
    assert membership_ok(inst)


def test_family_empty_graph():
    g = from_edges(0, [])
    c = PartialColoring()
    inst = build_family(g, c, decompose(g, c))
    assert inst.sets == ()
    assert solve_hitting(inst) == frozenset()


def _irreducible_pairs(workloads):
    """The irreducible pairs the reduction reaches on seeded mixed
    instances and on triangle-claw networks of 4, 16 and 64 triangles."""
    graphs = []
    for n in range(7, 23):
        for seed in range(20):
            try:
                graphs.append(mixed_instance(n, seed))
            except GeneratorError:
                pass
    for triangles in (4, 16, 64):
        n, edges, _ = workloads.clawnet_edges(triangles, random.Random(triangles))
        graphs.append(Graph(range(1, n + 1), edges))
    for g in graphs:
        rr = reduce_to_irreducible(g)
        if not rr.is_refuted:
            yield rr.graph, rr.coloring


def test_family_is_the_core_cliques_plus_the_claw_triples(monkeypatch):
    """`build_family` reads the cliques off the triangles; they must be the
    maximal cliques of two or more vertices of the graph the core induces."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    seen = Counter()
    for g, c in _irreducible_pairs(workloads):
        d = decompose(g, c)
        sets = build_family(g, c, d).sets
        star_sets = {frozenset(s.reps) for s in d.stars}
        want = brute_maximal_cliques(g.subgraph(d.core)) | star_sets
        assert len(sets) == len(set(sets)) and set(sets) == want, (g.edges(), c)
        seen["pairs"] += 1
        tri_at = g.triangles_at()
        for a in sets:
            if a in star_sets:
                seen["star set"] += 1
            elif len({tri_at[v][0] for v in a}) == 2:
                seen["edge between triangles"] += 1
            else:
                seen[f"{len(a)} of a triangle"] += 1
    # every kind of set is met
    assert seen["pairs"] > 100 and len(seen) == 5, seen


# -- hitting -------------------------------------------------------------------


def test_hitting_shared_element():
    inst = SetFamilyInstance((1, 2, 3), (frozenset({1, 2}), frozenset({1, 3})))
    got = solve_hitting(inst)
    assert got == frozenset({1})


def test_hitting_triangle_of_sets_infeasible():
    # three sets pairwise sharing distinct elements, every element shared:
    # the intersection graph is K3 and cannot saturate all three
    inst = SetFamilyInstance(
        (1, 2, 3),
        (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})),
    )
    assert not brute_hitting(inst.elements, inst.sets)
    assert solve_hitting(inst) is None


def test_hitting_two_disjoint_sets():
    inst = SetFamilyInstance((1, 2, 3, 4), (frozenset({1, 2}), frozenset({3, 4})))
    got = solve_hitting(inst)
    assert got is not None and len(got & {1, 2}) == 1 and len(got & {3, 4}) == 1


def test_hitting_rejects_element_in_three_sets():
    # element 2 lies in three sets; thinning {1,2} & {1,2} to one element
    # must not hide that from the membership check
    inst = SetFamilyInstance(
        (1, 2, 3),
        (frozenset({1, 2}), frozenset({1, 2}), frozenset({2, 3})),
    )
    with pytest.raises(ValueError, match="more than two sets"):
        solve_hitting(inst)


def _random_instance(rng: random.Random, max_elems: int = 12):
    elems = list(range(1, rng.randint(2, max_elems) + 1))
    budget = {e: 2 for e in elems}
    sets = []
    for _ in range(rng.randint(1, 6)):
        size = rng.choice((2, 3))
        avail = [e for e in elems if budget[e] > 0]
        if len(avail) < size:
            break
        chosen = rng.sample(avail, size)
        for e in chosen:
            budget[e] -= 1
        sets.append(frozenset(chosen))
    return SetFamilyInstance(tuple(elems), tuple(sets))


def test_hitting_matches_brute_force_randomized():
    rng = random.Random(2)
    for _ in range(800):
        inst = _random_instance(rng)
        if not membership_ok(inst):
            continue
        got = solve_hitting(inst)
        want = brute_hitting(inst.elements, inst.sets)
        assert (got is not None) == want, inst
        if got is not None:
            for a in inst.sets:
                assert len(a & got) == 1



def test_hitting_chooses_what_the_reference_matcher_makes_it_choose():
    """On random families of up to 40 sets, each element in at most two,
    solve_hitting returns the very set, or the same None, as the copy that
    built the intersection graph as a `Graph` and matched it with the
    matcher that allocated its arrays per search."""
    rng = random.Random(30)
    kinds = Counter()
    for _ in range(400):
        elems = list(range(1, rng.randint(4, 30) + 1))
        budget = dict.fromkeys(elems, 2)
        sets = []
        for _ in range(rng.randint(1, 40)):
            avail = [e for e in elems if budget[e] > 0]
            size = rng.choice((2, 3))
            if len(avail) < size:
                break
            chosen = rng.sample(avail, size)
            for e in chosen:
                budget[e] -= 1
            sets.append(frozenset(chosen))
        inst = SetFamilyInstance(tuple(elems), tuple(sets))
        got = solve_hitting(inst)
        assert got == reference_solve_hitting(inst), inst
        kinds["none" if got is None else "hit"] += 1
    assert min(kinds.values()) > 50, kinds


def test_hitting_matches_through_solve_saturation(monkeypatch):
    """solve_hitting reaches the matcher through the name
    `dimatch.setmatch.solve_saturation`, which bench/spans.py rebinds to
    time the matching layer, and asks it to saturate exactly the sets
    without a private element."""
    calls = []

    def spy(adj, required):
        calls.append((adj, list(required)))
        return solve_saturation(adj, required)

    monkeypatch.setattr(dimatch.setmatch, "solve_saturation", spy)
    inst = SetFamilyInstance((1, 2, 3, 4), (frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})))
    assert solve_hitting(inst) == frozenset({2, 4})
    assert calls == [([[1], [0, 2], [1]], [1])]

# -- hit set to coloring -------------------------------------------------------


def test_coloring_from_hit_single_triangle():
    g = complete(3)
    c = PartialColoring()
    d = decompose(g, c)
    chosen = solve_hitting(build_family(g, c, d))
    colored = coloring_from_hit(g, c, d, chosen)
    assert verify_complete(g, colored)
    assert sum(1 for v in g.vertices if colored.get(v) == BLACK) == 2


def test_coloring_from_hit_claw_bridge():
    g, c = fig_claw_bridge()
    d = decompose(g, c)
    chosen = solve_hitting(build_family(g, c, d))
    assert chosen is not None
    colored = coloring_from_hit(g, c, d, chosen)
    assert verify_complete(g, colored)
    # the center's black partner is the leaf whose representative was chosen
    (star,) = d.stars
    assert [colored.get(a) for a in star.leaves] == [BLACK if r in chosen else WHITE for r in star.reps]


def test_irreducible_roundtrip_on_pipeline_corpus():
    # completability of the irreducible pair must coincide with the
    # solvability of its hitting instance
    rng = random.Random(5)
    seen = 0
    for _ in range(400):
        n = rng.randint(6, 13)
        g = mixed_instance(n, rng.randrange(1 << 30))
        rr = reduce_to_irreducible(g)
        if rr.is_refuted or rr.graph.n == 0:
            continue
        g2, c2 = rr.graph, rr.coloring
        seen += 1
        d = decompose(g2, c2)
        chosen = solve_hitting(build_family(g2, c2, d))
        assert (chosen is not None) == (brute_dim(g2, c2) is not None)
        if chosen is not None:
            assert verify_complete(g2, coloring_from_hit(g2, c2, d, chosen))
    assert seen > 10
