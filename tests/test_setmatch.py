from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import dimatch.pipeline
import dimatch.setmatch
from dimatch.coloring import BLACK, WHITE, PartialColoring, verify_complete
from dimatch.graph import Graph, complete, from_edges, star
from dimatch.matching import solve_saturation
from dimatch.oracle import GeneratorError, brute_dim, mixed_instance
from dimatch.patterns import contains_s222
from dimatch.pipeline import solve
from dimatch.rewrite import reduce_to_irreducible
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
    from dimatch.graph import star

    msg = assert_irreducible_structure(star(5), PartialColoring())
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


# one pair per structure fact, with the text of its violation; a claw
# center's fourth neighbor is a degree-4 vertex outside every triangle
REJECTING = {
    "high degree": (star(5), PartialColoring(), "maximum degree 5 exceeds four"),
    "bowtie": (from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]), PartialColoring(),
               "vertex 1 lies in 2 triangles"),
    "isolated": (from_edges(4, [(1, 2), (1, 3), (2, 3)]), PartialColoring(), "isolated vertex 4"),
    "hub outside": (star(4), PartialColoring(), "degree-4 vertex 1 outside every triangle"),
    "hub partners": (from_edges(6, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (2, 6)]), PartialColoring(),
                     "triangle of degree-4 vertex 1 has high-degree partners"),
    "black anchor": (*_claw_bridge_with(colors={7: BLACK, 1: BLACK}), "black triangle vertex 1 has degree 3"),
    "pendant path": (from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5)]), PartialColoring(),
                     "component [4, 5] outside the triangles is not a star of 2 or 3 leaves"),
    "long path": (from_edges(7, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (5, 6), (6, 7)]), PartialColoring(),
                  "component [4, 5, 6, 7] outside the triangles is not a star of 2 or 3 leaves"),
    "attached center": (*_claw_bridge_with(edges=[(7, 2)]), "degree-4 vertex 7 outside every triangle"),
    "path center attached": (from_edges(9, [*_TWO_TRIANGLES, (7, 8), (7, 9), (8, 1), (9, 4), (7, 2)]),
                             PartialColoring({7: BLACK}), "star center 7 has a neighbor in a triangle"),
    "white center": (*_claw_bridge_with(colors={7: WHITE}), "star center 7 is not black"),
    "two tips": (from_edges(10, [*_TWO_TRIANGLES, (7, 8), (7, 9), (7, 10), (8, 1)]), PartialColoring({7: BLACK}),
                 "star [7, 8, 9, 10] lacks the shape of arms and at most one pendant tip"),
    "thick leaf": (*_claw_bridge_with(edges=[(10, 2), (10, 5)]),
                   "star [7, 8, 9, 10] lacks the shape of arms and at most one pendant tip"),
    "no tip": (*_claw_bridge_with(edges=[(10, 5)]), "star [7, 8, 9, 10] anchored twice in one triangle"),
    "colored tip": (*_claw_bridge_with(colors={7: BLACK, 10: WHITE}), "star [7, 8, 9, 10] has a colored leaf"),
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
    """The reduction leaves only pairs with the structure, so a break is
    raised out of `solve` instead of answered as a NO."""
    def planted(g, c):
        raise StructureViolation("planted")

    monkeypatch.setattr(dimatch.pipeline, "decompose", planted)
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
# distinct triangles.  A claw-only reading refused that star as a NO.
TWO_ARM_STARS = {
    9: [(1, 2), (1, 5), (2, 3), (3, 4), (3, 6), (3, 7), (4, 5), (4, 8), (4, 9), (6, 7), (8, 9)],
    11: [(1, 2), (1, 5), (1, 6), (1, 7), (2, 3), (2, 9), (2, 10), (3, 4), (4, 5), (4, 8), (4, 11),
         (6, 7), (9, 10)],
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
