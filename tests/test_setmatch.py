from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

import dimatch.pipeline
from dimatch.coloring import BLACK, WHITE, PartialColoring, verify_complete
from dimatch.graph import Graph, complete, from_edges, star
from dimatch.oracle import GeneratorError, brute_dim, mixed_instance
from dimatch.pipeline import NO, solve
from dimatch.rewrite import reduce_to_irreducible
from dimatch.setmatch import (
    SetFamilyInstance,
    StructureViolation,
    assert_irreducible_structure,
    build_family,
    coloring_from_hit,
    decompose,
    solve_hitting,
)

from .util import brute_hitting, brute_maximal_cliques, membership_ok


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
    assert len(d.claws) == 1
    claw = d.claws[0]
    assert claw.center == 7 and claw.a2 == 10
    assert {claw.v, claw.u} == {1, 4}
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


def _claw_bridge_with(edges=(), colors=None) -> tuple[Graph, PartialColoring]:
    g, c = fig_claw_bridge()
    return from_edges(10, [*g.edges(), *edges]), PartialColoring(colors or c.state)


# one pair per reachable structure fact, with the text of its violation; a
# claw center's fourth neighbor is a degree-4 vertex outside every triangle
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
                     "non-claw component [4, 5] outside the triangles"),
    "long path": (from_edges(7, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (5, 6), (6, 7)]), PartialColoring(),
                  "component [4, 5, 6, 7] is not a claw"),
    "attached center": (*_claw_bridge_with(edges=[(7, 2)]), "degree-4 vertex 7 outside every triangle"),
    "white center": (*_claw_bridge_with(colors={7: WHITE}), "claw center 7 is not black"),
    "no tip": (*_claw_bridge_with(edges=[(10, 5)]), "claw [7, 8, 9, 10] lacks the one-pendant shape"),
    "colored tip": (*_claw_bridge_with(colors={7: BLACK, 10: WHITE}), "claw [7, 8, 9, 10] has a colored leaf"),
    "one triangle": (from_edges(7, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (4, 7), (5, 1), (6, 2)]),
                     PartialColoring({4: BLACK}), "claw [4, 5, 6, 7] anchored twice in one triangle"),
}


@pytest.mark.parametrize("name", sorted(REJECTING))
def test_decompose_raises_what_the_structure_check_reports(name):
    g, c, want = REJECTING[name]
    assert assert_irreducible_structure(g, c) == want
    with pytest.raises(StructureViolation) as err:
        decompose(g, c)
    assert str(err.value) == want


def test_a_structure_violation_answers_no_with_its_text(monkeypatch):
    def planted(g, c):
        raise StructureViolation("planted")

    monkeypatch.setattr(dimatch.pipeline, "decompose", planted)
    rep = solve(fig_claw_bridge()[0])
    assert rep.decision == NO and rep.witness == "irreducible structure: planted"


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
        if assert_irreducible_structure(g, c) is not None:
            continue
        d = decompose(g, c)
        sets = build_family(g, c, d).sets
        want = brute_maximal_cliques(g.subgraph(d.core)) | {frozenset((cl.v, cl.u, cl.a2)) for cl in d.claws}
        assert len(sets) == len(set(sets)) and set(sets) == want, (g.edges(), c)
        seen["pairs"] += 1
        tri_at = g.triangles_at()
        for a in sets:
            if not a <= d.core:
                seen["claw triple"] += 1
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
    claw = d.claws[0]
    if claw.a2 in chosen:
        assert colored.get(claw.a2) == BLACK


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
        if assert_irreducible_structure(g2, c2) is not None:
            continue
        seen += 1
        d = decompose(g2, c2)
        chosen = solve_hitting(build_family(g2, c2, d))
        assert (chosen is not None) == (brute_dim(g2, c2) is not None)
        if chosen is not None:
            assert verify_complete(g2, coloring_from_hit(g2, c2, d, chosen))
    assert seen > 10
