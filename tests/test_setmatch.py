from __future__ import annotations

import random

import pytest

from dimatch.coloring import BLACK, PartialColoring, verify_complete
from dimatch.graph import complete, from_edges
from dimatch.oracle import brute_dim, mixed_instance
from dimatch.rewrite import reduce_to_irreducible
from dimatch.setmatch import (
    SetFamilyInstance,
    assert_irreducible_structure,
    build_family,
    coloring_from_hit,
    decompose,
    solve_hitting,
)

from .util import brute_hitting, membership_ok


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
    assert d.triangle_vertices == frozenset({1, 2, 3, 4, 5, 6})
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
