from __future__ import annotations

import dataclasses
import random

import dimatch.rewrite as rw
import dimatch.rules as rl
from dimatch.coloring import BLACK, WHITE
from dimatch.graph import Graph, complete, cycle, from_edges, path, star
from dimatch.patterns import (
    LONG_CLAW,
    MUST_BLACK,
    Pattern,
    brute_force_find_all,
    contains_s222,
    find_induced,
    pattern,
)
from dimatch.rules import (
    P_ANCHORED_PENTAGON,
    P_HAT_PENTAGON,
    P_HOUSE,
    P_TRIANGLE_TAIL,
)

from .util import decorate


def test_find_induced_c4_pattern():
    p = pattern("square", "a b c d", "a-b b-c c-d d-a", degree={r: (2, 2) for r in "abcd"})
    emb = find_induced(cycle(4), p)
    assert emb is not None
    assert emb.image() == frozenset({1, 2, 3, 4})


def test_claw_not_in_triangle():
    claw = pattern("claw", "c x y z", "c-x c-y c-z")
    assert find_induced(complete(3), claw) is None
    assert find_induced(star(3), claw) is not None


def test_degree_constrained_path_matches_interior():
    # on a path a-b-c-d only the two interior vertices have degree two
    p4 = pattern("p4", "v1 v2 v3 v4", "v1-v2 v2-v3 v3-v4", degree={"v3": (2, 2)})
    host = path(4)
    found = {m["v3"] for m in brute_force_find_all(host, p4)}
    assert found == {2, 3}
    emb = find_induced(host, p4)
    assert emb is not None and emb["v3"] in (2, 3)


def test_matcher_agrees_with_brute_force_on_random_hosts():
    rng = random.Random(5)
    patterns = [
        P_TRIANGLE_TAIL,
        P_HOUSE,
        P_HAT_PENTAGON,
        P_ANCHORED_PENTAGON,
        LONG_CLAW,
    ]
    for trial in range(120):
        n = rng.randint(4, 8)
        slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = [e for e in slots if rng.random() < 0.4]
        g = from_edges(n, edges)
        for p in patterns:
            canon = lambda ms: sorted(tuple(sorted(m.items())) for m in ms)
            fast = canon(dict(e.assignment) for e in p.find_all(g))
            slow = canon(brute_force_find_all(g, p))
            assert fast == slow, (p.name, edges)


def test_matcher_is_deterministic_and_canonical():
    host = cycle(6)
    p = pattern("p3", "a b c", "a-b b-c")
    first = find_induced(host, p)
    again = find_induced(host, p)
    assert first is not None and first.assignment == again.assignment


def test_exclude_vertices():
    p = pattern("edge", "a b", "a-b")
    g = path(3)
    emb = find_induced(g, p, exclude={1})
    assert emb is not None and 1 not in emb.image()


def test_contains_s222_on_the_long_claw_itself():
    g = from_edges(7, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7)])
    emb = contains_s222(g)
    assert emb is not None
    assert emb["c"] == 1


def test_contains_s222_small_graphs_are_free():
    for n in range(1, 7):
        assert contains_s222(complete(n) if n > 2 else path(n)) is None
    assert contains_s222(cycle(6)) is None


def test_contains_s222_star_is_free():
    # K_{1,6} has no two-edge paths hanging off the hub
    assert contains_s222(star(6)) is None
    for m in brute_force_find_all(star(6), LONG_CLAW):
        raise AssertionError(f"unexpected embedding {m}")


def test_contains_s222_agrees_with_generic_matcher():
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(7, 12)
        slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = [e for e in slots if rng.random() < rng.choice((0.15, 0.3))]
        g = from_edges(n, edges)
        fast = contains_s222(g)
        slow = LONG_CLAW.find(g)
        assert (fast is None) == (slow is None), edges
        if fast is not None:
            amap = fast.assignment
            c = amap["c"]
            for i in "123":
                assert g.has_edge(c, amap[f"a{i}"])
                assert g.has_edge(amap[f"a{i}"], amap[f"b{i}"])
            seven = list(amap.values())
            assert len(set(seven)) == 7
            required = {
                (min(c, amap[f"a{i}"]), max(c, amap[f"a{i}"])) for i in "123"
            } | {
                (min(amap[f"a{i}"], amap[f"b{i}"]), max(amap[f"a{i}"], amap[f"b{i}"]))
                for i in "123"
            }
            for u in seven:
                for v in seven:
                    if u < v and g.has_edge(u, v):
                        assert (u, v) in required


def _catalog() -> list[Pattern]:
    """Every declarative pattern of the forcing rules and the rewrites."""
    return [
        obj
        for mod in (rl, rw)
        for name in dir(mod)
        if isinstance(obj := getattr(mod, name), Pattern)
    ]


def test_full_catalog_matcher_agrees_with_brute_force():
    """Every declarative pattern in the rule catalogs agrees with the
    reference matcher, including degree, closure and color constraints."""
    catalog = _catalog()
    assert len(catalog) >= 25
    rng = random.Random(31)
    for trial in range(40):
        n = rng.randint(5, 8)
        slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = from_edges(n, [e for e in slots if rng.random() < 0.35])
        colors = {}
        for v in g.vertices:
            r = rng.random()
            if r < 0.2:
                colors[v] = BLACK
            elif r < 0.3:
                colors[v] = WHITE
        for p in catalog:
            # the permutation oracle is factorial; keep it honest but quick
            if len(p.roles) > n or len(p.roles) > 7 or (n == 8 and len(p.roles) > 6):
                continue
            canon = lambda ms: sorted(tuple(sorted(m.items())) for m in ms)
            fast = canon(dict(e.assignment) for e in p.find_all(g, colors))
            slow = canon(brute_force_find_all(g, p, colors))
            assert fast == slow, (p.name, g.edges(), colors)
    # the bigger patterns get one exact-size host each: the pattern must
    # find itself when planted verbatim
    for p in catalog:
        if not (7 < len(p.roles) <= 13) or p.color or p.degree:
            continue
        roles = list(p.roles)
        ids = {r: i + 1 for i, r in enumerate(roles)}
        host = Graph(ids.values(), [(ids[a], ids[b]) for a, b in p.required])
        assert p.find(host) is not None, p.name


def test_large_closure_patterns_equal_filtered_open_patterns():
    """Closure patterns with more than seven roles are beyond the
    permutation oracle.  Planted in decorated hosts, each must yield, in
    the same order, exactly the embeddings of its closure-free twin that
    pass the closure condition."""
    big = [p for p in _catalog() if p.closure and len(p.roles) > 7]
    assert {
        "prune_fan5", "prune_fan4", "fold_fan5", "fold_fan4", "fold_fan_leaf",
        "fold_twin_spiders", "fold_hub", "prune_double_house",
    } <= {p.name for p in big}
    rng = random.Random(43)
    kept = dropped = 0
    for p in big:
        open_twin = dataclasses.replace(p, closure=frozenset())
        ids = {r: i + 1 for i, r in enumerate(p.roles)}
        for seed in range(40):
            edges = [(ids[a], ids[b]) for a, b in p.required]
            edges += [(ids[a], ids[b]) for a, b in p.optional if rng.random() < 0.5]
            host = decorate(Graph(ids.values(), edges), seed)
            colors = {ids[r]: BLACK for r, want in p.color.items() if want == MUST_BLACK}
            for v in host.vertices:
                if v not in colors and rng.random() < 0.1:
                    colors[v] = rng.choice((BLACK, WHITE))
            want = []
            for e in open_twin.find_all(host, colors):
                if all(host.neighbors(e[r]) <= e.image() for r in p.closure):
                    want.append(e.assignment)
                else:
                    dropped += 1
            got = [e.assignment for e in p.find_all(host, colors)]
            assert got == want, (p.name, seed, host.edges(), colors)
            kept += len(got)
    assert kept > 0 and dropped > 0, (kept, dropped)
