from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dimatch.rewrite
import dimatch.rules
from dimatch.graph import (
    Graph,
    GraphFormatError,
    complete,
    cycle,
    from_edges,
    load_graph,
    path,
    save_graph,
    star,
)

from .util import all_graphs, fresh_degree_counts, parser_text, random_host, rewrite_chain


def test_load_c4():
    g = load_graph("4 4\n1 2\n2 3\n3 4\n1 4\n")
    assert g.n == 4 and g.m == 4
    assert g.edges() == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_load_k1():
    g = load_graph("1 0\n")
    assert g.n == 1 and g.m == 0


def test_load_k3_degrees():
    g = load_graph("3 3\n1 2\n2 3\n1 3\n")
    assert g.n == 3
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_load_comments_blank_lines_and_duplicates():
    g = load_graph("# a triangle\n3 3\n\n1 2\n2 3 # chord\n1 3\n")
    assert g.m == 3


# (text, message, line): every GraphFormatError load_graph raises
FORMAT_ERRORS = {
    "header with one token": ("3\n", "expected header 'n m'", 1),
    "header with three tokens": ("# c\n3 1 1\n1 2\n", "expected header 'n m'", 2),
    "non-integer header": ("3 x\n", "header values must be integers", 1),
    "negative vertex count": ("-3 0\n", "header values must be nonnegative", 1),
    "negative edge count": ("3 -1\n", "header values must be nonnegative", 1),
    "edge with one token": ("3 1\n1\n", "expected edge 'u v'", 2),
    "edge with three tokens": ("3 1\n1 2 3\n", "expected edge 'u v'", 2),
    "non-integer endpoint": ("3 1\n1 b\n", "edge endpoints must be integers", 2),
    "endpoint above n": ("3 1\n1 4\n", "vertex out of range 1..3", 2),
    "endpoint zero": ("3 2\n1 2\n0 3\n", "vertex out of range 1..3", 3),
    "self-loop": ("3 1\n\n2 2\n", "self-loops are not allowed", 3),
    "repeated edge": ("3 2\n1 2\n1 2\n", "edge 1 2 listed twice", 3),
    "repeated edge reversed": ("3 3\n2 3\n# again\n3 2\n1 2\n", "edge 2 3 listed twice", 4),
    "fewer edges than announced": ("3 2\n1 2\n", "header announces 2 edges, found 1", None),
    "more edges than announced": ("3 1\n1 2\n2 3\n", "header announces 1 edges, found 2", None),
    "empty input": ("", "empty input: missing header 'n m'", None),
    "comments only": ("# nothing\n\n", "empty input: missing header 'n m'", None),
}


def test_load_errors_carry_line_numbers():
    for case, (text, message, line) in FORMAT_ERRORS.items():
        with pytest.raises(GraphFormatError) as info:
            load_graph(text)
        assert info.value.line == line, case
        assert str(info.value) == (message if line is None else f"line {line}: {message}"), case


def _edge_lines(rng: random.Random, g: Graph) -> list[tuple[int, int]]:
    """g's edges in a random order, each pair in a random order."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
    rng.shuffle(edges)
    return edges


def test_a_loaded_graph_is_the_checked_construction():
    """load_graph builds what Graph(range(1, n + 1), edges) builds from
    its edge set: equal (the same neighborhoods, as sets), each one frozen,
    with the same vertex order, m and id floor 0."""
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 40)
        g = from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.2])
        lines = _edge_lines(rng, g)
        loaded = load_graph("\n".join([f"{n} {len(lines)}"] + [f"{u} {v}" for u, v in lines]))
        ref = Graph(range(1, n + 1), {(min(e), max(e)) for e in lines})
        assert loaded == ref and loaded.m == ref.m
        assert list(loaded.vertices) == list(ref.vertices) == list(range(1, n + 1))
        assert all(type(ns) is frozenset for ns in loaded.adjacency.values())
        assert loaded._id_floor == ref._id_floor == 0


def test_a_subgraph_is_the_checked_construction():
    """subgraph builds what Graph() builds from the induced edges: equal
    (the same neighborhoods, as sets), each one frozen, with the same vertex
    order and m, and it keeps the id floor."""
    rng = random.Random(8)
    for _ in range(200):
        host = random_host(rng, rng.randint(1, 40), 0.25)
        keep = rng.sample(list(host.vertices), rng.randint(0, host.n))
        sub = host.subgraph(keep, id_floor=500)
        ref = Graph(set(keep), [(u, v) for u, v in host.edges() if u in keep and v in keep], 500)
        assert sub == ref and sub.m == ref.m and list(sub.vertices) == list(ref.vertices)
        assert all(type(ns) is frozenset for ns in sub.adjacency.values())
        assert sub._id_floor == ref._id_floor == 500


def test_save_load_roundtrip_canonical():
    g = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    text = save_graph(g)
    assert load_graph(text) == g
    assert save_graph(load_graph(text)) == text


def test_triangles():
    k3 = complete(3)
    assert k3.triangles() == [(1, 2, 3)]
    c6 = cycle(6)
    assert c6.triangles() == []
    bowtie = from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    assert len(bowtie.triangles()) == 2


def test_components_and_max_degree():
    g = from_edges(5, [(1, 2), (3, 4)])
    comps = sorted(g.components(), key=min)
    assert comps == [frozenset({1, 2}), frozenset({3, 4}), frozenset({5})]
    assert star(4).max_degree() == 4


def test_rewrite_preserves_surviving_ids():
    g = path(5)
    g2 = g.rewrite(remove_vertices=[3], add_vertices=[9], add_edges=[(2, 9), (9, 4)])
    assert set(g2.vertices) == {1, 2, 4, 5, 9}
    assert g2.has_edge(2, 9) and g2.has_edge(9, 4) and not g2.has_edge(2, 4)


def test_rewrite_equals_full_rebuild_and_leaves_source_alone():
    rng = random.Random(17)
    for trial in range(300):
        n = rng.randint(1, 12)
        g = Graph(range(1, n + 1), [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.3], id_floor=40)
        before = (tuple(g.vertices), g.edges())
        # removals may name vertices and edges that are not in g
        drop = set(rng.sample(range(1, n + 3), rng.randint(0, 3)))
        cut = [(u, v) for u, v in combinations(range(1, n + 3), 2) if rng.random() < 0.1]
        new = list(range(50, 50 + rng.randint(0, 3)))
        keep = [v for v in g.vertices if v not in drop]
        pool = keep + new
        added = [(u, v) for u, v in combinations(pool, 2) if rng.random() < 0.15]
        g2 = g.rewrite(drop, new, added, cut)
        cut_pairs = {(min(e), max(e)) for e in cut}
        kept = [e for e in g.edges() if e[0] not in drop and e[1] not in drop and e not in cut_pairs]
        assert g2 == Graph(pool, kept + added), trial
        assert g2.vertices == sorted(pool) and g2.edges() == sorted(set(kept + added))
        assert g2.fresh_ids(1) == [max([*pool, 39]) + 1]
        assert (tuple(g.vertices), g.edges()) == before


def test_rewrite_carries_the_triangle_index():
    """Along chains of 300 seeded rewrites from a graph whose triangle index
    is built, each new graph's triangle index (values and key order),
    triangles and m equal a fresh build's."""
    for seed in range(4):
        for step, g in enumerate(rewrite_chain(seed, 300)):
            fresh = Graph(g.vertices, g.edges())
            assert "triangles_at" in g._cache, (seed, step)
            assert list(g.triangles_at().items()) == list(fresh.triangles_at().items()), (seed, step)
            assert g.triangles() == fresh.triangles(), (seed, step)
            assert g.m == fresh.m == len(fresh.edges()), (seed, step)


def test_rewrite_carries_the_degree_census():
    """Along chains of 300 seeded rewrites, each new graph's degree census,
    both as counts and as one integer of counts capped at 15, and maximum
    degree equal a fresh count.  The chains remove ids, add isolated ids,
    cut edges and bring removed ids back; one rewrite removes a vertex and
    adds its id back in the same call."""
    seen = Counter()

    def check(g: Graph) -> None:
        fresh = fresh_degree_counts(g)
        assert "degree_counts" in g._cache and g.degree_counts() == fresh, (g.edges(), g.degree_counts())
        assert g.degree_census() == sum(min(k, 15) << 4 * d for d, k in fresh.items()), g.edges()
        assert g.max_degree() == max(fresh, default=0)

    for seed in range(4):
        gone: set[int] = set()
        prev: Graph | None = None
        for g in rewrite_chain(seed, 300):
            check(g)
            if prev is not None:
                left = set(prev.vertices) - set(g.vertices)
                new = set(g.vertices) - set(prev.vertices)
                cut = [(u, v) for u, v in prev.edges() if u in g and v in g and not g.has_edge(u, v)]
                seen.update(removed=bool(left), isolated=any(not g.degree(v) for v in new),
                            cut=bool(cut), back=bool(new & gone))
                gone |= left
            prev = g
    assert all(seen[k] for k in ("removed", "isolated", "cut", "back")), seen
    g = from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5), (5, 6)])
    g.degree_counts()
    for g2 in (g.rewrite([2], [2], [(2, 6)]), g.rewrite([5, 2], [2, 7], [(2, 1), (2, 7)], [(3, 4)])):
        check(g2)


def test_edits_keep_the_degree_census_without_a_rebuild():
    """Along seeded chains of random edits, in place and by rewrite, of
    sparse graphs with more than 15 vertices of some degrees, the census
    built before the first edit is carried through every edit, never
    rebuilt, and equals a fresh census; the fields move across the cap of
    15.  Both dispatch plans give the rules and rewrites whose shapes fit
    a fresh build."""
    tables = ((dimatch.rules._PLAN, dimatch.rules.CATALOG, lambda r: r.shape),
              (dimatch.rewrite._PLAN, dimatch.rewrite.REWRITE_RULES, lambda r: r.pattern))
    capped = Counter()
    for seed in range(6):
        rng = random.Random(seed)
        n = rng.randint(45, 70)
        g = Graph(range(1, n + 1), [e for e in combinations(range(1, n + 1), 2) if rng.random() < 2.5 / n])
        g.degree_census()
        for step in range(150):
            verts = list(g.vertices)
            drop = rng.sample(verts, min(len(verts), rng.randint(0, 2)))
            new = g.fresh_ids(rng.randint(0, 2))
            live = [v for v in verts if v not in drop] + new
            added = [tuple(rng.sample(live, 2)) for _ in range(rng.randint(0, 4))] if len(live) > 1 else []
            cut = [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(0, 3))] if len(verts) > 1 else []
            if step % 2:
                g.edit(drop, new, added, cut)
            else:
                g = g.rewrite(drop, new, added, cut)
            assert "degree_census" in g._cache, (seed, step)
            fresh = Graph(g.vertices, g.edges())
            assert g.degree_census() == fresh.degree_census(), (seed, step)
            capped[any(k > 15 for k in fresh.degree_counts().values())] += 1
            for plan, table, shape in tables:
                want = tuple(e for e in table if shape(e) is None or shape(e).fits(fresh))
                assert plan(table, g) == want, (seed, step)
    assert capped[True] >= 100 and capped[False] >= 100, capped


# every query that reads a cached structure
QUERIES = (
    Graph.degree_counts,
    Graph.degree_census,
    Graph.low_degree_vertices,
    lambda g: list(g.triangles_at().items()),
    Graph.triangles,
    Graph.components,
    lambda g: list(g.vertices),
    Graph.edges,
    lambda g: g.m,
)


def test_edits_in_place_keep_every_query_equal_to_a_fresh_build():
    """Along chains of 300 seeded edits of one graph, made with every
    cached structure built, each query after an edit equals a fresh
    build's, and each edit draws a new version."""
    versions = set()
    for seed in range(4):
        for step, g in enumerate(rewrite_chain(seed, 300, in_place=True)):
            assert g.version not in versions, (seed, step)
            versions.add(g.version)
            fresh = Graph(g.vertices, g.edges())
            for query in QUERIES:
                assert query(g) == query(fresh), (seed, step, query)


def test_anchored_triangles_read_the_index_as_the_per_anchor_scan_does():
    """triangles(anchors) equals the concatenated per-anchor scans with the
    index built and with it carried along rewrites."""
    rng = random.Random(5)

    def check(g: Graph) -> None:
        for anchors in (list(g.vertices), sorted(rng.sample(g.vertices, rng.randint(0, g.n))), []):
            assert g.triangles(anchors) == [t for u in anchors for t in g._triangles_from(u)], (g.edges(), anchors)

    for _ in range(150):
        g = random_host(rng, rng.randint(4, 16), rng.uniform(0.1, 0.6))
        check(g)
    for seed in range(3):
        for g in rewrite_chain(seed, 100):
            assert "triangles_at" in g._cache
            check(g)


def test_rewrite_rejects_bad_added_edges():
    g = path(3)
    with pytest.raises(ValueError, match="self-loop"):
        g.rewrite(add_edges=[(2, 2)])
    with pytest.raises(ValueError, match="unknown vertex"):
        g.rewrite(remove_vertices=[3], add_edges=[(1, 3)])
    assert g.edges() == [(1, 2), (2, 3)]


def test_all_graphs_count():
    assert sum(1 for _ in all_graphs(3)) == 8


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picks = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))) if slots else []
    return from_edges(n, picks)


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_adjacency_symmetric_and_simple(g: Graph):
    for v in g.vertices:
        assert v not in g.neighbors(v)
        for w in g.neighbors(v):
            assert v in g.neighbors(w)
    assert g.m == len(g.edges())


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_save_load_identity(g: Graph):
    assert load_graph(save_graph(g)) == g
    assert save_graph(load_graph(save_graph(g))) == save_graph(g)


@given(small_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_repeated_edge_line_is_rejected(g: Graph, data):
    # the header is raised to match, so only the repetition is wrong
    assume(g.m > 0)
    lines = save_graph(g).splitlines()
    u, v = lines[data.draw(st.integers(1, g.m))].split()
    again = f"{v} {u}" if data.draw(st.booleans()) else f"{u} {v}"
    text = "\n".join([f"{g.n} {g.m + 1}"] + lines[1:] + [again]) + "\n"
    with pytest.raises(GraphFormatError, match=f"line {g.m + 2}: edge .* listed twice"):
        load_graph(text)


@given(parser_text())
@settings(max_examples=300, deadline=None)
def test_load_graph_parses_or_raises_format_error(text: str):
    try:
        g = load_graph(text)
    except GraphFormatError:
        return
    assert load_graph(save_graph(g)) == g
