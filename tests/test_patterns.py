from __future__ import annotations

import io
import os
import random
import re
import subprocess
import sys
import tokenize
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import dimatch.rewrite as rw
import dimatch.rules as rl
from dimatch.coloring import BLACK, WHITE, PartialColoring
from dimatch.graph import Graph, complete, cycle, from_edges, path, star
from dimatch.patterns import (
    MUST_BLACK,
    MUST_UNCOLORED,
    Orbits,
    Pattern,
    contains_s222,
    pattern,
)
from dimatch.rules import (
    CATALOG,
    P_ANCHORED_PENTAGON,
    P_HAT_PENTAGON,
    P_HOUSE,
    P_TRIANGLE_TAIL,
)

from .util import LONG_CLAW, brute_force_find_all, decorate, random_host, reference_contains_s222, reference_fits


def test_find_induced_c4_pattern():
    p = pattern("square", "a b c d", "a-b b-c c-d d-a", degree={r: (2, 2) for r in "abcd"})
    emb = next(p.find_all(cycle(4)), None)
    assert emb is not None
    assert set(emb.values()) == {1, 2, 3, 4}


def test_claw_not_in_triangle():
    claw = pattern("claw", "c x y z", "c-x c-y c-z")
    assert next(claw.find_all(complete(3)), None) is None
    assert next(claw.find_all(star(3)), None) is not None


def test_degree_constrained_path_matches_interior():
    # on a path a-b-c-d only the two interior vertices have degree two
    p4 = pattern("p4", "v1 v2 v3 v4", "v1-v2 v2-v3 v3-v4", degree={"v3": (2, 2)})
    host = path(4)
    found = {m["v3"] for m in brute_force_find_all(host, p4)}
    assert found == {2, 3}
    emb = next(p4.find_all(host), None)
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
            fast = canon(p.find_all(g))
            slow = canon(brute_force_find_all(g, p))
            assert fast == slow, (p.name, edges)


def test_matcher_is_deterministic_and_canonical():
    host = cycle(6)
    p = pattern("p3", "a b c", "a-b b-c")
    first = next(p.find_all(host), None)
    again = next(p.find_all(host), None)
    assert first is not None and first == again


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


def test_contains_s222_returns_the_reference_embedding():
    """The set-algebra kernel finds the same long claw as the reference, or
    none, on seeded hosts with ids that are not contiguous."""
    rng = random.Random(222)
    claws = 0
    for trial in range(5000):
        g = random_host(rng, rng.randint(7, 16), rng.uniform(0.1, 0.45))
        emb = contains_s222(g)
        assert emb == reference_contains_s222(g), (trial, g.vertices, g.edges())
        claws += emb is not None
    assert 1000 < claws < 4000


def test_contains_s222_agrees_with_generic_matcher():
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(7, 12)
        slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = [e for e in slots if rng.random() < rng.choice((0.15, 0.3))]
        g = from_edges(n, edges)
        fast = contains_s222(g)
        slow = next(LONG_CLAW.find_all(g), None)
        assert (fast is None) == (slow is None), edges
        if fast is not None:
            amap = fast
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
            fast = canon(p.find_all(g, colors))
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
        assert next(p.find_all(host), None) is not None, p.name


def _spread(v: int) -> int:
    """An increasing relabelling of the ids 1..8 to large, sparse ids
    whose low 20 bits decrease, so that a set of up to eight of them
    iterates in descending order."""
    return (v << 20) | ((1 << 20) - v)


def test_enumeration_order_is_canonical_with_anchors():
    """find_all yields the reference embeddings, as plain dicts, sorted by
    their vertices in role order, also when restricted to anchors.  Each
    host is also searched relabelled by `_spread`, where every candidate
    set iterates out of ascending order."""
    catalog = [p for p in _catalog() if len(p.roles) <= 7]
    # the relabelling keeps the order, so it maps the reference
    moved = lambda ms: [{r: _spread(v) for r, v in m.items()} for m in ms]
    rng = random.Random(37)
    seen = 0
    for trial in range(40):
        n = rng.randint(5, 8)
        slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = from_edges(n, [e for e in slots if rng.random() < 0.35])
        colors = {v: rng.choice((BLACK, WHITE)) for v in g.vertices if rng.random() < 0.3}
        anchors = sorted(rng.sample(g.vertices, rng.randint(1, n)))
        spread = Graph(map(_spread, g.vertices), [(_spread(u), _spread(v)) for u, v in g.edges()])
        spread_colors = {_spread(v): x for v, x in colors.items()}
        assert all(list(s) == sorted(s, reverse=True) for s in spread.adjacency.values())
        for p in catalog:
            if len(p.roles) > n or (n == 8 and len(p.roles) > 6):
                continue
            ref = sorted(brute_force_find_all(g, p, colors), key=lambda m: [m[r] for r in p.order])
            at_anchors = [m for m in ref if m[p.order[0]] in anchors]
            got = list(p.find_all(g, colors))
            assert got == ref and all(type(e) is dict for e in got), (p.name, g.edges(), colors)
            got = list(p.find_all(g, colors, anchors=anchors))
            assert got == at_anchors, (p.name, g.edges(), colors, anchors)
            got = list(p.find_all(spread, spread_colors))
            assert got == moved(ref), (p.name, g.edges(), colors)
            got = list(p.find_all(spread, spread_colors, anchors=[_spread(v) for v in anchors]))
            assert got == moved(at_anchors), (p.name, g.edges(), colors, anchors)
            seen += len(ref)
    assert seen > 100, seen


def _wide_host(rng: random.Random) -> Graph:
    """A random host plus a hub on 64 to 70 new leaves and on about half of
    the host, so some vertex has degree 64 or more."""
    g = random_host(rng, rng.randint(6, 12), rng.uniform(0.1, 0.5))
    hub = max(g.vertices) + 1
    leaves = range(hub + 1, hub + 1 + rng.randint(64, 70))
    spokes = [(hub, x) for x in leaves] + [(v, hub) for v in g.vertices if rng.random() < 0.5]
    return Graph([*g.vertices, hub, *leaves], g.edges() + spokes)


def test_degree_check_never_drops_an_embedding():
    """On seeded random hosts of density 0.1 to 0.5, and on hosts with a
    vertex of degree 64 or more, so the host's degree census is wide,
    `fits` equals a bipartite matching of the pattern's roles to host
    vertices by degree window (`reference_fits`), and no host it rejects
    yields an embedding: the full search compiled from `_source()`, called
    directly, whole, anchored and with colors, finds nothing there.
    find_all yields what that search yields.  Some rejected hosts have a
    vertex in every role's window, so the check counts vertices, not only
    the degrees present."""
    rng = random.Random(43)
    hosts = [random_host(rng, rng.randint(5, 12), rng.uniform(0.1, 0.5)) for _ in range(60)]
    hosts += [_wide_host(rng) for _ in range(6)]
    outcomes, counted = Counter(), 0
    searches = {p.name: p._exec(p._source()) for p in _catalog()}
    for g in hosts:
        degrees = {g.degree(v) for v in g.vertices}
        colors = {v: rng.choice((BLACK, WHITE)) for v in g.vertices if rng.random() < 0.3}
        anchors = sorted(rng.sample(g.vertices, rng.randint(1, g.n)))
        for p in _catalog():
            windows = p._windows()[0]
            fits = p.fits(g)
            assert fits == reference_fits(g, windows), (p.name, g.edges())
            present = all(any(lo <= d and (hi is None or d <= hi) for d in degrees) for lo, hi in windows)
            counted += present and not fits
            search = searches[p.name]
            for first, c in ((g.vertices, {}), (anchors, {}), (g.vertices, colors), (anchors, colors)):
                want = list(search(g.adjacency, first, g.vertices, c))
                assert fits or not want, (p.name, g.edges(), c, first, want[0])
                got = list(p.find_all(g, c, anchors=None if first is g.vertices else first))
                assert got == want, (p.name, g.edges(), c, first)
                outcomes[fits, bool(want), g.max_degree() >= 64] += 1
    # both sides of the check are taken, on narrow and on wide hosts
    assert all(outcomes[True, True, wide] and outcomes[False, False, wide] for wide in (False, True)), outcomes
    assert counted > 100, counted


def test_no_declared_pattern_has_more_roles_than_the_census_counts():
    """The degree census caps each count at 15, so `fits` is exact only
    for patterns of at most 15 roles; every declared one has at most 15.
    On cycle(20), whose 20 vertices all have degree two, the census reads
    15 at degree two, and 15 copies of a degree-two role fit."""
    assert max(len(p.roles) for p in _catalog()) <= 15
    assert cycle(20).degree_census() == 15 << 4 * 2
    roles = " ".join(f"r{i}" for i in range(15))
    assert pattern("fifteen", roles, "", degree={f"r{i}": (2, 2) for i in range(15)}).fits(cycle(20))


def _consumers() -> list[Orbits]:
    """Every consumer search: each catalog rule's, from the rule's closure
    or its module, and the unlabelled one of every pattern, which
    `Pattern.least` and the rewrites without a guard read."""
    found = [o for r in CATALOG for cell in r.fn.__closure__ or () if isinstance(o := cell.cell_contents, Orbits)]
    found += [o for o in vars(rl).values() if isinstance(o, Orbits)]
    return found + [p.least for p in _catalog()]


def test_patterns_compile_on_first_search_from_integers_only():
    """Importing the solver compiles nothing and computes no automorphism,
    and the generated source, of the full search and of every consumer's,
    names only its own variables and positions, never a role, and holds no
    string.  It has no binary `-` or `&`: each candidate set is one chained
    set operation.  It never calls `sorted`: candidates are taken in set
    order and only each anchor's `found` list is sorted, once."""
    code = (
        "import dimatch, dimatch.rules as rl, dimatch.rewrite as rw\n"
        "from dimatch.patterns import Orbits, Pattern\n"
        "ps = [o for m in (rl, rw) for o in vars(m).values() if isinstance(o, Pattern)]\n"
        "assert ps and all(p._all is p._auts is p._least is None for p in ps)\n"
        "os = [c.cell_contents for r in rl.CATALOG for c in r.fn.__closure__ or ()]\n"
        "os = [o for o in os + list(vars(rl).values()) if isinstance(o, Orbits)]\n"
        "assert len(os) == 13 and all(o._search is None for o in os)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(rl.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    vocabulary = {
        "def", "search", "adj", "first", "verts", "C", "for", "in", "if", "or", "and", "not",
        "is", "None", "continue", "intersection", "difference", "len", "get", "BLACK", "WHITE", "U",
        "found", "append", "sort", "t", "yield", "dict", "zip", "R",
    }
    searches = [(p, p._source(), p.find_all) for p in _catalog()]
    searches += [(o.pattern, o.source(), o) for o in _consumers()]
    for p, src, find in searches:
        for tok in tokenize.generate_tokens(io.StringIO(src).readline):
            if tok.type == tokenize.NAME:
                assert tok.string in vocabulary or re.fullmatch(r"[vn]\d+", tok.string), (p.name, tok.string)
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), (p.name, tok.string)
            assert tok.type not in (tokenize.STRING, tokenize.COMMENT), (p.name, tok.string)
            assert tok.string not in ("-", "&"), (p.name, tok.line)
        list(find(from_edges(len(p.roles), []), {}))
    for p in _catalog():
        assert p._all.source() == p._source()
        assert p._all._search.__code__.co_filename == f"<pattern {p.name}>"
    for o in _consumers():
        assert o._search.__code__.co_filename == f"<pattern {o.pattern.name}>"


def test_automorphism_counts():
    """Automorphisms keep the required, optional and forbidden pairs, the
    degree windows, closure and colors."""
    counts = {p.name: len(p.automorphisms()) for p in _catalog()}
    assert {n: counts[n] for n in ("black_pair", "spoked_triangle", "cubic_caps", "prune_fan5", "contract_path")} == {
        "black_pair": 2, "spoked_triangle": 6, "cubic_caps": 4, "prune_fan5": 8, "contract_path": 2,
    }
    assert counts["bowtie"] == 8 and counts["chain"] == counts["prune_twin_triangle"] == 1, counts


def _kind(p: Pattern, a: str, b: str) -> int:
    pair = (min(a, b), max(a, b))
    return 2 if pair in p.required else pair in p.optional


def _least_unmet(o: Orbits, every: list[dict[str, int]], colors: dict[int, str], anchors) -> list[dict[str, int]]:
    """Of every embedding, those placing the first role on an anchor, with
    a demand of o that does not hold yet, and least in `order` among the
    embeddings on the same vertices that a role permutation keeping the
    declaration and o's labels maps to it; in canonical order."""
    p = o.pattern
    key = lambda m: [m[r] for r in p.order]
    # a fixed role may only map to itself
    sig = lambda r: (p.degree.get(r), r in p.closure, p.color.get(r), o.demands.get(r), r if r in o.fixed else None)

    def alike(m1, m2):
        back = {v: r for r, v in m1.items()}
        if set(back) != set(m2.values()):
            return False
        s = {r: back[m2[r]] for r in p.roles}
        return all(sig(r) == sig(s[r]) for r in p.roles) and all(
            _kind(p, a, b) == _kind(p, s[a], s[b]) for a, b in combinations(p.roles, 2)
        )

    every = sorted(every, key=key)
    return [
        m for m in every
        if m[p.order[0]] in anchors
        and not (o.demands and all(colors.get(m[r]) == col for r, col in o.demands.items()))
        and not any(key(m2) < key(m) and alike(m2, m) for m2 in every)
    ]


def _planted(p: Pattern, rng: random.Random, demands: dict[str, str] = {}) -> tuple[Graph, dict[int, str]]:
    """p's required edges and some optional ones on shuffled ids, hung
    with random decorations, and colors: those its black roles need, on
    all demanded roles or none their demanded ones, and a few random ones
    on the other roles and the decorations."""
    ids = dict(zip(p.roles, rng.sample(range(1, 40), len(p.roles))))
    edges = [(ids[a], ids[b]) for a, b in p.required]
    edges += [(ids[a], ids[b]) for a, b in p.optional if rng.random() < 0.5]
    host = decorate(Graph(ids.values(), edges), rng.randrange(1000))
    colors = {ids[r]: BLACK for r, want in p.color.items() if want == MUST_BLACK}
    if rng.random() < 0.5:
        colors.update((ids[r], col) for r, col in demands.items() if p.color.get(r) != MUST_UNCOLORED)
    for v in host.vertices:
        if v not in colors and v not in {ids[r] for r, w in p.color.items() if w == MUST_UNCOLORED} and rng.random() < 0.3:
            colors[v] = rng.choice((BLACK, WHITE))
    return host, colors


def test_consumer_searches_yield_the_least_unmet_member_of_each_orbit():
    """Each consumer search yields, in canonical order, exactly the least
    member of every orbit of the occurrences whose demands do not all hold
    yet, whole and from random anchors.  The reference enumerates with
    `brute_force_find_all` on seeded random hosts, for patterns of up to
    seven roles; larger ones are planted in decorated hosts and enumerated
    with `find_all`, which the tests above check against the same
    reference.  Orbits with more than one member and met occurrences both
    occur, and each rewrite without a guard finds `find_all`'s first."""
    rng = random.Random(28)
    consumers = _consumers()
    seen = Counter()

    def count(o, every, colors, size):
        kept = _least_unmet(o, every, colors, {m[o.pattern.order[0]] for m in every})
        met = [m for m in every if o.demands and all(colors.get(m[r]) == col for r, col in o.demands.items())]
        seen[size, "kept"] += len(kept)
        seen[size, "met"] += len(met)
        seen[size, "copies"] += len(every) - len(kept) - len(met)
    for trial in range(30):
        n = rng.randint(5, 8)
        g = random_host(rng, n, rng.uniform(0.2, 0.5))
        colors = {v: rng.choice((BLACK, WHITE)) for v in g.vertices if rng.random() < 0.4}
        anchors = sorted(rng.sample(g.vertices, rng.randint(1, g.n)))
        for o in consumers:
            p = o.pattern
            if len(p.roles) > min(n, 7) or (n == 8 and len(p.roles) > 6):
                continue
            every = brute_force_find_all(g, p, colors)
            for first in (g.vertices, anchors):
                want = _least_unmet(o, every, colors, first)
                got = list(o(g, colors, None if first is g.vertices else first))
                assert got == want, (p.name, dict(o.demands), o.fixed, g.edges(), colors, first)
            count(o, every, colors, "small")
    for o in consumers:
        p = o.pattern
        if len(p.roles) <= 7:
            continue
        for seed in range(6):
            g, colors = _planted(p, rng, o.demands)
            every = list(p.find_all(g, colors))
            anchors = sorted(rng.sample(g.vertices, rng.randint(1, g.n)))
            for first in (g.vertices, anchors):
                want = _least_unmet(o, every, colors, first)
                assert list(o(g, colors, None if first is g.vertices else first)) == want, (p.name, dict(o.demands), o.fixed, seed)
            count(o, every, colors, "large")
    assert all(seen[size, k] >= 10 for size in ("small", "large") for k in ("kept", "met", "copies")), seen
    for rule in rw.REWRITE_RULES:
        if rule.guard is None:
            for seed in range(3):
                g, colors = _planted(rule.pattern, rng)
                c = PartialColoring(colors)
                assert rule.find(g, c) == next(rule.pattern.find_all(g, colors), None), (rule.id, seed)


@pytest.mark.parametrize(
    "kw",
    [
        {"color": {"a": "white"}},
        {"color": {"a": BLACK}},
        {"degree": {"a": (1.5, None)}},
        {"degree": {"a": (-1, 2)}},
        {"degree": {"a": (3, 2)}},
        {"degree": {"a": (1, 2.0)}},
        {"degree": {"a": (True, None)}},
        {"degree": {"a": (1,)}},
        {"degree": {"a": [1, 2]}},
    ],
)
def test_malformed_declarations_are_rejected(kw):
    with pytest.raises(ValueError, match="t: (color|degree) of a"):
        pattern("t", "a b", "a-b", **kw)


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
        open_twin = Pattern(p.roles, p.required, p.optional, p.degree, frozenset(), p.color, p.name)
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
                if all(host.neighbors(e[r]) <= set(e.values()) for r in p.closure):
                    want.append(e)
                else:
                    dropped += 1
            got = list(p.find_all(host, colors))
            assert got == want, (p.name, seed, host.edges(), colors)
            kept += len(got)
    assert kept > 0 and dropped > 0, (kept, dropped)
