from __future__ import annotations

import random
from collections import Counter
from typing import Iterator

import pytest

import dimatch.rewrite
import dimatch.rules
from dimatch.coloring import BLACK, WHITE, PartialColoring, assign, verify_complete
from dimatch.graph import Graph, complete, cycle, from_edges, path, star
from dimatch.oracle import GeneratorError, GeneratorSpec, brute_dim, generate, is_feasible_partial, mixed_instance
from dimatch.patterns import Orbits, Pattern, contains_s222, pattern
from dimatch.rewrite import clean
from dimatch.setmatch import assert_irreducible_structure
from dimatch.rules import (
    CATALOG,
    FORCED,
    Rule,
    Worklist,
    clean_pair_violation,
    is_clean_pair,
    propagate,
    rule_triangle_outsider,
)

from .util import (
    FORCING_HOSTS,
    PLANTED_HOSTS,
    RULES_BY_ID,
    OracleAudit,
    cycle_union,
    disjoint_union,
    made,
    planted,
    random_host,
    reference_is_clean_pair,
    reference_square_degree_two,
    reference_triangle_outsiders,
    rewrite_chain,
    without_rigid_exit,
)

# initial state plus one demand the rule itself must produce on it
EXPECTED_DEMAND = {
    "square_alternation": (3, BLACK),
    "triangle_outsider": (1, WHITE),
    "degree_one": (2, BLACK),
    "black_pair_neighbors": (3, WHITE),
    "bowtie_center": (1, WHITE),
    "diamond_pair": (1, BLACK),
    "leaf_surplus": (3, WHITE),
    "chain_step": (4, BLACK),
    "triangle_tail": (1, BLACK),
    "house_apex": (1, BLACK),
    "hat_pentagon": (1, BLACK),
    "hat_pentagon_swap": (2, WHITE),
    "anchored_pentagon": (8, WHITE),
    "spoked_triangle": (8, WHITE),
    "square_degree_two": (1, WHITE),
    "triangle_circuit": (1, WHITE),
    "twin_fan_swap": (6, WHITE),
    "scattered_neighborhood": (1, BLACK),
    "cubic_caps": (7, WHITE),
    "lone_wing": (1, BLACK),
    "seven_cycle_step": (1, BLACK),
    "braced_pendant": (2, WHITE),
}


def run_audited(g, coloring):
    audit = OracleAudit()
    c = PartialColoring(coloring)
    conflict = propagate(g, c, audit)
    return c, conflict, audit


def test_catalog_covers_every_host():
    assert set(FORCING_HOSTS) == {r.id for r in CATALOG} == set(EXPECTED_DEMAND)


@pytest.mark.parametrize("rule_id", sorted(FORCING_HOSTS))
def test_rule_function_produces_expected_demand(rule_id):
    g, coloring = FORCING_HOSTS[rule_id]
    rule = RULES_BY_ID[rule_id]
    demands = [d for group in rule.fn(g, PartialColoring(coloring)) for d in group]
    assert EXPECTED_DEMAND[rule_id] in demands, demands


@pytest.mark.parametrize("rule_id", sorted(FORCING_HOSTS))
def test_propagation_on_host_is_oracle_sound(rule_id):
    g, coloring = FORCING_HOSTS[rule_id]
    _, conflict, audit = run_audited(g, coloring)
    assert audit.violations == [], audit.violations[:3]
    if conflict is not None:
        assert brute_dim(g, PartialColoring(coloring)) is None


@pytest.mark.parametrize("rule_id", sorted(FORCING_HOSTS))
def test_rule_demands_are_individually_oracle_valid(rule_id):
    # forced demands hold in every completion; exchange demands keep at
    # least one completion alive
    g, coloring = FORCING_HOSTS[rule_id]
    rule = RULES_BY_ID[rule_id]
    c0 = PartialColoring(coloring)
    pre_ok = brute_dim(g, c0) is not None
    for group in rule.fn(g, c0):
        state = dict(c0.state)
        for v, col in group:
            if rule.tag == "forced":
                denial = PartialColoring({**state, v: WHITE if col == BLACK else BLACK})
                assert brute_dim(g, denial) is None, (rule_id, v, col)
            state[v] = col
        if rule.tag == "exchange" and pre_ok:
            assert brute_dim(g, PartialColoring(state)) is not None, (rule_id, group)


def test_single_edge_turns_all_black():
    c, conflict, _ = run_audited(path(2), {})
    assert conflict is None and c[1] == BLACK and c[2] == BLACK


def test_two_blacks_at_distance_two_whiten_middle():
    c, conflict, _ = run_audited(path(5), {2: BLACK, 4: BLACK})
    assert conflict is None and c[3] == WHITE


def test_bowtie_shared_vertex_goes_white():
    g = from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    c, conflict, _ = run_audited(g, {})
    assert conflict is None and c[1] == WHITE


def test_scattered_neighborhood_forces_black():
    g, _ = FORCING_HOSTS["scattered_neighborhood"]
    demands = [d for grp in RULES_BY_ID["scattered_neighborhood"].fn(g, PartialColoring()) for d in grp]
    assert (1, BLACK) in demands and (5, BLACK) in demands


def test_k4_refutes():
    _, conflict, _ = run_audited(complete(4), {})
    assert conflict is not None


def test_randomized_rule_soundness_small_hosts():
    rng = random.Random(2024)
    checked = 0
    for _ in range(400):
        n = rng.randint(3, 9)
        g = mixed_instance(n, rng.randrange(1 << 30))
        pins = {}
        for v in g.vertices:
            if rng.random() < 0.15:
                pins[v] = BLACK if rng.random() < 0.7 else WHITE
        if not is_feasible_partial(g, PartialColoring(pins)):
            continue
        _, _, audit = run_audited(g, pins)
        checked += len(audit.color_events)
        assert audit.violations == [], audit.violations[:3]
    assert checked > 200


def test_degree_one_whole_scan_equals_scan_from_every_vertex():
    """On random partial colorings too; every group it yields is one that
    is not yet satisfied."""
    rule = RULES_BY_ID["degree_one"]
    rng = random.Random(8)
    fired = 0
    for _ in range(400):
        n = rng.randint(1, 14)
        g = from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.2])
        density = rng.choice((0.0, 0.3, 0.7))
        c = PartialColoring({v: rng.choice((BLACK, WHITE)) for v in g.vertices if rng.random() < density})
        whole = list(rule.fn(g, c))
        assert whole == list(rule.fn(g, c, g.vertices))
        assert all(c.get(v) != col for group in whole for v, col in group)
        fired += len(whole)
    assert fired > 100


def test_triangle_outsiders_equal_the_reference():
    """rule_triangle_outsider yields the same groups in the same order,
    whole and from ascending anchors, as the reference pairs (t, u) whose
    one end is black and the other uncolored, the uncolored end demanded
    white.  The hosts are random, with and without a built triangle index,
    and along rewrite chains that carry it; their colorings have no black
    vertex, one or two, or about half of the vertices black, with whites
    among them."""
    rng = random.Random(9)
    hosts = []
    for _ in range(200):
        g = random_host(rng, rng.randint(3, 16), rng.uniform(0.1, 0.6))
        hosts.append(Graph(g.vertices, g.edges()))
        g.triangles_at()
        hosts.append(g)
    hosts += [g for seed in range(4) for g in rewrite_chain(seed, 100)]
    groups = Counter()
    for g in hosts:
        blacks = {"none": [], "few": rng.sample(g.vertices, min(g.n, rng.randint(1, 2))),
                  "many": [v for v in g.vertices if rng.random() < 0.5]}
        for kind, black in blacks.items():
            state = {v: WHITE for v in g.vertices if rng.random() < 0.2}
            c = PartialColoring({**state, **dict.fromkeys(black, BLACK)})
            for anchors in (None, list(g.vertices), sorted(rng.sample(g.vertices, rng.randint(0, g.n)))):
                want = []
                for t, u in reference_triangle_outsiders(g, anchors):
                    if c.get(t) == BLACK and c.get(u) is None:
                        want.append([(u, WHITE)])
                    elif c.get(u) == BLACK and c.get(t) is None:
                        want.append([(t, WHITE)])
                got = list(rule_triangle_outsider(g, c) if anchors is None else rule_triangle_outsider(g, c, anchors))
                assert got == want, (g.edges(), c.state, anchors)
                groups[kind] += len(got)
    assert groups["few"] > 300 and groups["many"] > 1000, groups


def test_square_degree_two_equals_the_reference():
    """The same groups in the same order as a brute-force chordless-square
    reference, whole and from ascending anchors, on cycles, on random hosts
    and along rewrite chains; degree-two vertices off every chordless
    square are met too."""
    rule = RULES_BY_ID["square_degree_two"]
    rng = random.Random(10)
    hosts = [cycle(n) for n in range(3, 9)]
    hosts += [random_host(rng, rng.randint(3, 16), rng.uniform(0.05, 0.4)) for _ in range(300)]
    hosts += [g for seed in range(4) for g in rewrite_chain(seed, 100)]
    fired = missed = 0
    for g in hosts:
        c = PartialColoring()
        whole = list(rule.fn(g, c))
        assert whole == list(reference_square_degree_two(g, None)), g.edges()
        for anchors in (list(g.vertices), sorted(rng.sample(g.vertices, rng.randint(0, g.n)))):
            assert list(rule.fn(g, c, anchors)) == list(reference_square_degree_two(g, anchors)), (g.edges(), anchors)
        fired += len(whole)
        missed += sum(g.degree(v) == 2 for v in g.vertices) - len(whole)
    assert fired > 100 and missed > 100, (fired, missed)


def test_every_rule_scans_where_each_neighbor_of_a_white_vertex_is_black(monkeypatch):
    """The white halves of square_alternation and triangle_outsider are
    left out because of this: once the basic fixpoint is reached, as it is
    before every scan, every neighbor of a white vertex is black, given no
    two whites are adjacent, which `assign` never lets happen.  Checked at
    the start of every scan propagate makes, on random hosts from random
    feasible partial colorings, whole and after earlier firings."""
    checked = []

    def checking(rule):
        def fn(g, c, *anchors):
            for v in c.whites():
                assert all(c.get(w) == BLACK for w in g.neighbors(v)), (rule.id, g.edges(), c.state, v)
                checked.append(v)
            return rule.fn(g, c, *anchors)

        return rule._replace(fn=fn)

    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(checking(r) for r in CATALOG))
    rng = random.Random(12)
    for _ in range(1600):
        g = random_host(rng, rng.randint(2, 14), rng.uniform(0.1, 0.5))
        density = rng.choice((0.0, 0.1, 0.3))
        c = PartialColoring({v: BLACK if rng.random() < 0.6 else WHITE for v in g.vertices if rng.random() < density})
        if is_feasible_partial(g, c):
            propagate(g, c)
    assert len(checked) > 2000, len(checked)


def test_a_white_square_corner_whitens_the_opposite_corner():
    """A chordless square 1-2-3-4 with a pendant edge at 2 and at 4: with 1
    white, propagation blackens 2 and 4 and whitens 3, soundly."""
    g = from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 5), (4, 6)])
    c, conflict, audit = run_audited(g, {1: WHITE})
    assert conflict is None and audit.violations == [], audit.violations
    assert (c.get(2), c.get(3), c.get(4)) == (BLACK, WHITE, BLACK)


SHAPED = [r for r in CATALOG if r.shape is not None]


def _leafy_host(rng: random.Random, i: int) -> Graph:
    """A seeded random host of density 0.05 to 0.5; for i = 1 mod 3 with
    one or two leaves hung on a few vertices, for i = 2 mod 3 also with a
    hub joined to three or more of them."""
    g = random_host(rng, rng.randint(4, 12), rng.uniform(0.05, 0.5))
    if i % 3 == 0:
        return g
    edges, nxt = g.edges(), max(g.vertices) + 1
    for v in rng.sample(g.vertices, rng.randint(1, 3)):
        for _ in range(rng.randint(1, 2)):
            edges.append((v, nxt))
            nxt += 1
    if i % 3 == 2:
        edges += [(nxt, v) for v in rng.sample(g.vertices, rng.randint(3, g.n))]
    return Graph(sorted({*g.vertices, *(v for e in edges for v in e)}), edges)


def test_a_rule_finds_nothing_on_a_host_its_shape_does_not_fit():
    """Rule.shape is a pattern every firing contains, so a host whose
    degree census it does not fit yields no group, under random partial
    colorings, whole and from random anchors.  Every shaped rule meets
    hosts it fits and hosts it does not, and fits its own forcing host."""
    rng = random.Random(71)
    outcomes = Counter()
    for i in range(300):
        g = _leafy_host(rng, i)
        density = rng.choice((0.0, 0.3, 0.6))
        c = PartialColoring({v: rng.choice((BLACK, WHITE)) for v in g.vertices if rng.random() < density})
        anchors = sorted(rng.sample(g.vertices, rng.randint(1, g.n)))
        for rule in SHAPED:
            fits = rule.shape.fits(g)
            outcomes[rule.id, fits] += 1
            if not fits:
                assert next(rule.fn(g, c), None) is None, (rule.id, g.edges(), c.state)
                assert next(rule.fn(g, c, anchors), None) is None, (rule.id, g.edges(), c.state, anchors)
    assert len(SHAPED) == 21 and all(outcomes[r.id, True] and outcomes[r.id, False] for r in SHAPED), outcomes
    assert all(r.shape.fits(FORCING_HOSTS[r.id][0]) for r in SHAPED)


# -- cleaning ---------------------------------------------------------------


def test_clean_black_pair_leaves_empty_graph():
    g = path(2)
    c = PartialColoring({1: BLACK, 2: BLACK})
    step = clean(g, c)
    assert step is not None
    g2, c2 = made(g, c, step)
    assert g2.n == 0 and not c2.state
    assert step.removed_vertices == (1, 2)
    assert step.removed_colors == {1: BLACK, 2: BLACK}


def test_clean_removes_single_white():
    g = path(3)
    c = PartialColoring({2: WHITE})
    step = clean(g, c)
    g2, c2 = made(g, c, step)
    assert set(g2.vertices) == {1, 3} and not c2.state
    assert step.removed_vertices == (2,)
    assert step.removed_colors == {2: WHITE}


def test_clean_identity_when_uncolored():
    assert clean(cycle(5), PartialColoring()) is None


def test_clean_preserves_completability_randomized():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(3, 10)
        g = mixed_instance(n, rng.randrange(1 << 30))
        c = PartialColoring()
        if propagate(g, c) is not None:
            assert brute_dim(g) is None
            continue
        step = clean(g, c)
        g2, c2 = (g, c) if step is None else made(g, c, step)
        assert (brute_dim(g, c) is not None) == (brute_dim(g2, c2) is not None)


# -- clean pairs -------------------------------------------------------------


def test_two_blacks_at_distance_two_is_not_clean():
    assert not is_clean_pair(path(3), PartialColoring({1: BLACK, 3: BLACK}))


def test_adjacent_blacks_are_not_clean():
    assert not is_clean_pair(path(2), PartialColoring({1: BLACK, 2: BLACK}))


def test_claw_center_black_is_not_clean():
    # the engine can still whiten leaves, so the pair is not at fixpoint
    assert not is_clean_pair(star(3), PartialColoring({1: BLACK}))


def test_engine_fixpoint_state_is_clean():
    g = cycle(6)
    c = PartialColoring()
    assert propagate(g, c) is None
    step = clean(g, c)
    g2, c2 = (g, c) if step is None else made(g, c, step)
    assert is_clean_pair(g2, c2)
    assert clean_pair_violation(g2) is None


def _scattered_blacks(rng: random.Random, g: Graph) -> PartialColoring:
    """Blacks pairwise at distance three or more, in random order, and no
    whites: only the rules can fault such a pair."""
    c = PartialColoring()
    for v in rng.sample(g.vertices, g.n):
        near = {v} | g.neighbors(v)
        near |= {x for w in g.neighbors(v) for x in g.neighbors(w)}
        if rng.random() < 0.5 and not near & c.blacks():
            c.state[v] = BLACK
    return c


def test_the_fixpoint_read_answers_as_a_second_propagation(monkeypatch):
    """is_clean_pair, without a worklist and with one that logged every
    change, answers as one more propagation on a copy would: on random
    hosts with random partial colorings, on the hosts of the forcing rules
    and at the fixpoints the reduction of mixed instances reaches."""
    answers = Counter()

    def agree(g, c, wl=None):
        want = reference_is_clean_pair(g, c)
        assert is_clean_pair(g, c) == want, (g.edges(), c.state)
        if wl is not None:
            assert is_clean_pair(g, c, wl) == want, (g.edges(), c.state)
        return want

    rng, scattered = random.Random(41), []
    for i in range(400):
        g = random_host(rng, rng.randint(3, 12), rng.choice((0.15, 0.3, 0.5)))
        if i % 2:
            c = PartialColoring({v: rng.choice((BLACK, WHITE)) for v in g.vertices if rng.random() < 0.2})
        else:
            c = _scattered_blacks(rng, g)
        answer = agree(g, c, Worklist())
        if i % 2 == 0:
            # the scattered blacks pass the checks before the basic rules
            leaf = any(g.degree(v) < 2 for v in c.blacks())
            answers["scattered", answer, leaf] += 1
            scattered.append((g, c.copy()))
        wl = Worklist()
        if propagate(g, c, wl=wl) is None:
            agree(g, c, wl)
    for g, colors in FORCING_HOSTS.values():
        answers["forcing", agree(g, PartialColoring(colors))] += 1
    # without degree_one, only the basic rules fault a black of degree < 2
    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(r for r in CATALOG if r.id != "degree_one"))
    for g, c in scattered:
        agree(g, c)
    monkeypatch.setattr(dimatch.rules, "CATALOG", CATALOG)
    monkeypatch.setattr(dimatch.rewrite, "is_clean_pair", lambda g, c, wl: agree(g, c, wl))
    for seed in range(200):
        try:
            g = mixed_instance(7 + seed % 16, seed)
        except GeneratorError:
            continue
        rr = dimatch.rewrite.reduce_to_irreducible(g)
        answers["fixpoint", not rr.is_refuted] += 1
    # among the scattered blacks, the basic rules at a black of degree < 2
    # and the catalog's read each fault many pairs
    assert answers["scattered", False, True] >= 20 and answers["scattered", False, False] >= 20, answers
    assert answers["forcing", False] >= 15 and answers["fixpoint", True] >= 100, answers


def test_fixpoint_check_skips_rules_already_scanned_whole_on_the_final_state(monkeypatch):
    """A claw joining two triangles is YES with an empty trace.  It is
    rigid once degree_one has fired, so the reduction ends there and reads
    no fixpoint.  Without that exit, the driver's propagation last scanned
    square_alternation and triangle_outsider from anchors, after
    degree_one fired, and every other rule whole once nothing more
    changed; the check scans only those two."""
    g = from_edges(10, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (7, 8), (7, 9), (7, 10), (1, 8), (4, 10)])
    calls, checking = [], []

    def counted(rule):
        def fn(g, c, *anchors):
            if checking:
                calls.append(rule.id)
            return rule.fn(g, c, *anchors)

        return rule._replace(fn=fn)

    def check(*args):
        checking.append(True)
        try:
            return is_clean_pair(*args)
        finally:
            checking.pop()

    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(counted(r) for r in CATALOG))
    monkeypatch.setattr(dimatch.rewrite, "is_clean_pair", check)
    rr = dimatch.rewrite.reduce_to_irreducible(g)
    assert not rr.is_refuted and rr.trace == [] and rr.graph is g
    assert rr.decomposition is not None and calls == []
    without_rigid_exit(monkeypatch)
    rr = dimatch.rewrite.reduce_to_irreducible(g)
    assert not rr.is_refuted and rr.trace == [] and rr.graph is g and rr.decomposition is None
    assert calls == ["square_alternation", "triangle_outsider"]


def test_the_forced_fixpoint_does_not_depend_on_rule_order(monkeypatch):
    """Chaotic iteration: with only the forced rules in the catalog, every
    order reaches the same coloring or a conflict.  On mixed instances with
    n <= 16 and the planted corpus, the catalog order, its reverse and
    random shuffles agree on whether propagation refutes, and on the
    coloring when it does not.  Only long-claw-free hosts are taken, the
    domain where every forced rule is sound and the only one `solve`
    propagates on: on a host with a long claw, an order that completes a
    valid coloring first ends propagation before an unsound rule refutes."""
    forced = [r for r in CATALOG if r.tag == FORCED]
    hosts = []
    for seed in range(120):
        try:
            hosts.append((mixed_instance(7 + seed % 10, seed), {}))
        except GeneratorError:
            continue
    hosts += [(planted(g, colors, seed), {}) for _, g, colors in PLANTED_HOSTS for seed in range(6)]
    hosts += [(g, colors) for _, g, colors in PLANTED_HOSTS]
    rng, outcomes = random.Random(26), Counter()
    for g, colors in hosts:
        if contains_s222(g) is not None:
            continue
        orders = [forced, forced[::-1], *(rng.sample(forced, len(forced)) for _ in range(3))]
        seen = set()
        for order in orders:
            monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(order))
            c = PartialColoring(colors)
            refuted = propagate(g, c) is not None
            seen.add((refuted, None if refuted else tuple(sorted(c.state.items()))))
        assert len(seen) == 1, (g.edges(), colors, seen)
        outcomes[seen.pop()[0]] += 1
    assert outcomes[True] >= 40 and outcomes[False] >= 200, outcomes


def _settling_hosts() -> Iterator[tuple[str, Graph, dict[int, str]]]:
    """(corpus, host, initial coloring): mixed instances with n <= 16, the
    planted corpus, seeded small random hosts under random partial
    colorings, and small planted line graphs.  Some contain a long claw."""
    for seed in range(200):
        try:
            yield "mixed", mixed_instance(7 + seed % 10, seed), {}
        except GeneratorError:
            continue
    for _, g, colors in PLANTED_HOSTS:
        yield "planted", g, colors
        for seed in range(6):
            yield "planted", planted(g, colors, seed), {}
    rng = random.Random(31)
    for _ in range(600):
        g = random_host(rng, rng.randint(2, 12), rng.uniform(0.1, 0.6))
        density = rng.choice((0.0, 0.1, 0.3))
        yield "random", g, {v: BLACK if rng.random() < 0.6 else WHITE for v in g.vertices if rng.random() < density}
    for n in range(2, 40, 2):
        yield "line", generate(GeneratorSpec(model="planted_line", n=n, seed=n)), {}


def test_a_settled_coloring_is_a_dominating_induced_matching_where_no_rule_fires():
    """Propagation ends once the basic fixpoint colors every vertex, and
    that is exact: on every long-claw-free host of `_settling_hosts` where
    propagation ends with every vertex colored, the coloring verifies, and
    no catalog rule's whole scan yields a group with an unmet demand."""
    settled = Counter()
    for corpus, g, colors in _settling_hosts():
        c = PartialColoring(colors)
        if contains_s222(g) is not None or not is_feasible_partial(g, c):
            continue
        if propagate(g, c) is not None or len(c.state) < g.n:
            continue
        assert verify_complete(g, c), (corpus, g.edges(), colors)
        for rule in CATALOG:
            for group in rule.fn(g, c):
                assert all(c.get(v) == col for v, col in group), (rule.id, corpus, g.edges(), colors, group)
        settled[corpus] += 1
    assert sum(settled.values()) >= 200 and len(settled) == 4, settled


def test_propagation_that_settles_scans_no_catalog_rule(monkeypatch):
    """No catalog rule is called on a coloring that colors every vertex: a
    path of four with one end white is settled by the basic sweep alone and
    calls none, and on the hosts of `_settling_hosts` every call sees an
    uncolored vertex, though many calls come before a settled end."""
    calls = []

    def spied(rule):
        def fn(g, c, *anchors):
            calls.append(all(v in c for v in g.vertices))
            return rule.fn(g, c, *anchors)

        return rule._replace(fn=fn)

    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(spied(r) for r in CATALOG))
    c = PartialColoring({1: WHITE})
    assert propagate(path(4), c) is None and c.state == {1: WHITE, 2: BLACK, 3: BLACK, 4: WHITE}
    assert calls == []
    before_settled = 0
    for _, g, colors in _settling_hosts():
        c = PartialColoring(colors)
        if not is_feasible_partial(g, c):
            continue
        calls.clear()
        if propagate(g, c) is None and len(c.state) == g.n:
            before_settled += len(calls)
        assert not any(calls), (g.edges(), colors)
    assert before_settled > 1000, before_settled


def test_every_rule_yields_only_groups_with_an_unmet_demand():
    """No catalog rule yields a group whose demands all hold already, whole
    or from random anchors, on seeded random hosts under random partial
    colorings and on the forcing hosts; every rule yields some group."""
    rng = random.Random(28)
    hosts = [(g, dict(coloring)) for g, coloring in FORCING_HOSTS.values()]
    for i in range(200):
        g = _leafy_host(rng, i)
        density = rng.choice((0.2, 0.4, 0.6))
        hosts.append((g, {v: rng.choice((BLACK, WHITE)) for v in g.vertices if rng.random() < density}))
    yielded = Counter()
    for g, coloring in hosts:
        c = PartialColoring(coloring)
        anchors = sorted(rng.sample(g.vertices, rng.randint(1, g.n)))
        for rule in CATALOG:
            for groups in (rule.fn(g, c), rule.fn(g, c, anchors)):
                for group in groups:
                    assert any(c.get(v) != col for v, col in group), (rule.id, g.edges(), c.state, group)
                    yielded[rule.id] += 1
    assert set(yielded) == {r.id for r in CATALOG}, yielded


def _drained(scan, g, coloring, tag):
    """The colorings one propagate scan makes from coloring, in order, and
    the conflict that ends it, if any: each group's unmet demands are
    assigned as the group is yielded, and an exchange scan stops at its
    first firing."""
    c, made = PartialColoring(coloring), []
    for group in scan(c):
        todo = [(v, col) for v, col in group if c.get(v) != col]
        for v, col in todo:
            conflict = assign(g, c, v, col)
            if conflict is not None:
                return made, str(conflict)
            made.append((v, col))
        if todo and tag != FORCED:
            break
    return made, None


# two induced seven-cycles z-u1-x-w1-w2-y-u2 sharing the vertex 4: the y of
# the first and the z of the second
TWO_SEVEN_CYCLES = from_edges(13, [(5, 6), (6, 1), (1, 7), (7, 8), (8, 4), (4, 9), (9, 5),
                                   (4, 10), (10, 2), (2, 11), (11, 12), (12, 3), (3, 13), (13, 4)])


def test_a_declared_rule_colors_as_its_full_search_would():
    """A whole scan of each declared rule, its groups applied as they come,
    makes the same colorings in the same order as the same rule over
    `find_all`, on the forcing hosts and on seeded random hosts under
    random partial colorings.  (An anchored scan may miss an unmet group
    whose least copy lies outside its anchors; propagate's anchors are a
    ball that holds every such copy, see `Orbits`.)  On TWO_SEVEN_CYCLES with
    1, 2 and 3 black, seven_cycle_step's first copy of the first cycle
    (x = 1, y = 4) fails its black test; the second cycle blackens 4, and
    only then does the mirror copy (x = 4, y = 1) pass, so that rule must
    keep it."""
    declared = [(r, o) for r in CATALOG for cell in r.fn.__closure__ or () if isinstance(o := cell.cell_contents, Orbits)]
    assert len(declared) == 12
    rng = random.Random(29)
    hosts = [(g, dict(coloring)) for g, coloring in FORCING_HOSTS.values()]
    hosts.append((TWO_SEVEN_CYCLES, {1: BLACK, 2: BLACK, 3: BLACK}))
    for i in range(150):
        g = _leafy_host(rng, i)
        hosts.append((g, {v: rng.choice((BLACK, WHITE)) for v in g.vertices if rng.random() < 0.4}))
    fired = Counter()
    for g, coloring in hosts:
        for rule, o in declared:
            def full(c):
                for emb in o.pattern.find_all(g, c.state):
                    yield [(emb[r], col) for r, col in o.demands.items()]

            want = _drained(full, g, coloring, rule.tag)
            assert _drained(lambda c: rule.fn(g, c), g, coloring, rule.tag) == want, (rule.id, g.edges(), coloring)
            fired[rule.id] += bool(want[0])
    seven = RULES_BY_ID["seven_cycle_step"]
    made, _ = _drained(lambda c: seven.fn(TWO_SEVEN_CYCLES, c), TWO_SEVEN_CYCLES, {1: BLACK, 2: BLACK, 3: BLACK}, FORCED)
    assert made == [(4, BLACK), (5, BLACK)] and len(fired) >= 10, (made, fired)


def test_a_forced_scan_applies_every_group_it_yields(monkeypatch):
    """Twenty paths on four vertices beside a cycle: degree_one blackens
    all forty supports, one group each, in its first (whole) scan; its
    second scan, from the anchors near those changes, finds nothing and
    counts as whole, so the fixpoint read skips it.  Restarting after
    every group would scan 41 times."""
    g = disjoint_union([*[path(4)] * 20, cycle(99)])
    scans = []

    def counted(rule):
        if rule.id != "degree_one":
            return rule

        def fn(g, c, *anchors):
            scans.append(anchors)
            return rule.fn(g, c, *anchors)

        return rule._replace(fn=fn)

    class Colorings(dimatch.rules.ReductionAudit):
        def __init__(self):
            self.by_rule = Counter()

        def on_color(self, g, rule_id, tag, v, color, pre):
            self.by_rule[rule_id] += 1

    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(counted(r) for r in CATALOG))
    audit, c, wl = Colorings(), PartialColoring(), Worklist()
    assert propagate(g, c, audit, wl) is None
    assert audit.by_rule["degree_one"] == 40, audit.by_rule
    assert len(scans) <= 2, len(scans)
    assert scans[0] == () and len(scans) == 2 and scans[1] and len(scans[1][0]) < g.n, scans
    assert "degree_one" in wl.scanned_whole(g)


def test_rules_the_census_rules_out_leave_no_record(monkeypatch):
    """Once propagation reaches a fixpoint, no catalog rule whose shape
    does not fit has a record in the worklist, and on the hosts where
    nothing was colored the fixpoint check calls none of them."""
    calls = []

    def counted(rule):
        def fn(g, c, *anchors):
            calls.append(rule.id)
            return rule.fn(g, c, *anchors)

        return rule._replace(fn=fn)

    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(counted(r) for r in CATALOG))
    rng = random.Random(73)
    hosts = [cycle(n) for n in range(5, 17)]
    # two disjoint cycles
    hosts += [Graph(range(1, a + b + 1), cycle(a).edges() + [(u + a, v + a) for u, v in cycle(b).edges()])
              for a in (3, 5, 6) for b in (3, 5, 7)]
    hosts += [_leafy_host(rng, i) for i in range(200)]
    unrecorded = probed = 0
    for g in hosts:
        c, wl = PartialColoring(), Worklist()
        if propagate(g, c, wl=wl) is not None:
            continue
        ruled_out = {r.id for r in SHAPED if not r.shape.fits(g)}
        assert not ruled_out & (wl.quiet.keys() | wl.whole.keys()), (g.edges(), ruled_out)
        unrecorded += len(ruled_out)
        if not c.state:
            calls.clear()
            assert is_clean_pair(g, c, wl)
            assert not ruled_out & set(calls), (g.edges(), calls)
            probed += 1
    assert unrecorded >= 500 and probed >= 15, (unrecorded, probed)


def test_the_dispatch_plan_follows_a_rebound_catalog(monkeypatch):
    """Rebinding CATALOG to copies built as Rule(id, tag, fn), as a tracer
    does, makes propagate call every copy; binding the shaped rules back
    calls only those the census lets through and the coloring has enough
    black vertices for, and this holds each time the two bindings
    alternate.  On the uncolored cycle(7) the rules with a black role are
    not called, on cycle(6) with two blacks that no rule moves they are.
    Once the catalog is restored, no copy is called."""
    hosts = ((cycle(7), {}), (cycle(6), {1: BLACK, 4: BLACK}))
    calls = []

    def counted(rule, tag):
        def fn(g, c, *anchors):
            calls.append((tag, rule.id))
            return rule.fn(g, c, *anchors)

        return fn

    def gated(g, colors):
        blacks = list(colors.values()).count(BLACK)
        return [("shaped", r.id) for r in CATALOG
                if r.shape is None or r.shape.fits(g) and r.shape.black_roles <= blacks]

    shaped = tuple(r._replace(fn=counted(r, "shaped")) for r in CATALOG)
    bare = tuple(Rule(r.id, r.tag, counted(r, "bare")) for r in CATALOG)
    wanted = [gated(g, colors) for g, colors in hosts]
    assert 0 < len(wanted[0]) < len(wanted[1]) < len(CATALOG)
    assert {rid for _, rid in wanted[1]} - {rid for _, rid in wanted[0]} == {
        "square_alternation", "black_pair_neighbors", "chain_step"}
    for _ in range(2):
        for table, tag in ((shaped, "shaped"), (bare, "bare")):
            monkeypatch.setattr(dimatch.rules, "CATALOG", table)
            for (g, colors), want in zip(hosts, wanted):
                calls.clear()
                c = PartialColoring(colors)
                assert propagate(g, c) is None and c.state == colors
                assert calls == (want if tag == "shaped" else [("bare", r.id) for r in CATALOG])
    monkeypatch.undo()
    calls.clear()
    assert propagate(cycle(7), PartialColoring()) is None
    assert calls == []


BLACK_RULES = [r for r in CATALOG if r.shape is not None and r.shape.black_roles]


def test_a_rule_yields_nothing_under_fewer_blacks_than_its_black_roles():
    """The black-count gate of `propagate` is exact: on seeded mixed
    instances and the planted corpus, long-claw-free, a catalog rule
    yields no group, whole or from random anchors, under random colorings
    that hold fewer black vertices than its shape has MUST_BLACK roles.
    Only six declared rules carry such roles."""
    assert {r.id for r in BLACK_RULES} == {
        "square_alternation", "black_pair_neighbors", "chain_step",
        "triangle_circuit", "seven_cycle_step", "braced_pendant"}
    hosts = []
    for seed in range(60):
        try:
            hosts.append(mixed_instance(7 + seed % 14, seed))
        except GeneratorError:
            continue
    hosts += [planted(g, colors, seed) for _, g, colors in PLANTED_HOSTS for seed in range(3)]
    hosts += [g for _, g, _ in PLANTED_HOSTS]
    rng, cases = random.Random(32), Counter()
    for g in hosts:
        if contains_s222(g) is not None:
            continue
        for rule in BLACK_RULES:
            fits = rule.shape.fits(g)
            for blacks in range(rule.shape.black_roles):
                density = rng.choice((0.0, 0.3, 0.6))
                whites = [v for v in g.vertices if rng.random() < density]
                rest = [v for v in g.vertices if v not in whites]
                c = PartialColoring({v: WHITE for v in whites})
                for v in rng.sample(rest, min(blacks, len(rest))):
                    c.state[v] = BLACK
                anchors = sorted(rng.sample(g.vertices, rng.randint(1, g.n)))
                assert next(rule.fn(g, c), None) is None, (rule.id, g.edges(), c.state)
                assert next(rule.fn(g, c, anchors), None) is None, (rule.id, g.edges(), c.state, anchors)
                cases[rule.id, fits] += 1
    fitting = sum(k for (_, fits), k in cases.items() if fits)
    assert fitting >= 1000 and all(cases[r.id, True] >= 50 for r in BLACK_RULES), cases


def test_no_rule_scans_in_a_round_that_ends_rigid_once_cleaned(monkeypatch):
    """In a propagation round whose basic fixpoint leaves a pair that is
    rigid once cleaned, no catalog rule is called.  The pair is judged
    apart from the rigidity test, by `decompose` on a cleaned copy, and
    the test agrees with that judgement in every round.  On mixed
    instances of orders 7 to 16, many rounds end so with something to
    clean, and the rules do scan in the other rounds."""
    test = dimatch.rules.rigid_pair
    rigid, called, rounds = [False], Counter(), Counter()

    def counted(rule):
        def fn(g, c, *anchors):
            called[rigid[0]] += 1
            return rule.fn(g, c, *anchors)

        return rule._replace(fn=fn)

    def judged(g, c, wl):
        step = clean(g, c)
        h, d = g.copy(), c.copy()
        if step is not None:
            step.make(h, d)
        rigid[0] = assert_irreducible_structure(h, d) is None
        rounds[rigid[0], step is not None] += 1
        accepted = test(g, c, wl)
        assert accepted == rigid[0], (g.edges(), c.state)
        return accepted

    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(counted(r) for r in CATALOG))
    monkeypatch.setattr(dimatch.rules, "rigid_pair", judged)
    for seed in range(1500):
        try:
            g = mixed_instance(7 + seed % 10, seed)
        except GeneratorError:
            continue
        dimatch.rewrite.reduce_to_irreducible(g)
    assert called[True] == 0, called
    assert rounds[True, True] >= 350 and called[False] >= 5000, (rounds, called)


def test_a_gated_rule_leaves_a_whole_record(monkeypatch):
    """After each propagation along the reduction of 80 disjoint uncolored
    cycles, one contract_path step each, the first included, the
    worklist's whole records on the graph as it stands list every rule
    with a black role that the census admits, though after a rewrite step
    an ungated rescan would be anchored; none of them is called.  The last
    propagation, on the 80 triangles the cycles contract to, ends at that
    rigid pair before any rule, and leaves no record."""
    called = []

    def counted(rule):
        def fn(g, c, *anchors):
            called.append(rule.id)
            return rule.fn(g, c, *anchors)

        return rule._replace(fn=fn)

    checked = []

    def propagate_then_check(g, c, audit=None, wl=None):
        conflict = propagate(g, c, audit, wl)
        assert conflict is None and not c.state
        if wl.rigid:
            assert g.n == 240 and not wl.scanned_whole(g), (g.n, wl.scanned_whole(g))
        else:
            admitted = {r.id for r in BLACK_RULES if r.shape.fits(g)}
            assert admitted and admitted <= wl.scanned_whole(g), (g.n, admitted, wl.scanned_whole(g))
        checked.append(g.n)
        return conflict

    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(counted(r) for r in CATALOG))
    monkeypatch.setattr(dimatch.rewrite, "propagate", propagate_then_check)
    g = cycle_union(80)
    rr = dimatch.rewrite.reduce_to_irreducible(g)
    assert rr.rewrite_steps == 80 and checked[0] == g.n and len(checked) == rr.rewrite_steps + 1, checked
    assert rr.decomposition is not None and checked[-1] == 240
    assert not {r.id for r in BLACK_RULES} & set(called), called


def test_the_fixpoint_probe_asks_no_census_once_the_plan_exists(monkeypatch):
    """On the clean pairs the reduction of cycle(7) and of mixed instances
    reaches without the rigid exit, is_clean_pair makes no `Pattern.fits`
    call: the plan of the pair's degree census was built while reducing,
    and the rules it leaves out are skipped without asking."""
    fits, asked = Pattern.fits, []

    def counted_fits(self, g):
        asked.append(self.name)
        return fits(self, g)

    pairs, rng = [], random.Random(31)
    hosts = [cycle(7)] + [mixed_instance(rng.randint(8, 16), rng.randrange(1 << 30)) for _ in range(40)]
    without_rigid_exit(monkeypatch)
    for g in hosts:
        rr = dimatch.rewrite.reduce_to_irreducible(g)
        if not rr.is_refuted and rr.graph.n:
            pairs.append((rr.graph, rr.coloring))
    monkeypatch.setattr(Pattern, "fits", counted_fits)
    ruled_out = 0
    for g, c in pairs:
        ruled_out += sum(r.shape is not None and not fits(r.shape, g) for r in CATALOG)
        assert is_clean_pair(g, c)
        assert asked == [], (g.edges(), asked)
    assert len(pairs) >= 10 and ruled_out >= 50, (len(pairs), ruled_out)


def test_scanned_whole_needs_the_same_graph_and_log_length():
    g = cycle(6)
    wl = Worklist()
    wl.found_nothing("a", g)
    wl.found_nothing("b")
    assert wl.scanned_whole(g) == {"a"}
    assert wl.scanned_whole(cycle(6)) == set()
    wl.log.append(1)
    assert wl.scanned_whole(g) == set()


def test_an_unlogged_edit_ends_whole_records_and_cached_balls():
    """An edit that logs nothing (as when a cleaning step drops a whole
    component) still ends every whole record on the graph and every ball
    cached for it: the key leaves scanned_whole, and anchors drop the
    removed vertex."""
    g, wl = cycle(8), Worklist()
    wl.found_nothing("near")
    wl.log.append(3)
    wl.found_nothing("whole", g)
    assert wl.scanned_whole(g) == {"whole"}
    assert wl.anchors(g, "near", 1) == [2, 3, 4]
    g.edit(remove_vertices=[4])
    assert wl.scanned_whole(g) == set()
    assert wl.anchors(g, "near", 1) == [2, 3]


def _fresh_ball(g: Graph, logged: list[int], radius: int) -> list[int]:
    """The logged vertices still in g and every vertex within radius of
    them, by a breadth-first search from scratch."""
    ball = {v for v in logged if v in g}
    for _ in range(radius):
        ball |= {w for v in ball for w in g.neighbors(v)}
    return sorted(ball)


def test_anchors_equal_a_fresh_ball_for_every_radius_log_and_graph():
    """Worklist.anchors grows one search per log position and keeps it
    only while the graph and the log length stay; asked for radii 0-4 in
    any order, it returns the ball a fresh search gives, on random hosts
    and logs that name ids no longer in the graph, and None on a key's
    first pass, without a radius, after at least g.n changes and exactly
    when the fresh ball holds every vertex of g."""
    rng = random.Random(61)
    keys = ["a", "b", "c", "d"]
    nones = {"first": 0, "no radius": 0, "too many": 0, "full ball": 0}
    balls = 0
    for trial in range(150):
        n = rng.randint(3, 24)
        g, wl = random_host(rng, n, rng.uniform(0.05, 0.35)), Worklist()
        for _ in range(rng.randint(2, 6)):
            choice = rng.random()
            if choice < 0.3:
                # a new graph at the same log length
                drop = rng.sample(g.vertices, rng.randint(0, min(2, g.n)))
                cut = [tuple(rng.sample(g.vertices, 2)) for _ in range(rng.randint(0, 3))] if g.n > 1 else []
                g = g.rewrite(drop, remove_edges=cut)
            elif choice < 0.8:
                wl.log += [rng.choice(g.vertices) if g.n and rng.random() < 0.7 else rng.randint(1, 4 * n)
                           for _ in range(rng.randint(1, 4))]
            for key in rng.sample(keys, rng.randint(0, 2)):
                wl.quiet[key] = rng.randint(max(0, len(wl.log) - 2 * n), len(wl.log))
            radii = [0, 1, 2, 3, 4, *rng.choices(range(5), k=3), None]
            rng.shuffle(radii)
            for radius in radii:
                for key in keys:
                    since = wl.quiet.get(key)
                    got = wl.anchors(g, key, radius)
                    if since is None:
                        nones["first"] += got is None
                        assert got is None
                    elif radius is None:
                        nones["no radius"] += got is None
                        assert got is None
                    elif len(wl.log) - since >= g.n:
                        nones["too many"] += got is None
                        assert got is None
                    else:
                        ball = _fresh_ball(g, wl.log[since:], radius)
                        if len(ball) == g.n:
                            nones["full ball"] += got is None
                            assert got is None, (g.edges(), wl.log, since, radius)
                        else:
                            assert got == ball, (g.edges(), wl.log, since, radius)
                            balls += 1
    assert min(nones.values()) > 50 and balls > 2000, (nones, balls)


BUTTERFLY = pattern("butterfly", "v a b c d", "v-a v-b v-c v-d a-b c-d")


def _wing_host(rng: random.Random, i: int) -> Graph:
    """Vertex 1 of degree four with the one inner edge 2-3, random edges
    among the other vertices, and for odd i a bowtie whose centre is
    joined to a random vertex."""
    n = rng.randint(9, 13)
    p = rng.uniform(0.08, 0.25)
    edges = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)]
    edges += [(u, w) for u in range(2, n + 1) for w in range(max(u + 1, 6), n + 1) if rng.random() < p]
    if i % 2 == 0:
        return from_edges(n, edges)
    c = n + 1
    edges += [(c, c + 1), (c, c + 2), (c + 1, c + 2), (c, c + 3), (c, c + 4), (c + 3, c + 4), (rng.randint(2, n), c)]
    return from_edges(n + 5, edges)


def test_lone_wing_is_sound_beside_a_butterfly(monkeypatch):
    """Every vertex lone_wing blackens is black in every completion, on
    graphs with and without an induced butterfly: with it white, brute_dim
    finds none.  Enough of the firings fall on YES graphs, where the claim
    has teeth.  On lone_wing's host beside a bowtie, propagation with
    lone_wing alone blackens its vertex."""
    rng = random.Random(79)
    fired = Counter()
    for i in range(400):
        g = _wing_host(rng, i)
        butterfly = next(BUTTERFLY.find_all(g), None) is not None
        yes = brute_dim(g) is not None
        for ((v, col),) in RULES_BY_ID["lone_wing"].fn(g, PartialColoring()):
            assert col == BLACK and brute_dim(g, PartialColoring({v: WHITE})) is None, (g.edges(), v)
            fired[butterfly, yes] += 1
    for butterfly in (True, False):
        assert fired[butterfly, True] + fired[butterfly, False] >= 50 and fired[butterfly, True] >= 10, fired
    monkeypatch.setattr(dimatch.rules, "CATALOG", (RULES_BY_ID["lone_wing"],))
    host, coloring = FORCING_HOSTS["lone_wing"]
    bowtie = [(11, 12), (11, 13), (12, 13), (11, 14), (11, 15), (14, 15)]
    g = Graph([*host.vertices, 11, 12, 13, 14, 15], host.edges() + bowtie)
    assert next(BUTTERFLY.find_all(g), None) is not None
    c = PartialColoring(coloring)
    assert propagate(g, c) is None and c.get(1) == BLACK
    assert brute_dim(g, PartialColoring({**coloring, 1: WHITE})) is None


def test_clean_pair_violation_reports_k4():
    assert clean_pair_violation(complete(4)) == "vertex 1 lies in 3 triangles"


def test_clean_pair_violation_reports_triangle_links():
    # two triangles joined by two edges sharing an endpoint
    g = from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 4)])
    msg = clean_pair_violation(g)
    assert msg is not None


def test_clean_pair_violation_reports_prism():
    # two triangles joined by a perfect matching of three edges
    g = from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)])
    msg = clean_pair_violation(g)
    assert msg == "triangles (1, 2, 3) and (4, 5, 6) joined by 3 edges"


def test_clean_pair_violation_accepts_unjoined_triangles():
    g = from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert clean_pair_violation(g) is None
