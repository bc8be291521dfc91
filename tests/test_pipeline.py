from __future__ import annotations

import ast
import copy
import random
from collections import Counter
from pathlib import Path

import pytest

import dimatch
import dimatch.rules
import dimatch.pipeline
from dimatch.coloring import BLACK, verify_complete
from dimatch.graph import Graph, complete, cycle, from_edges, path
from dimatch.oracle import GeneratorError, brute_dim, mixed_instance
from dimatch.patterns import contains_s222
from dimatch.pipeline import LongClawPresent, solve
from dimatch.rewrite import RewriteStep, clean, reduce_to_irreducible

from .util import (
    PLANTED_HOSTS,
    REWRITE_HOSTS,
    OracleAudit,
    decorate,
    disjoint_union,
    nonisomorphic_graphs,
    planted,
    random_host,
    reference_contains_s222,
    triangle_ring,
    without_rigid_exit,
)


def test_no_check_in_the_solver_is_an_assert_statement():
    """`python -O` strips assert statements, so every check the solver
    makes raises explicitly."""
    found = [
        (path.name, node.lineno)
        for path in sorted(Path(dimatch.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_c5_is_no_with_witness():
    rep = solve(cycle(5))
    assert rep.decision == "NO"
    assert "five-cycle" in rep.witness or "c5" in rep.witness


def test_k3_is_yes_with_one_white():
    rep = solve(complete(3))
    assert rep.is_yes
    assert verify_complete(complete(3), rep.certificate)
    whites = [v for v in complete(3).vertices if rep.certificate.get(v) != BLACK]
    assert len(whites) == 1


def test_k4_is_no():
    assert solve(complete(4)).decision == "NO"


def test_long_claw_input_rejected():
    g = from_edges(7, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7)])
    with pytest.raises(LongClawPresent):
        solve(g)


def test_long_claw_rejection_carries_the_reference_claw():
    """On seeded hosts with a long claw, solve raises LongClawPresent.  Its
    embedding is the reference claw as a plain dict, and its message lists
    that claw in sorted role order."""
    long_claw = from_edges(7, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7)])
    with pytest.raises(LongClawPresent) as info:
        solve(long_claw)
    assert str(info.value) == "input contains an induced long claw: <a1:2,a2:3,a3:4,b1:5,b2:6,b3:7,c:1>"
    rng = random.Random(223)
    claws = 0
    for trial in range(300):
        g = random_host(rng, rng.randint(7, 14), rng.uniform(0.15, 0.4))
        want = reference_contains_s222(g)
        if want is None:
            continue
        with pytest.raises(LongClawPresent) as info:
            solve(g)
        emb = info.value.embedding
        assert type(emb) is dict and emb == want, (trial, g.edges())
        roles = ",".join(f"{r}:{emb[r]}" for r in ("a1", "a2", "a3", "b1", "b2", "b3", "c"))
        assert str(info.value) == f"input contains an induced long claw: <{roles}>"
        claws += 1
    assert claws > 50, claws


def test_the_prism_is_a_no_decided_by_exact_hitting():
    """The prism K3 x K2 (graph atlas #174) is rigid as it stands: two
    triangles joined by a perfect matching.  Its family, the two triangles
    and the three matching edges, has no exact hitting set, since the two
    chosen vertices would each cover one matching edge; so the matcher
    answers NO, as brute force does."""
    g = from_edges(6, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (5, 6)])
    rep = solve(g)
    assert rep.decision == "NO" and rep.witness == "saturating matching infeasible"
    assert rep.trace == [] and rep.irreducible_order == 6
    assert brute_dim(g) is None


def _exit_corpus():
    """Mixed instances with n = 5 to 22, the planted corpus and one graph of
    each isomorphism class on up to 7 vertices, all long-claw-free."""
    for n in range(5, 23):
        for seed in range(150):
            try:
                yield mixed_instance(n, 7919 * n + seed)
            except GeneratorError:
                continue
    for _, g, colors in PLANTED_HOSTS:
        for seed in range(100):
            yield planted(g, colors, seed)
    orders = Counter()
    for g in nonisomorphic_graphs(7):
        orders[g.n] += 1
        yield g
    assert [orders[n] for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]


def test_the_rigid_exit_keeps_every_decision(monkeypatch):
    """With the rigidity test made to refuse every pair, each reduction
    runs to its fixpoint, as without the exit; on the inputs of
    `_exit_corpus` both runs decide alike, neither raises, and every YES
    certificate verifies.  Many runs end rigid, many of them at a pair
    with white vertices or matched black pairs still to clean, and a few
    in a NO that only the matcher finds."""
    rigid = dimatch.rules.rigid_pair
    ended = Counter()

    def counted(g, c, wl):
        accepted = rigid(g, c, wl)
        ended["rigid"] += accepted
        ended["cleaned"] += accepted and clean(g, c) is not None
        return accepted

    inputs = [g for g in _exit_corpus() if contains_s222(g) is None]
    monkeypatch.setattr(dimatch.rules, "rigid_pair", counted)
    with_exit = [solve(g) for g in inputs]
    without_rigid_exit(monkeypatch)
    for g, rep in zip(inputs, with_exit):
        want = solve(g)
        assert rep.decision == want.decision, g.edges()
        for r in (rep, want):
            assert not r.is_yes or verify_complete(g, r.certificate), g.edges()
        ended[rep.decision, rep.witness == "saturating matching infeasible"] += 1
    assert len(inputs) > 7000 and ended["rigid"] > 4000 and ended["NO", True] >= 5, (len(inputs), ended)
    assert ended["cleaned"] > 3000, ended


def test_empty_and_tiny_graphs():
    assert solve(from_edges(0, [])).is_yes
    assert solve(from_edges(1, [])).is_yes  # a lone vertex is colored white
    assert solve(path(2)).is_yes
    assert solve(path(7)).is_yes


def test_disconnected_components_combine():
    g = from_edges(9, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)])
    want = brute_dim(g) is not None
    rep = solve(g)
    assert (rep.decision == "YES") == want


def test_report_counts_steps():
    rep = solve(cycle(12))
    assert rep.rewrite_steps >= 1
    assert rep.wall_time >= 0


def test_a_certificate_is_verified_twice_only_after_a_step(monkeypatch):
    """With no reduction step the irreducible pair is the input itself, so
    only `solve`'s final check reads it; a step adds the check on the
    irreducible pair before lifting."""
    calls = []

    def counted(g, c):
        calls.append(g.n)
        return verify_complete(g, c)

    monkeypatch.setattr(dimatch.pipeline, "verify_complete", counted)
    for g, steps, checked in ((complete(3), 0, [3]), (cycle(6), 1, [3, 6])):
        calls.clear()
        rep = solve(g)
        assert rep.is_yes and len(rep.trace) == steps and calls == checked


def test_randomized_agreement_with_certificates():
    rng = random.Random(123)
    for _ in range(600):
        n = rng.randint(1, 14)
        g = mixed_instance(n, rng.randrange(1 << 30))
        want = brute_dim(g) is not None
        rep = solve(g)
        assert (rep.decision == "YES") == want, g.edges()
        if rep.is_yes:
            assert verify_complete(g, rep.certificate)


def test_yes_instances_even_after_heavy_reduction():
    # chains of triangles exercise repeated rewrites
    from dimatch.oracle import GeneratorSpec, generate

    for seed in range(25):
        g = generate(GeneratorSpec(model="triangle_chain", n=15, seed=seed))
        want = brute_dim(g) is not None
        rep = solve(g)
        assert (rep.decision == "YES") == want
        if rep.is_yes:
            assert verify_complete(g, rep.certificate)


def added_ids(trace) -> list[int]:
    return [v for e in trace if isinstance(e, RewriteStep) for v in e.added_ids.values()]


def _host_parts(rng: random.Random, k: int) -> list[Graph]:
    hosts = [g for rid in sorted(REWRITE_HOSTS) for g, _ in REWRITE_HOSTS[rid]]
    parts = []
    while len(parts) < k:
        g = rng.choice(hosts)
        if rng.random() < 0.6:
            g = decorate(g, rng.randrange(1 << 20))
        if g.n <= 20 and len(g.components()) == 1 and contains_s222(g) is None:
            parts.append(g)
    return parts


def test_planted_shapes_answer_what_the_oracle_answers(monkeypatch):
    """C4, C5 and every rule's hosts, planted in random gadget context:
    on each long-claw-free input of at most 20 vertices, `solve` answers as
    `brute_dim` does.  Some irreducible pairs keep a star of two leaves, a
    shape once refused as a structure break."""
    stars = []
    build = dimatch.pipeline.build_family

    def recorded(g, c, d):
        stars.extend(len(s.leaves) for s in d.stars)
        return build(g, c, d)

    monkeypatch.setattr(dimatch.pipeline, "build_family", recorded)
    checked = 0
    for name, g, colors in PLANTED_HOSTS:
        for seed in range(100):
            h = planted(g, colors, seed)
            if h.n > 20 or contains_s222(h) is not None:
                continue
            checked += 1
            rep = solve(h)
            assert rep.is_yes == (brute_dim(h) is not None), (name, seed, h.edges())
    assert checked > 3000 and stars.count(2) > 5, (checked, stars.count(2))


# long-claw-free inputs on which `solve` takes a rule that never fired on
# the 36 221 inputs of an earlier census (ROADMAP item 6)
REACHED = {
    # the inputs once pinned here, without the pendant edge 4-11 or without
    # the edge 6-8, end rigid, or rigid once cleaned, before this rule's turn
    "anchored_pentagon": [(1, 2), (1, 5), (1, 6), (1, 7), (2, 3), (2, 9), (2, 10), (3, 4), (4, 5), (4, 8), (4, 11),
                          (6, 7), (6, 8), (9, 10)],
    "seven_cycle_step": [(1, 2), (1, 7), (1, 8), (1, 9), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (8, 9)],
    # without the edge 2-9, the input once pinned here is rigid once cleaned
    # before this rule's turn
    "triangle_circuit": [(1, 2), (1, 3), (1, 4), (2, 3), (2, 7), (2, 9), (3, 8), (4, 5), (4, 9), (4, 10), (5, 6),
                         (6, 7), (6, 8), (9, 10)],
    "spoked_triangle": [(1, 2), (1, 3), (1, 4), (1, 9), (2, 3), (2, 5), (2, 11), (3, 6), (4, 7), (5, 7), (6, 7),
                        (7, 8), (9, 10), (10, 11), (10, 12)],
    "prune_twin_triangle": [(1, 2), (1, 3), (1, 7), (1, 8), (2, 3), (4, 5), (4, 6), (4, 8), (5, 6), (7, 10), (7, 11),
                            (7, 12), (8, 9), (8, 10), (9, 10), (11, 12)],
    "prune_capped_house": [(1, 5), (1, 8), (1, 9), (2, 3), (2, 5), (3, 4), (3, 5), (4, 7), (5, 6), (6, 7), (8, 9)],
    "fold_fan5": [(1, 2), (1, 3), (1, 4), (1, 5), (1, 12), (2, 6), (3, 7), (4, 8), (5, 9), (6, 7), (6, 10), (6, 14),
                  (7, 10), (8, 9), (8, 11), (8, 13), (9, 11), (13, 15), (14, 15)],
    "fold_fan4": [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8), (5, 9), (6, 7), (6, 10), (6, 13), (7, 10),
                  (8, 9), (8, 11), (9, 11), (9, 12), (12, 14), (13, 14)],
    "fold_fan_leaf": [(1, 2), (1, 3), (1, 8), (1, 9), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6), (6, 7), (7, 13),
                      (7, 14), (9, 10), (10, 11), (10, 12), (11, 12), (13, 14)],
    "fold_hub": [(1, 2), (1, 8), (1, 9), (2, 3), (2, 4), (2, 7), (3, 4), (4, 5), (5, 6), (6, 7), (6, 10), (8, 9)],
    "fold_claw_chain": [(1, 2), (1, 10), (1, 14), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7), (7, 8), (7, 9), (8, 9),
                        (10, 11), (11, 12), (11, 13), (12, 13)],
}


@pytest.mark.parametrize("rule_id", sorted(REACHED))
def test_solve_reaches_a_rule_the_census_never_fired(rule_id):
    """`solve` takes the rule, every step agrees with the oracle, and so
    does the answer."""
    g = from_edges(max(v for e in REACHED[rule_id] for v in e), REACHED[rule_id])
    assert contains_s222(g) is None
    audit = OracleAudit(cap=g.n)
    rep = solve(g, audit=audit)
    assert rule_id in {rid for rid, _ in audit.color_events} | set(audit.rewrite_events)
    assert audit.violations == []
    assert rep.is_yes == (brute_dim(g) is not None)


def test_union_of_hosts_is_yes_iff_every_part_is():
    rng = random.Random(2024)
    audit = OracleAudit()
    decided = {True: 0, False: 0}
    for _ in range(40):
        parts = _host_parts(rng, rng.randint(2, 4))
        g = disjoint_union(parts)
        want = all(brute_dim(p) is not None for p in parts)
        rep = solve(g, audit=audit)
        assert rep.is_yes == want, [p.edges() for p in parts]
        if rep.is_yes:
            assert verify_complete(g, rep.certificate)
        decided[want] += 1
    assert audit.violations == [], audit.violations[:3]
    assert min(decided.values()) >= 5, decided


def test_union_with_one_no_part_reports_its_witness():
    rng = random.Random(77)
    checked = 0
    for seed in range(400):
        no_part = mixed_instance(rng.randint(6, 12), seed)
        if len(no_part.components()) != 1 or brute_dim(no_part) is not None:
            continue
        alone = solve(no_part)
        # without fresh vertices the part's run cannot depend on the labels
        # of the other parts, so its witness carries over verbatim
        if added_ids(alone.trace):
            continue
        yes_parts = [p for p in _host_parts(rng, 6) if brute_dim(p) is not None][:2]
        g = disjoint_union(yes_parts + [no_part])
        shifted = g.subgraph(v for v in g.vertices if v > max(g.vertices) - no_part.n)
        rep = solve(g)
        assert rep.decision == "NO"
        assert rep.witness == solve(shifted).witness
        checked += 1
        if checked == 12:
            break
    assert checked == 12


@pytest.mark.parametrize("rule_id", ["fold_fan_leaf", "fold_twin_spiders"])
def test_fresh_ids_are_unique_across_components(rule_id):
    fresh = 0
    for g0, _ in REWRITE_HOSTS[rule_id]:
        for seed in range(12):
            part = decorate(g0, seed)
            if contains_s222(part) is not None:
                continue
            g = disjoint_union([part, part])
            rep = solve(g)
            ids = added_ids(rep.trace)
            assert not set(ids) & set(g.vertices), (seed, ids)
            assert len(ids) == len(set(ids)), (seed, ids)
            fresh += len(ids)
    assert fresh > 0


# each cached structure of a graph and the query that builds it
CACHE_QUERIES = {
    "components": Graph.components,
    "degree_counts": Graph.degree_counts,
    "degree_census": Graph.degree_census,
    "low_degree": Graph.low_degree_vertices,
    "triangles": Graph.triangles,
    "triangles_at": Graph.triangles_at,
}


def _state(g: Graph) -> tuple:
    """g's edges, vertex sequence, m and cached structures, copied."""
    return g.edges(), tuple(g.vertices), g.m, copy.deepcopy(g._cache)


def _report(rep) -> tuple:
    return rep.decision, rep.certificate, rep.witness, rep.trace, rep.rewrite_steps, rep.irreducible_order


def test_solving_never_edits_its_input():
    """cycle(240), contracted in one step, a triangle ring, one step per
    three path vertices, a union of YES mixed instances and mixed
    instances of one and of several components, some with every cached
    structure built beforehand: solve and reduce_to_irreducible leave the input's edges,
    vertex sequence, m and cached values as they were, every structure
    cached afterwards equals a fresh build's, and solving the same graph
    twice gives identical reports."""
    rng = random.Random(41)
    mixed, yes_parts = [], []
    while len(mixed) < 24:
        try:
            g = mixed_instance(rng.randint(8, 18), rng.randrange(1 << 30))
        except GeneratorError:
            continue
        mixed.append(g)
        if brute_dim(g) is not None and len(g.components()) == 1:
            yes_parts.append(g)
    inputs = [cycle(240), triangle_ring(20), disjoint_union(yes_parts[:6])] + mixed
    assert sum(len(g.components()) > 1 for g in inputs) >= 3
    steps = 0
    for i, g in enumerate(inputs):
        if i % 2:
            for query in CACHE_QUERIES.values():
                query(g)
        before = _state(g)
        first = solve(g)
        assert _state(g)[:3] == before[:3]
        assert all(g._cache[key] == value for key, value in before[3].items())
        rr = reduce_to_irreducible(g)
        steps += rr.rewrite_steps
        assert _state(g)[:3] == before[:3]
        assert all(g._cache[key] == value for key, value in before[3].items())
        fresh = Graph(g.vertices, g.edges())
        for key, value in g._cache.items():
            assert value == CACHE_QUERIES[key](fresh), key
        assert _report(solve(g)) == _report(first)
    assert steps > 60
