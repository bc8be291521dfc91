from __future__ import annotations

import random

import pytest

from dimatch.coloring import BLACK, WHITE, PartialColoring, verify_complete
from dimatch.graph import complete, cycle, from_edges, path
from dimatch.oracle import brute_dim, mixed_instance
from dimatch.patterns import contains_s222
from dimatch.rewrite import (
    REWRITE_RULES,
    LiftError,
    bad_vertex_count,
    clean,
    format_trace,
    lift_completion,
    measure,
    reduce_to_irreducible,
    try_rewrite,
)

from .util import REWRITE_HOSTS, OracleAudit, all_completions, decorate, replay_backwards

RULES_BY_ID = {r.id: r for r in REWRITE_RULES}


def test_every_rule_has_hosts():
    assert set(REWRITE_HOSTS) == {r.id for r in REWRITE_RULES}


@pytest.mark.parametrize(
    "rule_id,idx",
    [(rid, i) for rid, hosts in sorted(REWRITE_HOSTS.items()) for i in range(len(hosts))],
)
def test_rewrite_rule_on_host(rule_id, idx):
    g, coloring = REWRITE_HOSTS[rule_id][idx]
    c = PartialColoring(coloring)
    rule = RULES_BY_ID[rule_id]
    assert contains_s222(g) is None, "host must be long-claw free"
    emb = rule.find(g, c)
    assert emb is not None, "pattern must match its host"
    g2, c2, step = rule.apply(g, c, emb)
    # validity: completability is preserved in both directions
    assert (brute_dim(g, c) is not None) == (brute_dim(g2, c2) is not None)
    # no long claw is introduced
    assert contains_s222(g2) is None
    # survivors keep identities and colors
    for v in g2.vertices:
        if v not in step.added_ids.values():
            assert v in g
            assert c2.get(v) == c.get(v)
    # every completion of the reduced pair lifts to a verified completion
    # of exactly g's vertices that keeps every survivor's color
    survivors = [v for v in g2.vertices if v not in step.added_ids.values()]
    for full in all_completions(g2, c2):
        lifted = lift_completion([step], full)
        assert verify_complete(g, lifted), (rule_id, idx, full.state)
        assert set(lifted.state) == set(g.vertices), (rule_id, idx, full.state)
        assert all(lifted.get(v) == full.get(v) for v in survivors), (rule_id, idx, full.state)
    # the trace reconstructs the original graph
    assert replay_backwards([step], g2) == g


def test_lift_rejects_completion_with_no_valid_choice():
    # contracting 1-2-3-4-5 joins 1 and 5; with both white no coloring of
    # 2, 3, 4 is valid, since 2 and 4 would each need a white neighbour
    g = path(5)
    c = PartialColoring()
    rule = RULES_BY_ID["contract_path"]
    emb = rule.find(g, c)
    assert emb is not None
    _, _, step = rule.apply(g, c, emb)
    with pytest.raises(LiftError):
        lift_completion([step], PartialColoring({1: WHITE, 5: WHITE}))


def test_lift_checks_survivors_of_a_step_that_removes_no_vertex():
    # unlink_triangles only drops the edge b-x, so b and x of one color
    # cannot both be valid on the graph before it
    g, coloring = REWRITE_HOSTS["unlink_triangles"][0]
    c = PartialColoring(coloring)
    rule = RULES_BY_ID["unlink_triangles"]
    g2, _, step = rule.apply(g, c, rule.find(g, c))
    b, x = step.removed_survivor_edges[0]
    colors = {v: BLACK for v in g2.vertices} | {b: WHITE, x: WHITE}
    with pytest.raises(LiftError):
        lift_completion([step], PartialColoring(colors))


def test_rewrite_priority_is_first_match():
    g, coloring = REWRITE_HOSTS["prune_tail"][0]
    out = try_rewrite(g, PartialColoring(coloring))
    assert out is not None
    assert out[2].rule_id == "prune_tail"


def test_no_rewrite_on_triangle():
    assert try_rewrite(complete(3), PartialColoring()) is None


def test_cycle_contracts_to_triangle():
    # a six-cycle carries a contractible run of degree-two vertices
    out = try_rewrite(cycle(6), PartialColoring())
    assert out is not None and out[2].rule_id == "contract_path"
    assert out[0].n == 3


def test_contract_path_shortens_long_paths():
    # a run of inner degree-two vertices between two triangle anchors
    g = from_edges(11, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                        (1, 8), (1, 9), (8, 9), (7, 10), (7, 11), (10, 11)])
    out = try_rewrite(g, PartialColoring())
    assert out is not None and out[2].rule_id == "contract_path"
    g2 = out[0]
    assert g2.n == g.n - 3
    assert (brute_dim(g) is not None) == (brute_dim(g2) is not None)


# -- measure and driver --------------------------------------------------------


def test_bad_vertex_count():
    from dimatch.graph import star

    assert bad_vertex_count(star(5)) == 1  # degree five
    assert bad_vertex_count(star(4)) == 1  # degree four, no triangle
    good = from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5)])
    assert bad_vertex_count(good) == 0  # triangle partners have degree two
    assert bad_vertex_count(cycle(6)) == 0


def test_measure_decreases_on_hosts():
    for rid, hosts in REWRITE_HOSTS.items():
        for g, coloring in hosts:
            rule = RULES_BY_ID[rid]
            c = PartialColoring(coloring)
            emb = rule.find(g, c)
            g2, _, _ = rule.apply(g, c, emb)
            assert measure(g2) < measure(g), rid


def test_reduce_k4_refutes():
    rr = reduce_to_irreducible(complete(4))
    assert rr.is_refuted


def test_reduce_c5_refutes_with_component_witness():
    rr = reduce_to_irreducible(cycle(5))
    assert rr.is_refuted
    assert rr.refuted.rule == "c5_component"


def test_reduce_k3_succeeds():
    rr = reduce_to_irreducible(complete(3))
    assert not rr.is_refuted
    # K3 is already irreducible: nothing to do
    assert rr.graph.n == 3


def test_reduce_emits_clean_steps_and_lift_restores_them():
    g = path(2)
    rr = reduce_to_irreducible(g)
    assert not rr.is_refuted and rr.graph.n == 0
    assert any(e.rule_id == "clean" for e in rr.trace)
    assert replay_backwards(rr.trace, rr.graph) == g
    final = PartialColoring()
    lifted = lift_completion(rr.trace, final)
    assert verify_complete(g, lifted)


def test_lift_checks_clean_steps():
    # cleaning the white middle of a path keeps its color when lifted, and
    # with both ends white no valid coloring of the path remains
    g2, _, step = clean(path(3), PartialColoring({2: WHITE}))
    assert set(g2.vertices) == {1, 3}
    with pytest.raises(LiftError):
        lift_completion([step], PartialColoring({1: WHITE, 3: WHITE}))


def test_trace_format_is_line_per_step():
    g, coloring = REWRITE_HOSTS["prune_spider"][0]
    rr = reduce_to_irreducible(g, PartialColoring(coloring))
    text = format_trace(rr.trace)
    if rr.trace:
        assert text.count("STEP") == len(rr.trace)
        assert "rule=" in text


def test_randomized_driver_audit():
    rng = random.Random(17)
    audit = OracleAudit()
    rewrites = 0
    for _ in range(500):
        n = rng.randint(6, 14)
        g = mixed_instance(n, rng.randrange(1 << 30))
        rr = reduce_to_irreducible(g, audit=audit)
        rewrites += rr.rewrite_steps
        if not rr.is_refuted:
            assert rr.graph.n <= g.n + 2 * rr.rewrite_steps
    assert audit.violations == [], audit.violations[:3]
    assert rewrites > 50


def test_driver_hosts_full_pipeline_roundtrip():
    # push every rewrite host through the complete reduction; on YES
    # instances the lifted certificate must verify on the original graph
    from dimatch.pipeline import solve

    for rid, hosts in REWRITE_HOSTS.items():
        for i, (g, _coloring) in enumerate(hosts):
            want = brute_dim(g) is not None
            rep = solve(g)
            assert (rep.decision == "YES") == want, (rid, i)
            if rep.is_yes:
                assert verify_complete(g, rep.certificate)


def test_decorated_hosts_through_full_pipeline():
    """Rewrite hosts with random attachments reach reachable clean states
    that fire the rarer rules; decisions must still match the oracle."""
    from dimatch.pipeline import solve

    fired = set()
    audit = OracleAudit()
    tried = 0
    for rid, hosts in sorted(REWRITE_HOSTS.items()):
        for hi, (g0, _cols) in enumerate(hosts):
            for seed in range(12):
                g = decorate(g0, seed * 977 + hi)
                if g.n > 20 or contains_s222(g) is not None:
                    continue
                tried += 1
                want = brute_dim(g) is not None
                rep = solve(g, audit=audit)
                assert (rep.decision == "YES") == want, (rid, hi, seed, g.edges())
                if rep.is_yes:
                    assert verify_complete(g, rep.certificate), (rid, hi, seed)
    fired = set(audit.rewrite_events)
    assert audit.violations == [], audit.violations[:3]
    assert tried > 150
    # the sweep must keep exercising a spread of rewrites on reachable states
    assert len(fired) >= 5, fired
