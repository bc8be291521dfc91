from __future__ import annotations

import dataclasses
import random

import pytest

import dimatch.rewrite
import dimatch.rules
from dimatch.coloring import BLACK, WHITE, PartialColoring, is_feasible_partial
from dimatch.graph import complete, cycle, from_edges, path, star
from dimatch.oracle import brute_dim, mixed_instance
from dimatch.rewrite import clean
from dimatch.rules import (
    CATALOG,
    RULES_BY_ID,
    Worklist,
    clean_pair_violation,
    is_clean_pair,
    propagate,
)

from .util import FORCING_HOSTS, OracleAudit

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


# -- cleaning ---------------------------------------------------------------


def test_clean_black_pair_leaves_empty_graph():
    g = path(2)
    c = PartialColoring({1: BLACK, 2: BLACK})
    g2, c2, step = clean(g, c)
    assert g2.n == 0 and step is not None
    assert step.removed_vertices == (1, 2)
    assert step.removed_colors == {1: BLACK, 2: BLACK}


def test_clean_removes_single_white():
    g = path(3)
    c = PartialColoring({2: WHITE})
    g2, c2, step = clean(g, c)
    assert set(g2.vertices) == {1, 3}
    assert step.removed_vertices == (2,)
    assert step.removed_colors == {2: WHITE}


def test_clean_identity_when_uncolored():
    g = cycle(5)
    g2, c2, step = clean(g, PartialColoring())
    assert step is None and g2 is g


def test_clean_preserves_completability_randomized():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(3, 10)
        g = mixed_instance(n, rng.randrange(1 << 30))
        c = PartialColoring()
        if propagate(g, c) is not None:
            assert brute_dim(g) is None
            continue
        g2, c2, _ = clean(g, c)
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
    g2, c2, _ = clean(g, c)
    assert is_clean_pair(g2, c2)
    assert clean_pair_violation(g2, c2) is None


def test_fixpoint_check_skips_rules_already_scanned_whole_on_the_final_state(monkeypatch):
    """A claw joining two triangles is YES with an empty trace.  The
    driver's propagation last scanned square_alternation and
    triangle_outsider from anchors, after degree_one fired, and every other
    rule whole once nothing more changed; the check scans only those two."""
    g = from_edges(10, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (7, 8), (7, 9), (7, 10), (1, 8), (4, 10)])
    calls, checking = [], []

    def counted(rule):
        def fn(g, c, *anchors):
            if checking:
                calls.append(rule.id)
            return rule.fn(g, c, *anchors)

        return dataclasses.replace(rule, fn=fn)

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
    assert calls == ["square_alternation", "triangle_outsider"]


def test_scanned_whole_needs_the_same_graph_and_log_length():
    g = cycle(6)
    wl = Worklist()
    wl.found_nothing("a", g)
    wl.found_nothing("b")
    assert wl.scanned_whole(g) == {"a"}
    assert wl.scanned_whole(cycle(6)) == set()
    wl.log.append(1)
    assert wl.scanned_whole(g) == set()


def test_clean_pair_violation_reports_k4():
    assert clean_pair_violation(complete(4), PartialColoring()) == "vertex 1 lies in 3 triangles"


def test_clean_pair_violation_reports_triangle_links():
    # two triangles joined by two edges sharing an endpoint
    g = from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 4)])
    msg = clean_pair_violation(g, PartialColoring())
    assert msg is not None


def test_clean_pair_violation_reports_prism():
    # two triangles joined by a perfect matching of three edges
    g = from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)])
    msg = clean_pair_violation(g, PartialColoring())
    assert msg == "triangles (1, 2, 3) and (4, 5, 6) joined by 3 edges"


def test_clean_pair_violation_accepts_unjoined_triangles():
    g = from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert clean_pair_violation(g, PartialColoring()) is None
