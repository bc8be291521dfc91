from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dimatch.cli
import dimatch.rewrite
import dimatch.rules
from dimatch.coloring import BLACK, WHITE, PartialColoring, verify_complete
from dimatch.graph import Graph, complete, cycle, from_edges, path, save_graph
from dimatch.oracle import MAX_ORACLE_VERTICES, GeneratorError, brute_dim, mixed_instance
from dimatch.patterns import Pattern, contains_s222, pattern
from dimatch.pipeline import solve
from dimatch.rewrite import (
    REWRITE_RULES,
    LiftError,
    ReduceResult,
    ReductionAudit,
    RewriteRule,
    _c5_component,
    _lift_step,
    bad_vertex_count,
    clean,
    format_trace,
    lift_completion,
    measure,
    reduce_to_irreducible,
    remeasure,
    try_rewrite,
)
from dimatch.rules import DispatchPlan, Worklist, clean_pair_violation
from dimatch.setmatch import build_family, solve_hitting

from .util import (
    REWRITE_HOSTS,
    OracleAudit,
    all_completions,
    decorate,
    forward,
    fresh_degree_counts,
    made,
    product_lift_step,
    replay_backwards,
    without_rigid_exit,
)

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
    step = rule.apply(g, c, emb)
    g2, c2 = made(g, c, step)
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


def _relabelled(g, coloring, rng):
    ids = rng.sample(range(1, 3 * g.n + 1), g.n)
    new = dict(zip(g.vertices, ids))
    return Graph(ids, [(new[u], new[v]) for u, v in g.edges()]), {new[v]: col for v, col in coloring.items()}


def _lift_outcome(lift, step, colors):
    colors = dict(colors)
    try:
        lift(step, colors)
    except LiftError as err:
        return str(err)
    return colors


def test_backtracking_lift_equals_the_product_search():
    """On every completion of every rewrite host's reduced pair, and on a
    few colorings that are no completion, with the host as given and
    randomly relabelled, the backtracking lift colors exactly as the
    product search does, or both fail alike."""
    rng = random.Random(3)
    lifted = failed = 0
    for rule_id, hosts in sorted(REWRITE_HOSTS.items()):
        rule = RULES_BY_ID[rule_id]
        for g0, coloring0 in hosts:
            for relabel in range(3):
                g, coloring = (g0, coloring0) if relabel == 0 else _relabelled(g0, coloring0, rng)
                c = PartialColoring(coloring)
                step = rule.apply(g, c, rule.find(g, c))
                g2, c2 = made(g, c, step)
                fulls = [full.state for full in all_completions(g2, c2)]
                fulls += [{v: rng.choice((BLACK, WHITE)) for v in g2.vertices} for _ in range(8)]
                for full in fulls:
                    want = _lift_outcome(product_lift_step, step, full)
                    assert _lift_outcome(_lift_step, step, full) == want, (rule_id, full)
                    lifted += isinstance(want, dict)
                    failed += isinstance(want, str)
    assert lifted > 100 and failed > 100


class _Unwalkable(dict):
    """A coloring that may be read and written by vertex but not walked."""

    def __iter__(self):
        raise AssertionError("walked every vertex of the coloring")

    def keys(self):
        raise AssertionError("asked for every vertex of the coloring")


def test_a_lift_step_reads_the_coloring_only_at_its_own_vertices():
    """Lifting each step of the reduction of cycle(240) never walks the
    whole coloring, so a lift costs what its step touched; the result is
    the one lift_completion gives."""
    g = cycle(240)
    rr = reduce_to_irreducible(g)
    final = brute_dim(rr.graph, rr.coloring)
    assert len(rr.trace) > 60 and final is not None
    colors = _Unwalkable(final.state)
    for step in reversed(rr.trace):
        _lift_step(step, colors)
        for v in step.added_ids.values():
            colors.pop(v, None)
    lifted = PartialColoring(dict(dict.items(colors)))
    assert lifted == lift_completion(rr.trace, final) and verify_complete(g, lifted)


def test_lift_rejects_completion_with_no_valid_choice():
    # contracting 1-2-3-4-5 joins 1 and 5; with both white no coloring of
    # 2, 3, 4 is valid, since 2 and 4 would each need a white neighbour
    g = path(5)
    c = PartialColoring()
    rule = RULES_BY_ID["contract_path"]
    emb = rule.find(g, c)
    assert emb is not None
    step = rule.apply(g, c, emb)
    with pytest.raises(LiftError):
        lift_completion([step], PartialColoring({1: WHITE, 5: WHITE}))


def test_lift_checks_survivors_of_a_step_that_removes_no_vertex():
    # unlink_triangles only drops the edge b-x, so b and x of one color
    # cannot both be valid on the graph before it
    g, coloring = REWRITE_HOSTS["unlink_triangles"][0]
    c = PartialColoring(coloring)
    rule = RULES_BY_ID["unlink_triangles"]
    step = rule.apply(g, c, rule.find(g, c))
    g2, _ = made(g, c, step)
    b, x = step.removed_survivor_edges[0]
    colors = {v: BLACK for v in g2.vertices} | {b: WHITE, x: WHITE}
    with pytest.raises(LiftError):
        lift_completion([step], PartialColoring(colors))


def test_rewrite_priority_is_first_match():
    g, coloring = REWRITE_HOSTS["prune_tail"][0]
    step = try_rewrite(g, PartialColoring(coloring))
    assert step is not None
    assert step.rule_id == "prune_tail"


def test_no_rewrite_on_triangle():
    assert try_rewrite(complete(3), PartialColoring()) is None


def test_cycle_contracts_to_triangle():
    # a six-cycle carries a contractible run of degree-two vertices
    g, c = cycle(6), PartialColoring()
    step = try_rewrite(g, c)
    assert step is not None and step.rule_id == "contract_path"
    assert made(g, c, step)[0].n == 3


def test_contract_path_shortens_long_paths():
    # a run of inner degree-two vertices between two triangle anchors
    g = from_edges(11, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                        (1, 8), (1, 9), (8, 9), (7, 10), (7, 11), (10, 11)])
    step = try_rewrite(g, PartialColoring())
    assert step is not None and step.rule_id == "contract_path"
    g2, _ = made(g, PartialColoring(), step)
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
            g2, _ = made(g, c, rule.apply(g, c, emb))
            assert measure(g2) < measure(g), rid


def test_step_wise_measure_equals_a_whole_count():
    """The measure carried through every clean and rewrite step of the
    reduction equals a whole count on a freshly built graph."""
    graphs = [cycle(n) for n in range(30, 131)]
    for n in range(7, 23):
        for seed in range(10):
            try:
                graphs.append(mixed_instance(n, 100 * n + seed))
            except GeneratorError:
                pass
    kinds = Counter()
    for g in graphs:
        rr = reduce_to_irreducible(g)
        carried, g, c = measure(g), g.copy(), PartialColoring()
        for step in rr.trace:
            carried = remeasure(carried, g, c, step)
            assert carried == measure(Graph(g.vertices, g.edges())), step.rule_id
            kinds[step.rule_id == "clean"] += 1
    assert kinds[True] > 40 and kinds[False] > 500, kinds


def test_anchored_five_cycle_check_returns_the_least_component():
    """Two paths closed into five-cycles: the check returns the one holding
    vertex 1, not the one an edit at 2 or 6 reached first."""
    g = from_edges(10, [(1, 7), (7, 8), (8, 9), (1, 10), (2, 3), (3, 4), (4, 5), (5, 6)])
    assert _c5_component(g) is None
    g2 = g.rewrite(add_edges=[(9, 10), (2, 6)])
    assert _c5_component(g2) == frozenset({1, 7, 8, 9, 10})


def test_reduction_builds_whole_graph_structures_a_fixed_number_of_times(monkeypatch):
    """The components, the degree census, the triangle index and the
    bad-vertex count are built whole at most once, and as often on
    cycle(480) as on cycle(240): every later round updates them from the
    step's changes."""
    builds = Counter()

    def counted(name, fn, whole=lambda *args: True):
        def wrapped(*args):
            if whole(*args):
                builds[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(Graph, "components", counted("components", Graph.components,
                                                       lambda g: "components" not in g._cache))
    monkeypatch.setattr(Graph, "degree_counts", counted("degree census", Graph.degree_counts,
                                                          lambda g: "degree_counts" not in g._cache))
    monkeypatch.setattr(Graph, "triangles_at", counted("triangle index", Graph.triangles_at,
                                                         lambda g: "triangles_at" not in g._cache))
    monkeypatch.setattr(dimatch.rewrite, "bad_vertex_count", counted("bad count", dimatch.rewrite.bad_vertex_count))
    per_n = []
    for n in (240, 480):
        builds.clear()
        rr = reduce_to_irreducible(cycle(n))
        assert rr.rewrite_steps > n // 4
        per_n.append(dict(builds))
    assert per_n[0] == per_n[1]
    assert all(k <= 1 for k in per_n[0].values()) and per_n[0]["degree census"] == 1, per_n[0]


# the keys that ask the worklist for anchors while cycle(n) is reduced: the
# cycle stays uncolored, so the rules with a black role ask for none
CYCLE_KEYS = {"_basic", "square_degree_two", "contract_path"}


def test_rules_the_census_rules_out_get_no_anchors_and_no_search(monkeypatch):
    """Along the reduction of cycle(240) and of 5 mixed instances, no
    catalog rule whose shape and no rewrite whose pattern does not fit the
    current graph asks for anchors or is called, and no catalog rule asks
    for anchors or is called while the coloring holds fewer black vertices
    than its shape has MUST_BLACK roles.  On the cycle only the rules a
    cycle fits and that need no black vertex ask for anchors."""
    shapes = {r.id: r.shape for r in dimatch.rules.CATALOG}
    catalog = set(shapes)
    shapes.update((r.id, r.pattern) for r in REWRITE_RULES)
    asked, misfits, blackless = Counter(), [], []
    # the coloring the running propagation reads
    coloring: list[PartialColoring] = []

    def check(key: str, g: Graph, c: Optional[PartialColoring] = None) -> None:
        shape = shapes.get(key)
        if shape is not None and not shape.fits(g):
            misfits.append((key, g.n))
        if c is not None and shape is not None and shape.black_roles > len(c.blacks()):
            blackless.append((key, g.n, len(c.blacks())))

    anchors = Worklist.anchors

    def counted_anchors(self, g, key, radius):
        asked[key] += 1
        check(key, g, coloring[0] if key in catalog else None)
        return anchors(self, g, key, radius)

    basic = dimatch.rules._basic_fixpoint

    def watched_basic(g, c, wl):
        coloring[:] = [c]
        return basic(g, c, wl)

    find = RewriteRule.find

    def counted_find(self, g, c, anchors=None):
        check(self.id, g)
        return find(self, g, c, anchors)

    def counted(rule):
        def fn(g, c, *anchors):
            check(rule.id, g, c)
            return rule.fn(g, c, *anchors)

        return rule._replace(fn=fn)

    monkeypatch.setattr(Worklist, "anchors", counted_anchors)
    monkeypatch.setattr(dimatch.rules, "_basic_fixpoint", watched_basic)
    monkeypatch.setattr(RewriteRule, "find", counted_find)
    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(counted(r) for r in dimatch.rules.CATALOG))
    reductions = _census_walk()
    assert next(reductions).rewrite_steps > 60
    assert set(asked) == CYCLE_KEYS, asked
    for _ in reductions:
        pass
    assert misfits == [], misfits[:5]
    assert blackless == [], blackless[:5]
    assert set(asked) - CYCLE_KEYS, asked
    # the mixed instances reach colorings where rules with a black role ask
    assert {key for key in catalog if shapes[key] is not None and shapes[key].black_roles} & set(asked), asked


def _census_walk() -> Iterator[ReduceResult]:
    """The reductions of cycle(240) and of 5 mixed instances, in turn."""
    yield reduce_to_irreducible(cycle(240))
    rng, mixed = random.Random(29), 0
    while mixed < 5:
        try:
            g = mixed_instance(rng.randint(12, 22), rng.randrange(1 << 30))
        except GeneratorError:
            continue
        yield reduce_to_irreducible(g)
        mixed += 1


def test_the_census_is_asked_outside_the_search(monkeypatch):
    """Along the same reductions, `Pattern.fits` is never asked from inside
    `Pattern.find_all`.  While one catalog and one rewrite table stay
    bound, each shape of a table is asked exactly once per degree census
    its driver meets: when that census's dispatch plan is built."""
    inside, asked = [], Counter()
    find_all, fits = Pattern.find_all, Pattern.fits
    censuses = {"rules": set(), "rewrite": set()}

    def counted_find_all(self, *args, **kw):
        inside.append(self.name)
        try:
            return find_all(self, *args, **kw)
        finally:
            inside.pop()

    def counted_fits(self, g):
        assert not inside, (inside, self.name)
        asked[self.name, g.degree_census()] += 1
        return fits(self, g)

    def seen(key, driver):
        def wrapped(g, *args, **kw):
            censuses[key].add(g.degree_census())
            return driver(g, *args, **kw)

        return wrapped

    # fresh table objects, so both plans start empty
    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(list(dimatch.rules.CATALOG)))
    monkeypatch.setattr(dimatch.rewrite, "REWRITE_RULES", tuple(list(REWRITE_RULES)))
    monkeypatch.setattr(dimatch.rewrite, "propagate", seen("rules", dimatch.rewrite.propagate))
    monkeypatch.setattr(dimatch.rewrite, "try_rewrite", seen("rewrite", dimatch.rewrite.try_rewrite))
    monkeypatch.setattr(Pattern, "find_all", counted_find_all)
    monkeypatch.setattr(Pattern, "fits", counted_fits)
    assert sum(rr.rewrite_steps for rr in _census_walk()) > 60
    want = Counter((r.shape.name, k) for k in censuses["rules"] for r in dimatch.rules.CATALOG if r.shape is not None)
    want.update((r.pattern.name, k) for k in censuses["rewrite"] for r in REWRITE_RULES)
    assert len(censuses["rules"]) > 1 and len(censuses["rewrite"]) > 1, censuses
    assert asked == want, (asked - want, want - asked)


def test_the_dispatch_plans_equal_the_census_gates(monkeypatch):
    """On every graph the drivers meet along the same reductions, the
    dispatch plan is, in order, the catalog rules whose shape is None or
    fits the graph and the rewrites whose pattern fits it."""
    call, checked = DispatchPlan.__call__, Counter()

    def checked_call(self, table, g):
        plan = call(self, table, g)
        if table is dimatch.rules.CATALOG:
            gate = [r for r in dimatch.rules.CATALOG if r.shape is None or r.shape.fits(g)]
            checked["rules"] += 1
        else:
            assert table is dimatch.rewrite.REWRITE_RULES
            gate = [r for r in REWRITE_RULES if r.pattern.fits(g)]
            checked["rewrite"] += 1
        assert list(plan) == gate, (g.edges(), [r.id for r in plan])
        return plan

    monkeypatch.setattr(DispatchPlan, "__call__", checked_call)
    assert sum(rr.rewrite_steps for rr in _census_walk()) > 60
    assert checked["rules"] > 80 and checked["rewrite"] > 60, checked


def test_the_dispatch_plans_stay_bounded_and_keep_outputs(monkeypatch):
    """Over about three thousand solves of mixed instances with n = 7 to
    22, each plan keeps at most PLAN_CAP censuses, lowered to 16 here so
    that both drop theirs many times, and every output equals the one a
    solve from fresh plans gives.  The larger instances are there for the
    rewrite plan: most small ones end rigid before any rewrite search."""
    plans = (dimatch.rules._PLAN, dimatch.rewrite._PLAN)

    def outputs(g):
        rep = solve(g)
        trace = format_trace(rep.trace)
        return rep.decision, rep.witness, trace, rep.certificate, rep.rewrite_steps, rep.irreducible_order

    graphs = []
    for seed in range(3000):
        try:
            graphs.append(mixed_instance(7 + seed % 16, seed))
        except GeneratorError:
            continue
    fresh = []
    for g in graphs:
        for plan in plans:
            plan.by_census.clear()
        fresh.append(outputs(g))
    monkeypatch.setattr(dimatch.rules, "PLAN_CAP", 16)
    dropped = Counter()
    for g, want in zip(graphs, fresh):
        kept = [len(plan.by_census) for plan in plans]
        assert outputs(g) == want, g.edges()
        for i, plan in enumerate(plans):
            assert len(plan.by_census) <= 16
            dropped[i] += len(plan.by_census) < kept[i]
    assert len(graphs) > 2900 and min(dropped[0], dropped[1]) > 5, (len(graphs), dropped)


def test_the_rewrite_plan_follows_a_rebound_table(monkeypatch):
    """try_rewrite tries the rewrites of whichever table REWRITE_RULES is
    bound to, on hosts of one degree census, each time two bindings
    alternate, and the original table's once it is restored."""
    g = cycle(6)
    grow = RewriteRule(pattern("grow", "x y", "x-y"), new_vertices=("a",), add_edges=(("a", "x"),))
    copies = tuple(r._replace() for r in REWRITE_RULES)
    want = try_rewrite(g, PartialColoring())
    assert want.rule_id == "contract_path"
    for _ in range(2):
        monkeypatch.setattr(dimatch.rewrite, "REWRITE_RULES", (grow,))
        assert try_rewrite(g, PartialColoring()).rule_id == "grow"
        monkeypatch.setattr(dimatch.rewrite, "REWRITE_RULES", copies)
        assert try_rewrite(g, PartialColoring()) == want
    monkeypatch.undo()
    assert try_rewrite(g, PartialColoring()) == want


def test_reimports_leave_one_graph_class_alive():
    """Importing dimatch afresh three times leaves only the last Graph
    class alive: no module-level declaration keeps an old one."""
    code = (
        "import gc, importlib, sys\n"
        "for _ in range(3):\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'dimatch']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('dimatch')\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, type) and o.__module__ == 'dimatch.graph' and o.__name__ == 'Graph'\n"
        "          for o in gc.get_objects()))\n"
    )
    src = str(Path(dimatch.rules.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "1", out.stdout


class CensusAudit(ReductionAudit):
    """Checks that after every cleaning step and rewrite the working graph
    carries a degree census equal to a fresh count, and equals a graph
    built afresh from its vertices and edges in census integer, triangle
    index (values and ascending key order), low-degree tuple, vertex order
    and m.  Its first check builds the triangle index, so every later one
    reads an index the edits kept up to date."""

    def __init__(self) -> None:
        self.graphs = 0
        self.triangles = 0

    def on_clean(self, g_pre, c_pre, g_post, c_post):
        self._check(g_post)

    def on_rewrite(self, step, g_pre, c_pre, g_post, c_post):
        self._check(g_post)

    def _check(self, g: Graph) -> None:
        assert "degree_counts" in g._cache and g.degree_counts() == fresh_degree_counts(g), g.edges()
        fresh = Graph(g.vertices, g.edges())
        assert g.degree_counts() == fresh.degree_counts() and g.degree_census() == fresh.degree_census()
        self.triangles += "triangles_at" in g._cache
        assert list(g.triangles_at().items()) == list(fresh.triangles_at().items()), g.edges()
        assert g.low_degree_vertices() == fresh.low_degree_vertices()
        assert list(g.vertices) == list(fresh.vertices) and g.m == fresh.m
        self.graphs += 1


def test_reduction_carries_the_degree_census():
    """Along the reduction of cycle(240) and of mixed instances, the
    working graph after every step carries a degree census and a triangle
    index equal to a fresh build's, and its other indices, vertex order
    and m equal a fresh build's."""
    audit = CensusAudit()
    steps = reduce_to_irreducible(cycle(240), audit=audit).rewrite_steps
    assert audit.graphs >= steps > 60 and audit.triangles == audit.graphs - 1
    rng, mixed = random.Random(23), 0
    while mixed < 5:
        try:
            g = mixed_instance(rng.randint(12, 22), rng.randrange(1 << 30))
        except GeneratorError:
            continue
        before = audit.graphs
        reduce_to_irreducible(g, audit=audit)
        mixed += audit.graphs > before
    assert audit.triangles >= audit.graphs - 1 - mixed


@given(st.integers(7, 22), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_trace_replays_to_the_input_and_lifts_a_final_completion(n, seed):
    """On a connected mixed instance, solve's trace run backwards from the
    reduced graph rebuilds the input, and a completion of the reduced pair,
    found by the oracle, lifts through it to a valid coloring of the
    input."""
    try:
        g = mixed_instance(n, seed)
    except GeneratorError:
        assume(False)
    assume(len(g.components()) == 1)
    rep = solve(g)
    rr = reduce_to_irreducible(g)
    assert format_trace(rr.trace) == format_trace(rep.trace)
    assert forward(rep.trace, g) == rr.graph
    assert replay_backwards(rep.trace, rr.graph) == g
    if rr.is_refuted or rr.graph.n > MAX_ORACLE_VERTICES:
        return
    final = brute_dim(rr.graph, rr.coloring)
    assert (final is not None) == rep.is_yes
    if final is not None:
        assert verify_complete(g, lift_completion(rep.trace, final))


def test_a_rewrite_that_does_not_drop_the_measure_is_caught(monkeypatch):
    # a rule hanging a new leaf on a vertex raises n and m
    grow = RewriteRule(pattern("grow", "x y", "x-y"), new_vertices=("a",), add_edges=(("a", "x"),))
    monkeypatch.setattr(dimatch.rewrite, "REWRITE_RULES", (grow,))
    with pytest.raises(AssertionError, match=r"measure did not drop at grow: \(0, 6, 6\) -> \(0, 7, 7\)"):
        reduce_to_irreducible(cycle(6))


def test_reduce_k4_refutes():
    rr = reduce_to_irreducible(complete(4))
    assert rr.is_refuted


def test_reduce_c5_refutes_with_component_witness():
    rr = reduce_to_irreducible(cycle(5))
    assert rr.is_refuted
    assert rr.refuted.rule == "c5_component"


def test_no_rule_or_rewrite_occurs_in_an_uncolored_five_cycle():
    """The premise of reading the five-cycle exit at the fixpoint: no
    catalog rule yields a group and no rewrite pattern embeds there, each
    asked directly, past the dispatch plan."""
    g, c = cycle(5), PartialColoring()
    assert dimatch.rules.propagate(g, c) is None and c.state == {}
    assert all(next(iter(r.fn(g, c)), None) is None for r in dimatch.rules.CATALOG)
    assert all(next(iter(r.pattern.find_all(g, c.state)), None) is None for r in REWRITE_RULES)


def test_a_five_cycle_left_by_rewrites_refutes_at_the_fixpoint():
    """cycle(3k + 2) contracts to a five-cycle in k - 1 contract_path
    steps; nothing applies there, so the fixpoint reads it as NO."""
    for k in range(1, 11):
        rep = solve(cycle(3 * k + 2))
        assert rep.decision == "NO"
        assert rep.witness.endswith(f"component {list(range(3 * k - 2, 3 * k + 3))} is a five-cycle"), rep.witness
        assert rep.rewrite_steps == k - 1
        assert [step.rule_id for step in rep.trace] == ["contract_path"] * (k - 1)


# triangle_outsider with radius 0: its rescans miss the far side of a
# triangle, so propagation stops short of the fixpoint on this input and
# the final check must notice.
SHORT_RADIUS = """
import dimatch.rules as rules
from dimatch.oracle import mixed_instance
from dimatch.pipeline import solve
rules.CATALOG = tuple(
    r._replace(radius=0) if r.id == "triangle_outsider" else r for r in rules.CATALOG
)
solve(mixed_instance(7, 840))
"""


def test_fixpoint_check_catches_a_short_radius(monkeypatch):
    solve(mixed_instance(7, 840))
    # the catalog is put back after the test
    monkeypatch.setattr(dimatch.rules, "CATALOG", dimatch.rules.CATALOG)
    with pytest.raises(AssertionError, match="fixpoint is not a clean pair"):
        exec(SHORT_RADIUS, {})


def test_fixpoint_check_survives_python_O():
    src = str(Path(dimatch.rules.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-O", "-c", SHORT_RADIUS], capture_output=True, text=True, env=env)
    assert out.returncode != 0
    assert "AssertionError: fixpoint is not a clean pair" in out.stderr


def test_a_clean_pair_break_at_the_fixpoint_is_a_fault_not_a_no(monkeypatch, tmp_path, capsys):
    """cycle(6) contracts to a triangle, which is rigid; without the rigid
    exit the reduction reads the planted break at its fixpoint."""
    monkeypatch.setattr(dimatch.rewrite, "clean_pair_violation", lambda g: "planted break")
    assert not reduce_to_irreducible(cycle(6)).is_refuted
    without_rigid_exit(monkeypatch)
    with pytest.raises(AssertionError, match="fixpoint is not a clean pair: planted break"):
        reduce_to_irreducible(cycle(6))
    gpath = tmp_path / "c6.g"
    gpath.write_text(save_graph(cycle(6)))
    assert dimatch.cli.main(["solve", str(gpath)]) == dimatch.cli.EXIT_INTERNAL
    assert "planted break" in capsys.readouterr().err


# two triangles joined by a perfect matching, two sharing a vertex, two
# sharing an edge: (vertex count, edges)
CLEAN_PAIR_BREAKS = (
    (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]),
    (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    (4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
)


def test_the_forcing_rules_pre_empt_every_clean_pair_break(monkeypatch):
    """Whenever the reducer reaches a clean pair (cleaning made no step,
    so it searches for a rewrite next), the graph keeps the facts of
    clean_pair_violation.  Mixed instances, a third with a prism,
    bowtie or diamond hung on by one or two edges and a third with a
    random partial coloring; bowtie_center, diamond_pair and house_apex,
    the rules the argument rests on, must each color often.  The rigid
    exit ends many reductions before such a search, so they run without
    it here.  With it, a reduction may end at a rigid pair that breaks
    those facts, such as a prism; the pair's sets then have no exact
    hitting set, so it answers NO, as brute force does."""
    rng = random.Random(17)
    inputs = []
    for seed in range(600):
        try:
            g = mixed_instance(7 + seed % 16, seed)
        except GeneratorError:
            continue
        c = PartialColoring()
        if seed % 3 == 1:
            k, edges = rng.choice(CLEAN_PAIR_BREAKS)
            ids = g.fresh_ids(k)
            links = [(ids[rng.randrange(k)], rng.choice(g.vertices)) for _ in range(rng.randint(1, 2))]
            g = g.rewrite(add_vertices=ids, add_edges=[(ids[a], ids[b]) for a, b in edges] + links)
        elif seed % 3 == 2:
            c = PartialColoring({v: rng.choice((BLACK, WHITE)) for v in g.vertices if rng.random() < 0.1})
        inputs.append((g, c))
    # each input also with a prism as a component of its own
    prism = CLEAN_PAIR_BREAKS[0][1]
    rigid_breaks = 0
    for g, c in inputs:
        ids = g.fresh_ids(6)
        for h in (g, g.rewrite(add_vertices=ids, add_edges=[(ids[a], ids[b]) for a, b in prism])):
            rr = reduce_to_irreducible(h, c.copy())
            if rr.decomposition is not None and clean_pair_violation(rr.graph) is not None:
                family = build_family(rr.graph, rr.coloring, rr.decomposition)
                assert solve_hitting(family) is None, h.edges()
                if h.n <= MAX_ORACLE_VERTICES:
                    assert brute_dim(h, c) is None, h.edges()
                rigid_breaks += 1
    assert rigid_breaks >= 80, rigid_breaks

    checkpoints = 0
    rewrite = dimatch.rewrite.try_rewrite

    def checked(g, c, wl=None):
        nonlocal checkpoints
        checkpoints += 1
        assert clean_pair_violation(g) is None, g.edges()
        return rewrite(g, c, wl)

    monkeypatch.setattr(dimatch.rewrite, "try_rewrite", checked)
    without_rigid_exit(monkeypatch)
    colored = Counter()

    class Colorings(ReductionAudit):
        def on_color(self, g, rule_id, tag, v, color, pre):
            colored[rule_id] += 1

    audit = Colorings()
    for g, c in inputs:
        reduce_to_irreducible(g, c, audit)
    assert checkpoints >= 300, checkpoints
    assert min(colored[r] for r in ("bowtie_center", "diamond_pair", "house_apex")) >= 50, colored


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
    g, c = path(3), PartialColoring({2: WHITE})
    step = clean(g, c)
    assert set(made(g, c, step)[0].vertices) == {1, 3}
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
    # enough instances for the rewrite floor, though many end rigid first
    for _ in range(800):
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
