from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dimatch.rewrite
import dimatch.rules
from dimatch.coloring import BLACK, WHITE, PartialColoring, verify_complete
from dimatch.graph import Graph, complete, cycle, from_edges, path
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
from dimatch.rules import Worklist, clean_pair_violation

from .util import (
    REWRITE_HOSTS,
    OracleAudit,
    all_completions,
    decorate,
    forward,
    fresh_degree_counts,
    product_lift_step,
    replay_backwards,
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
                g2, c2, step = rule.apply(g, c, rule.find(g, c))
                fulls = [full.state for full in all_completions(g2, c2)]
                fulls += [{v: rng.choice((BLACK, WHITE)) for v in g2.vertices} for _ in range(8)]
                for full in fulls:
                    want = _lift_outcome(product_lift_step, step, full)
                    assert _lift_outcome(_lift_step, step, full) == want, (rule_id, full)
                    lifted += isinstance(want, dict)
                    failed += isinstance(want, str)
    assert lifted > 100 and failed > 100


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
        carried = measure(g)
        for step in rr.trace:
            g2 = forward([step], g)
            carried = remeasure(carried, g, g2, step)
            assert carried == measure(Graph(g2.vertices, g2.edges())), step.rule_id
            kinds[step.rule_id == "clean"] += 1
            g = g2
    assert kinds[True] > 40 and kinds[False] > 500, kinds


def _edit_chain(seed: int, steps: int):
    """Seeded random edits of a union of triangles, short paths and
    cycles.  The starting triangles come in pairs; most toggled edges join
    the i-th vertices of a pair or lie inside a triangle, so shared
    triangle vertices, triangles joined by three edges and five-cycle
    components come and go."""
    rng = random.Random(seed)
    edges, nxt, triangles = [], 1, []
    for k in (3, 3, 3, 3, 3, 3, 2, 4, 5, 5, 6):
        vs = list(range(nxt, nxt + k))
        nxt += k
        edges += list(zip(vs, vs[1:])) + ([(vs[0], vs[-1])] if k > 2 else [])
        if k == 3:
            triangles.append(vs)
    g = Graph(range(1, nxt), edges)
    yield g
    for _ in range(steps):
        verts = g.vertices
        op = rng.random()
        if op < 0.8:
            if op < 0.4:
                pair = rng.randrange(len(triangles) // 2)
                i = rng.randrange(3)
                u, v = triangles[2 * pair][i], triangles[2 * pair + 1][i]
            elif op < 0.7:
                u, v = rng.sample(rng.choice(triangles), 2)
            else:
                u, v = rng.sample(verts, 2)
            if u in g and v in g:
                g = g.rewrite(remove_edges=[(u, v)]) if g.has_edge(u, v) else g.rewrite(add_edges=[(u, v)])
        elif op < 0.9:
            g = g.rewrite(remove_vertices=[rng.choice(verts)])
        else:
            x = g.fresh_ids(1)[0]
            g = g.rewrite(add_vertices=[x], add_edges=[(x, w) for w in rng.sample(verts, min(len(verts), 2))])
        yield g


def test_anchored_structure_checks_equal_whole_scans():
    """clean_pair_violation and _c5_component on a worklist that logged
    every edited vertex since their last pass give what a whole scan gives:
    the first violation in whole-scan order, the five-cycle component with
    the least vertex."""
    found = Counter()
    c = PartialColoring()
    for seed in range(40):
        wl, prev = Worklist(), None
        for g in _edit_chain(seed, 100):
            if prev is not None:
                wl.log.extend(v for v in g.vertices if v not in prev or prev.neighbors(v) != g.neighbors(v))
            want = clean_pair_violation(g, c)
            assert clean_pair_violation(g, c, wl) == want, (seed, g.edges())
            five = next((k for k in g.components() if len(k) == 5 and all(g.degree(v) == 2 for v in k)), None)
            assert _c5_component(g, wl) == five == _c5_component(g), (seed, g.edges())
            found["vertex" if want and want.startswith("vertex") else "link" if want else "clean"] += 1
            found["c5"] += five is not None
            prev = g
    assert min(found[k] for k in ("clean", "vertex", "link", "c5")) >= 15, found


def test_anchored_clean_pair_check_looks_two_rings_out():
    """Closing the second triangle of a prism edits only two of its
    vertices; the first triangle's least vertex lies two edges from them,
    and the anchored check must still report the pair."""
    c, wl = PartialColoring(), Worklist()
    g = from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (1, 4), (2, 5), (3, 6)])
    assert clean_pair_violation(g, c, wl) is None
    g2 = g.rewrite(add_edges=[(5, 6)])
    wl.log += [5, 6]
    assert clean_pair_violation(g2, c, wl) == "triangles (1, 2, 3) and (4, 5, 6) joined by 3 edges"


def test_anchored_five_cycle_check_returns_the_least_component():
    """Two paths closed into five-cycles by one edit: the logged vertices
    meet the component {2..6} first, but a whole scan returns the one
    holding vertex 1."""
    wl = Worklist()
    g = from_edges(10, [(1, 7), (7, 8), (8, 9), (1, 10), (2, 3), (3, 4), (4, 5), (5, 6)])
    assert _c5_component(g, wl) is None
    g2 = g.rewrite(add_edges=[(9, 10), (2, 6)])
    wl.log += [2, 6, 9, 10]
    assert _c5_component(g2, wl) == _c5_component(g2) == frozenset({1, 7, 8, 9, 10})


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


# the keys that ask the worklist for anchors while cycle(n) is reduced
CYCLE_KEYS = {
    "_basic", "_clean_pair", "_c5", "square_alternation", "black_pair_neighbors",
    "chain_step", "square_degree_two", "seven_cycle_step", "contract_path",
}


def test_rules_the_census_rules_out_get_no_anchors_and_no_search(monkeypatch):
    """Along the reduction of cycle(240) and of 5 mixed instances, no
    catalog rule whose shape and no rewrite whose pattern does not fit the
    current graph asks for anchors or is called.  On the cycle only the
    rules a cycle fits ask for anchors."""
    shapes = {r.id: r.shape for r in dimatch.rules.CATALOG}
    shapes.update((r.id, r.pattern) for r in REWRITE_RULES)
    asked, misfits = Counter(), []

    def check(key: str, g: Graph) -> None:
        shape = shapes.get(key)
        if shape is not None and not shape.fits(g):
            misfits.append((key, g.n))

    anchors = Worklist.anchors

    def counted_anchors(self, g, key, radius):
        asked[key] += 1
        check(key, g)
        return anchors(self, g, key, radius)

    find = RewriteRule.find

    def counted_find(self, g, c, anchors=None):
        check(self.id, g)
        return find(self, g, c, anchors)

    def counted(rule):
        def fn(g, c, *anchors):
            check(rule.id, g)
            return rule.fn(g, c, *anchors)

        return dataclasses.replace(rule, fn=fn)

    monkeypatch.setattr(Worklist, "anchors", counted_anchors)
    monkeypatch.setattr(RewriteRule, "find", counted_find)
    monkeypatch.setattr(dimatch.rules, "CATALOG", tuple(counted(r) for r in dimatch.rules.CATALOG))
    reductions = _census_walk()
    assert next(reductions).rewrite_steps > 60
    assert set(asked) == CYCLE_KEYS, asked
    for _ in reductions:
        pass
    assert misfits == [], misfits[:5]
    assert set(asked) - CYCLE_KEYS, asked


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
    """Along the same reductions, `Pattern.fits` is asked by the drivers
    only, never from inside `Pattern.find_all`."""
    inside, asked = [], Counter()
    find_all, fits = Pattern.find_all, Pattern.fits

    def counted_find_all(self, *args, **kw):
        inside.append(self.name)
        try:
            return find_all(self, *args, **kw)
        finally:
            inside.pop()

    def counted_fits(self, g):
        asked[bool(inside)] += 1
        return fits(self, g)

    monkeypatch.setattr(Pattern, "find_all", counted_find_all)
    monkeypatch.setattr(Pattern, "fits", counted_fits)
    assert sum(rr.rewrite_steps for rr in _census_walk()) > 60
    assert asked[False] > 1000 and not asked[True], asked


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
    """Checks that every graph a cleaning step or rewrite makes carries a
    degree census equal to a fresh count."""

    def __init__(self) -> None:
        self.graphs = 0

    def on_clean(self, g_pre, c_pre, g_post, c_post):
        self._check(g_post)

    def on_rewrite(self, step, g_pre, c_pre, g_post, c_post):
        self._check(g_post)

    def _check(self, g: Graph) -> None:
        assert "degree_counts" in g._cache and g.degree_counts() == fresh_degree_counts(g), g.edges()
        self.graphs += 1


def test_reduction_carries_the_degree_census():
    """Along the reduction of cycle(240) and of mixed instances, every
    graph made carries a degree census equal to a fresh count."""
    audit = CensusAudit()
    steps = reduce_to_irreducible(cycle(240), audit=audit).rewrite_steps
    assert audit.graphs >= steps > 60
    rng, mixed = random.Random(23), 0
    while mixed < 5:
        try:
            g = mixed_instance(rng.randint(12, 22), rng.randrange(1 << 30))
        except GeneratorError:
            continue
        before = audit.graphs
        reduce_to_irreducible(g, audit=audit)
        mixed += audit.graphs > before


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
    grow = RewriteRule("grow", pattern("grow", "x y", "x-y"), grey=(), new_vertices=("a",), add_edges=(("a", "x"),))
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


# triangle_outsider with radius 0: its rescans miss the far side of a
# triangle, so propagation stops short of the fixpoint on this input and
# the final check must notice.
SHORT_RADIUS = """
import dataclasses
import dimatch.rules as rules
from dimatch.oracle import mixed_instance
from dimatch.pipeline import solve
rules.CATALOG = tuple(
    dataclasses.replace(r, radius=0) if r.id == "triangle_outsider" else r for r in rules.CATALOG
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
