"""Self-tests of the benchmark: generators, answers, checker, counts, contract.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import dimatch  # noqa: E402
from dimatch import brute_dim, load_graph, solve  # noqa: E402
from dimatch.graph import Graph  # noqa: E402
from dimatch.rewrite import REWRITE_RULES  # noqa: E402
from dimatch.rules import CATALOG  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from check import certificate_error  # noqa: E402
from spans import CountingAudit, Tracer  # noqa: E402


def graph_of(inst: workloads.Instance) -> Graph:
    return Graph(range(1, inst.n + 1), inst.edges)


# -- generators---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_is_deterministic(name):
    a = workloads.WORKLOADS[name](7)
    b = workloads.WORKLOADS[name](7)
    assert [(i.label, i.text, i.expected) for i in a.instances] == \
        [(i.label, i.text, i.expected) for i in b.instances]
    c = workloads.WORKLOADS[name](8)
    assert [i.text for i in a.instances] != [i.text for i in c.instances]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_text_form_matches_edges(name):
    for inst in workloads.WORKLOADS[name](3).instances[:50]:
        assert load_graph(inst.text) == graph_of(inst)


def test_batch_strata_are_even():
    wl = workloads.build_batch(1)
    sizes = [i.size for i in wl.instances]
    assert sorted(set(sizes)) == list(range(7, 17))
    assert all(sizes.count(s) == workloads.BATCH_COUNT // 10 for s in set(sizes))


def test_union_classes_are_nested():
    wl = workloads.build_union(1)
    by_size = {}
    for inst in wl.instances:
        by_size.setdefault(inst.size, []).append(inst.n)
    copies = workloads.UNION_COPIES
    total = sum(by_size[workloads.UNION_PARTS[-1]]) // copies
    for size in workloads.UNION_PARTS:
        assert len(by_size[size]) == copies * workloads.UNION_PARTS[-1] // size
        assert sum(by_size[size]) == copies * total


# -- expected answers, checked against the brute-force oracle ------------------


def test_small_unions_match_oracle():
    source = workloads.MixedSource(11)
    rng = random.Random(11)
    yes_parts = [source.next(7, m, only_yes=True)[0] for m in range(5)]
    no_part = next(g for g, yes in (source.next(7, m % 5, only_yes=False) for m in range(50))
                   if not yes)
    for a, b in zip(yes_parts, yes_parts[1:]):
        n, edges = workloads.disjoint_union([a, b])
        assert n <= 26
        inst = workloads.make_instance("u", 2, n, edges, workloads.YES, rng)
        assert brute_dim(graph_of(inst)) is not None
    n, edges = workloads.disjoint_union([yes_parts[0], no_part])
    assert n <= 26
    inst = workloads.make_instance("u", 2, n, edges, workloads.NO, rng)
    assert brute_dim(graph_of(inst)) is None


@pytest.mark.parametrize("triangles", [1, 2, 3])
def test_small_clawnets_match_oracle(triangles):
    for seed in range(8):
        n, edges, planted = workloads.clawnet_edges(triangles, random.Random(seed))
        assert n <= 26
        assert certificate_error(n, edges, planted) is None
        assert brute_dim(Graph(range(1, n + 1), edges)) is not None


def test_clawnet_is_irreducible_and_yes():
    inst = workloads.build_clawnet(1).instances[0]
    report = solve(load_graph(inst.text))
    assert report.decision == "YES"
    assert report.rewrite_steps == 0


# -- certificate checker -----------------------------------------------------------


def yes_instance() -> tuple[workloads.Instance, dict[int, str]]:
    inst = next(i for i in workloads.build_cycles(1).instances if i.expected == "YES")
    report = solve(load_graph(inst.text))
    return inst, dict(report.certificate.state)


def test_checker_accepts_solver_certificate():
    inst, cert = yes_instance()
    assert certificate_error(inst.n, inst.edges, cert) is None


def test_checker_rejects_flipped_vertex():
    inst, cert = yes_instance()
    for v in (1, inst.n // 2, inst.n):
        bad = dict(cert)
        bad[v] = "W" if bad[v] == "B" else "B"
        assert certificate_error(inst.n, inst.edges, bad) is not None


def test_checker_rejects_unknown_and_uncolored_vertices():
    inst, cert = yes_instance()
    assert "not in the graph" in certificate_error(inst.n, inst.edges, {**cert, inst.n + 1: "W"})
    assert "not in the graph" in certificate_error(inst.n, inst.edges, {**cert, 0: "B"})
    partial = dict(cert)
    del partial[3]
    assert "uncolored" in certificate_error(inst.n, inst.edges, partial)


# -- counts and spans ----------------------------------------------------------------


def audit_counts(instances) -> tuple[dict, int]:
    audit = CountingAudit()
    irreducible_n = 0
    for inst in instances:
        irreducible_n += solve(load_graph(inst.text), audit=audit).irreducible_order
    return dict(audit.counts), irreducible_n


def test_counts_repeat_exactly():
    instances = workloads.build_batch(5).instances[:150] + workloads.build_cycles(5).instances[:6]
    first = audit_counts(instances)
    assert first[0]["rewrite.steps"] > 0 and first[1] > 0
    assert audit_counts(instances) == first


def test_tracer_accounts_for_solve_time_and_restores_bindings():
    before = (dimatch.pipeline.reduce_to_irreducible, dimatch.rules.CATALOG, Graph.rewrite)
    instances = workloads.build_cycles(2).instances[:6]
    tracer = Tracer()
    with tracer:
        traced_solve = tracer.wrap("pipeline.solve", solve)
        for inst in instances:
            traced_solve(load_graph(inst.text))
    assert (dimatch.pipeline.reduce_to_irreducible, dimatch.rules.CATALOG, Graph.rewrite) == before
    layers = metrics.layer_metrics(tracer.self_times(), tracer.calls(), tracer.counts, {}, 0, 1)
    accounted = sum(layers[m] for m in metrics.ACCOUNTED)
    assert accounted == pytest.approx(tracer.root_time(), rel=1e-9)
    assert tracer.calls()["pipeline.solve"] == len(instances)
    assert layers["rewrite.search_s"] > 0 and layers["graph.rebuilds"] > 0


# -- the benchmark's contract -----------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in metrics.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in metrics.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} == metrics.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_rule_ids_match_solver():
    assert tuple(r.id for r in CATALOG) == metrics.RULE_IDS
    assert tuple(r.id for r in REWRITE_RULES) == metrics.REWRITE_IDS


def run_bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra, "bench/run.py", "--workload", "cycles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_refuses_to_run_without_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_refuses_python_optimize():
    out = run_bench(ROOT, "-O")
    assert out.returncode != 0
    assert "python -O" in out.stderr
