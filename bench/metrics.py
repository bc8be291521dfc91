"""Metric names, units and the arithmetic that turns samples into them.

The names here are the ones `BENCHMARK.json` lists; `test_bench.py`
checks that the two agree.
"""

from __future__ import annotations

import math
from typing import Mapping

# the solver's 22 forcing rules and 17 rewrites, in catalog order
RULE_IDS = (
    "square_alternation", "triangle_outsider", "degree_one", "black_pair_neighbors",
    "bowtie_center", "diamond_pair", "leaf_surplus", "chain_step", "triangle_tail",
    "house_apex", "hat_pentagon", "hat_pentagon_swap", "anchored_pentagon",
    "spoked_triangle", "square_degree_two", "triangle_circuit", "twin_fan_swap",
    "scattered_neighborhood", "cubic_caps", "lone_wing", "seven_cycle_step",
    "braced_pendant",
)
REWRITE_IDS = (
    "prune_tail", "prune_spider", "prune_fan5", "prune_fan4", "prune_hub_triangle",
    "prune_double_house", "prune_twin_triangle", "prune_capped_house", "fold_fan5",
    "fold_fan4", "fold_fan_leaf", "fold_twin_spiders", "fold_hub", "fold_cross_link",
    "unlink_triangles", "fold_claw_chain", "contract_path",
)

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("solve_s.p50", "s"),
    ("solve_s.p99", "s"),
    ("largest_s", "s"),
    ("scaling_exp", "log2"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> tuple[tuple[str, str], ...]:
    out = [("patterns.check_s", "s"), ("rules.propagate_s", "s"), ("rules.propagate_calls", "count")]
    for rid in RULE_IDS:
        out += [(f"rules.{rid}_s", "s"), (f"rules.{rid}_fired", "count")]
    out += [
        ("rules.scan_yield", "ratio"),
        ("rules.clean_s", "s"), ("rules.clean_steps", "count"), ("rules.clean_pair_s", "s"),
        ("rewrite.search_s", "s"),
    ]
    for rid in REWRITE_IDS:
        out += [(f"rewrite.{rid}_find_s", "s"), (f"rewrite.{rid}_applied", "count")]
    out += [
        ("rewrite.find_yield", "ratio"),
        ("rewrite.apply_s", "s"), ("rewrite.steps", "count"), ("rewrite.driver_s", "s"),
        ("rewrite.lift_s", "s"),
        ("graph.rebuild_s", "s"), ("graph.rebuilds", "count"),
        ("setmatch.irreducible_n", "count"), ("setmatch.structure_s", "s"),
        ("setmatch.decompose_s", "s"), ("setmatch.family_s", "s"), ("setmatch.sets", "count"),
        ("setmatch.hitting_s", "s"), ("setmatch.expand_s", "s"),
        ("matching.saturation_s", "s"), ("matching.required", "count"),
        ("coloring.verify_s", "s"), ("pipeline.self_s", "s"),
        ("trace.solve_s", "s"), ("trace_overhead", "ratio"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()
UNITS = dict(END_TO_END + PER_LAYER)

# span names whose self time is its own metric
SPAN_METRICS = {
    "patterns.check": "patterns.check_s",
    "rules.propagate": "rules.propagate_s",
    "rules.clean": "rules.clean_s",
    "rules.clean_pair": "rules.clean_pair_s",
    "rewrite.driver": "rewrite.driver_s",
    "rewrite.lift": "rewrite.lift_s",
    "graph.rebuild": "graph.rebuild_s",
    "setmatch.structure": "setmatch.structure_s",
    "setmatch.decompose": "setmatch.decompose_s",
    "setmatch.family": "setmatch.family_s",
    "setmatch.hitting": "setmatch.hitting_s",
    "setmatch.expand": "setmatch.expand_s",
    "matching.saturation": "matching.saturation_s",
    "coloring.verify": "coloring.verify_s",
    "pipeline.solve": "pipeline.self_s",
}

# the layer times that partition a traced solve: every span's self time
# lands in exactly one of them
ACCOUNTED = tuple(SPAN_METRICS.values()) + (
    "rules.catalog_s", "rewrite.search_s", "rewrite.apply_s",
)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 1."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(self_times: Mapping[str, float], calls: Mapping[str, int],
                  counts: Mapping[str, int], audit: Mapping[str, int],
                  irreducible_n: int, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of `passes` traced passes, the
    tracer's counts of one traced pass and the audit counts of one pass."""
    per_pass = {name: t / passes for name, t in self_times.items()}
    out: dict[str, float] = {metric: per_pass.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    out["rules.catalog_s"] = sum(t for name, t in per_pass.items()
                                 if name.startswith("rules.") and name[6:] not in
                                 ("propagate", "clean", "clean_pair"))
    for rid in RULE_IDS:
        out[f"rules.{rid}_s"] = per_pass.get(f"rules.{rid}", 0.0)
        out[f"rules.{rid}_fired"] = audit.get(f"rules.{rid}_fired", 0)
    finds = {name: t for name, t in per_pass.items() if name.endswith(".find")}
    out["rewrite.search_s"] = per_pass.get("rewrite.search", 0.0) + sum(finds.values())
    out["rewrite.apply_s"] = sum(t for name, t in per_pass.items() if name.endswith(".apply"))
    for rid in REWRITE_IDS:
        out[f"rewrite.{rid}_find_s"] = per_pass.get(f"rewrite.{rid}.find", 0.0)
        out[f"rewrite.{rid}_applied"] = audit.get(f"rewrite.{rid}_applied", 0)
    find_calls = sum(k for name, k in calls.items() if name.endswith(".find"))
    out["rewrite.steps"] = audit.get("rewrite.steps", 0)
    out["rewrite.find_yield"] = out["rewrite.steps"] / find_calls if find_calls else 0.0
    scans = counts.get("rules.scans", 0)
    out["rules.scan_yield"] = counts.get("rules.firings", 0) / scans if scans else 0.0
    out["rules.propagate_calls"] = calls.get("rules.propagate", 0)
    out["rules.clean_steps"] = audit.get("rules.clean_steps", 0)
    out["graph.rebuilds"] = calls.get("graph.rebuild", 0)
    out["setmatch.irreducible_n"] = irreducible_n
    out["setmatch.sets"] = counts.get("setmatch.sets", 0)
    out["matching.required"] = counts.get("matching.required", 0)
    return out
