"""Seeded closed-loop benchmark of `dimatch.solve`.

    python3 bench/run.py --workload batch --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the solver is imported from
`src/`.  One caller in one thread solves every instance of the workload in
a fixed order, waits for each verdict and checks it against an answer known
without `solve`.  Passes repeat until `--seconds` have gone by.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it carries the per-layer metrics
of a separate traced run (see README.md).  The lines before it are a
readable table.  A run under `python -O` is refused, because `-O` strips
checks the solver makes on its own results.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
from check import certificate_error
from metrics import ACCOUNTED, END_TO_END, PER_LAYER, UNITS, layer_metrics, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3  # untraced passes; a traced run makes at least two of each kind
CHUNK_S = 0.02  # solver time between two calibration samples
SETUP_REPEATS = 7
OUT_DIR = HERE / "out"


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def import_solver():
    """Import dimatch from this checkout, dropping any earlier import first,
    so that every call measures a full import."""
    for name in [m for m in sys.modules if m == "dimatch" or m.startswith("dimatch.")]:
        del sys.modules[name]
    import dimatch

    return dimatch


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured beside these kernel samples into
    seconds at the reference speed."""
    return calibrate.REFERENCE_S / statistics.median(samples)


def time_setup(texts: list[str]):
    """Median over repeats of: import dimatch, load_graph every instance.
    Returns (scaled median, raw median, module, graphs)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = [calibrate.sample() for _ in range(3)]
        t0 = time.perf_counter()
        dimatch = import_solver()
        graphs = [dimatch.load_graph(t) for t in texts]
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * scale(before + [calibrate.sample() for _ in range(3)]))
    return statistics.median(scaled), statistics.median(raw), dimatch, graphs


class Pass:
    """One solve of every instance, with its per-call times and failures.

    The calibration kernel runs between calls after every CHUNK_S of solver
    time.  Each chunk of calls is scaled by the median of the kernel samples
    nearest to it, three on either side.
    """

    def __init__(self, solve, graphs, instances, audit=None):
        self.call_s: list[float] = []  # raw seconds
        self.failures: list[str] = []
        self.irreducible_n = 0
        self.rewrite_steps = 0
        gc.collect()
        samples = [calibrate.sample()]
        chunk_ends: list[int] = []
        chunk_s = 0.0
        for g, inst in zip(graphs, instances):
            if chunk_s >= CHUNK_S:
                samples.append(calibrate.sample())
                chunk_ends.append(len(self.call_s))
                chunk_s = 0.0
            t0 = time.perf_counter()
            try:
                report = solve(g) if audit is None else solve(g, audit=audit)
            except Exception as exc:  # noqa: BLE001 - every fault is a counted failure
                self.call_s.append(time.perf_counter() - t0)
                chunk_s += self.call_s[-1]
                self.failures.append(f"{inst.label}: {type(exc).__name__}: {exc}")
                continue
            self.call_s.append(time.perf_counter() - t0)
            chunk_s += self.call_s[-1]
            self.irreducible_n += report.irreducible_order
            self.rewrite_steps += report.rewrite_steps
            if report.decision != inst.expected:
                self.failures.append(f"{inst.label}: {report.decision}, expected {inst.expected}")
            elif report.decision == "YES":
                err = certificate_error(inst.n, inst.edges, report.certificate.state)
                if err is not None:
                    self.failures.append(f"{inst.label}: certificate rejected: {err}")
        samples.append(calibrate.sample())
        chunk_ends.append(len(self.call_s))
        self.scaled_s: list[float] = []  # seconds at the reference speed
        start = 0
        for i, end in enumerate(chunk_ends):
            factor = scale(samples[max(0, i - 2):i + 4])
            self.scaled_s.extend(t * factor for t in self.call_s[start:end])
            start = end

    @property
    def seconds(self) -> float:
        return sum(self.scaled_s)

    @property
    def raw_seconds(self) -> float:
        return sum(self.call_s)


def class_latency(latency: list[float], instances) -> dict[int, float]:
    """Mean latency of the instances of each size class.  The mean, not the
    median: on `batch` a class mixes fast NO and slow YES graphs, and its
    median jumped with the seed's share of YES graphs."""
    by_size: dict[int, list[float]] = {}
    for t, inst in zip(latency, instances):
        by_size.setdefault(inst.size, []).append(t)
    return {size: statistics.mean(ts) for size, ts in by_size.items()}


def end_to_end(setup_s: float, setup_raw: float, passes: list[Pass], instances
               ) -> tuple[dict, dict]:
    """Metric values, plus the sample counts printed beside them."""
    sizes = sorted({inst.size for inst in instances})
    largest = sizes[-1]
    half = largest // 2
    # per-instance latency: the median of its calls, so one slow moment of
    # the host cannot become the tail
    latency = [statistics.median(ts) for ts in zip(*(p.scaled_s for p in passes))]
    by_class = class_latency(latency, instances)
    largest_s, half_s = by_class[largest], by_class[half]
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds for p in passes),
        "solve_s.p50": statistics.median(latency),
        "solve_s.p99": percentile(latency, 0.99),
        "largest_s": largest_s,
        "scaling_exp": math.log2(largest_s / half_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_class = sum(1 for inst in instances if inst.size == largest)
    samples = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups; {setup_raw:.6g} s unscaled",
        "pass_s": f"median of {len(passes)} passes; "
                  f"{statistics.median(p.raw_seconds for p in passes):.6g} s unscaled",
        "solve_s.p50": f"{len(latency)} instances, each the median of {len(passes)} calls",
        "solve_s.p99": f"{len(latency)} instances, "
                       f"{len(latency) - math.ceil(0.99 * len(latency))} beyond",
        "largest_s": f"mean latency of the {per_class} instance(s) of size {largest}",
        "scaling_exp": f"size {largest} vs {half}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, samples


def traced_run(dimatch, graphs, instances, seconds: float, workload: str, seed: int):
    """Alternate untraced and traced passes, then one audit pass for counts."""
    from spans import CountingAudit, Tracer

    tracer = Tracer()
    plain: list[Pass] = []
    traced: list[Pass] = []
    self_times: dict[str, float] = {}
    solve_span = 0.0
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(Pass(dimatch.solve, graphs, instances))
        tracer.clear()
        with tracer:
            traced.append(Pass(tracer.wrap("pipeline.solve", dimatch.solve), graphs, instances))
        for name, t in tracer.self_times().items():
            self_times[name] = self_times.get(name, 0.0) + t
        solve_span += tracer.root_time()
    spans = tracer.dump()
    audit = CountingAudit()
    audited = Pass(dimatch.solve, graphs, instances, audit=audit)
    if audit.counts["rewrite.steps"] != audited.rewrite_steps:
        audited.failures.append("audit: rewrite count differs from the run reports")

    layers = layer_metrics(self_times, tracer.calls(), tracer.counts, audit.counts,
                           audited.irreducible_n, len(traced))
    layers["trace.solve_s"] = solve_span / len(traced)
    layers["trace_overhead"] = (statistics.median(p.seconds for p in traced)
                                / statistics.median(p.seconds for p in plain) - 1)
    accounted = sum(layers[m] for m in ACCOUNTED)
    notes = [
        f"{len(plain)} untraced and {len(traced)} traced passes, 1 audit pass",
        f"layer self times sum to {accounted:.6f} s of {layers['trace.solve_s']:.6f} s "
        "traced solve time per pass",
    ]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with out.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    notes.append(f"spans of the last traced pass: {out.relative_to(ROOT)} ({len(spans)} spans)")
    return layers, plain + traced + [audited], notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        return fail("refusing to run under python -O: it strips the solver's own checks")
    if not (SRC / "dimatch" / "__init__.py").is_file():
        return fail(f"no solver sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dimatch

    if Path(dimatch.__file__).resolve().parent != SRC / "dimatch":
        return fail(f"dimatch imported from {dimatch.__file__}, not from {SRC}")

    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = build(args.workload, args.seed)
    instances = wl.instances
    setup_s, setup_raw, dimatch, graphs = time_setup([inst.text for inst in instances])

    if args.trace:
        values, passes, notes = traced_run(dimatch, graphs, instances, args.seconds,
                                           args.workload, args.seed)
        names = [name for name, _ in PER_LAYER]
        samples: dict[str, str] = {}
    else:
        passes = []
        deadline = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(Pass(dimatch.solve, graphs, instances))
        values, samples = end_to_end(setup_s, setup_raw, passes, instances)
        names = [name for name, _ in END_TO_END]
        notes = []

    attempted = sum(len(p.call_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"# workload {args.workload}, seed {args.seed}: {len(instances)} instances, "
          f"n = {min(i.n for i in instances)}..{max(i.n for i in instances)}")
    for note in notes:
        print(f"# {note}")
    for message in failures[:20]:
        print(f"# FAILED {message}")
    print(f"{'error_rate':<36} {len(failures) / attempted:<14.6g} ratio  "
          f"({len(failures)} of {attempted} calls)")
    for name in names:
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"{name:<36} {values[name]:<14.6g} {UNITS[name]}{extra}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
