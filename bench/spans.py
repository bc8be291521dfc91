"""Spans around the calls into each solver layer, recorded from outside.

`Tracer.install()` rebinds the names where the solver's callers look them
up (module globals, class attributes and the rule catalog) to timing
wrappers, and `uninstall()` puts the originals back.  Each call made while
installed records a span (name, start, end, parent) in memory; self times
are derived afterwards.  No file of the solver is changed.

`CountingAudit` collects the rule and rewrite counts through the solver's
own `ReductionAudit` hooks, in a run of its own, so the audit's coloring
copies never sit inside a timed span.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable

import dimatch.pipeline
import dimatch.rewrite
import dimatch.rules
import dimatch.setmatch
from dimatch.graph import Graph
from dimatch.rewrite import RewriteRule, ReductionAudit
from dimatch.rules import Rule

PIPELINE_SPANS = {
    # name in dimatch.pipeline: span name
    "contains_s222": "patterns.check",
    "reduce_to_irreducible": "rewrite.driver",
    "assert_irreducible_structure": "setmatch.structure",
    "decompose": "setmatch.decompose",
    "build_family": "setmatch.family",
    "solve_hitting": "setmatch.hitting",
    "coloring_from_hit": "setmatch.expand",
    "lift_completion": "rewrite.lift",
    "verify_complete": "coloring.verify",
}
REWRITE_SPANS = {
    # name in dimatch.rewrite: span name
    "propagate": "rules.propagate",
    "clean": "rules.clean",
    "clean_pair_violation": "rules.clean_pair",
    "is_clean_pair": "rules.clean_pair",
    "try_rewrite": "rewrite.search",
}
OTHER_SPANS = (
    # (module, name, span name)
    (dimatch.rules, "propagate", "rules.propagate"),  # the fixpoint check's call
    (dimatch.setmatch, "assert_irreducible_structure", "setmatch.structure"),
    (dimatch.setmatch, "solve_saturation", "matching.saturation"),
)
# sizes read off a layer's arguments or result: span name -> (key, amount)
SIZE_COUNTS = {
    "setmatch.family": lambda args, family: ("setmatch.sets", len(family.sets)),
    "matching.saturation": lambda args, _: ("matching.required", len(set(args[1]))),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # parallel arrays: name id, start, end, parent index (-1 for a root)
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def clear(self) -> None:
        for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
            arr.clear()
        self.counts.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        count = SIZE_COUNTS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                key, amount = count(args, result)
                counts[key] += amount
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Span duration minus the durations of its direct children, summed
        per span name."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(dur)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.span_name[i]]] += own[i]
        return dict(out)

    def root_time(self) -> float:
        return sum(
            self.span_end[i] - self.span_start[i]
            for i, p in enumerate(self.span_parent) if p < 0
        )

    def dump(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[self.span_name[i]], self.span_start[i], self.span_end[i], self.span_parent[i])
            for i in range(len(self.span_name))
        ]

    # -- rebinding --------------------------------------------------------

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for attr, name in PIPELINE_SPANS.items():
            self._rebind(dimatch.pipeline, attr, self.wrap(name, getattr(dimatch.pipeline, attr)))
        for attr, name in REWRITE_SPANS.items():
            self._rebind(dimatch.rewrite, attr, self.wrap(name, getattr(dimatch.rewrite, attr)))
        for module, attr, name in OTHER_SPANS:
            self._rebind(module, attr, self.wrap(name, getattr(module, attr)))
        self._rebind(dimatch.rules, "CATALOG", tuple(
            Rule(r.id, r.tag, self._wrap_rule(r.id, r.fn)) for r in dimatch.rules.CATALOG
        ))
        for method in ("find", "apply"):
            self._rebind(RewriteRule, method, self._wrap_rewrite(method, getattr(RewriteRule, method)))
        for method in ("rewrite", "subgraph"):
            self._rebind(Graph, method, self.wrap("graph.rebuild", getattr(Graph, method)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self) -> Counter[str]:
        """Number of spans per span name."""
        per_id = Counter(self.span_name)
        return Counter({self.names[nid]: k for nid, k in per_id.items()})

    # -- wrappers for the rule catalog and the rewrite table ----------------

    def _wrap_rule(self, rule_id: str, fn: Callable) -> Callable:
        """Time every resume of the rule's generator.  A scan is one call of
        the rule; a firing is a yielded group that would change the coloring,
        which is the one group propagate applies before it restarts."""
        nid = self._name_id(f"rules.{rule_id}")
        counts = self.counts

        def traced(g, c):
            counts["rules.scans"] += 1
            it = fn(g, c)
            while True:
                idx = self.open(nid)
                try:
                    group = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                if any(c.get(v) != col for v, col in group):
                    counts["rules.firings"] += 1
                yield group

        return traced

    def _wrap_rewrite(self, method: str, fn: Callable) -> Callable:
        ids: dict[str, int] = {}

        def traced(rule, *args):
            nid = ids.get(rule.id)
            if nid is None:
                nid = ids[rule.id] = self._name_id(f"rewrite.{rule.id}.{method}")
            idx = self.open(nid)
            try:
                return fn(rule, *args)
            finally:
                self.close(idx)

        return traced


class CountingAudit(ReductionAudit):
    """Rule colorings, cleaning steps and rewrites, per pass."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def on_color(self, g, rule_id, tag, v, color, pre) -> None:
        self.counts[f"rules.{rule_id}_fired"] += 1

    def on_clean(self, g_pre, c_pre, g_post, c_post) -> None:
        self.counts["rules.clean_steps"] += 1

    def on_rewrite(self, step, g_pre, c_pre, g_post, c_post) -> None:
        self.counts[f"rewrite.{step.rule_id}_applied"] += 1
        self.counts["rewrite.steps"] += 1
