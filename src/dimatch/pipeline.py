"""End-to-end solver: validate, reduce, decompose, match, lift, verify."""

from __future__ import annotations

import time
from typing import Optional

from .coloring import PartialColoring, verify_complete
from .graph import Graph
from .patterns import Embedding, contains_s222
from .rewrite import (
    ReduceResult,
    ReductionAudit,
    RewriteStep,
    lift_completion,
    reduce_to_irreducible,
)
from .setmatch import (
    assert_irreducible_structure,  # not called here; bench/spans.py rebinds this name
    build_family,
    coloring_from_hit,
    decompose,
    solve_hitting,
)

YES = "YES"
NO = "NO"


class LongClawPresent(ValueError):
    def __init__(self, embedding: Embedding):
        self.embedding = embedding
        roles = ",".join(f"{r}:{v}" for r, v in sorted(embedding.items()))
        super().__init__(f"input contains an induced long claw: <{roles}>")


class RunReport:
    """What `solve` decided, with the certificate of a YES or the witness
    of a NO, the rewrite trace and its counts."""

    __slots__ = ("decision", "certificate", "witness", "trace", "rewrite_steps", "irreducible_order", "wall_time")

    def __init__(
        self,
        decision: str,
        certificate: Optional[PartialColoring],
        witness: Optional[str],
        trace: Optional[list[RewriteStep]] = None,
        rewrite_steps: int = 0,
        irreducible_order: int = 0,
        wall_time: float = 0.0,
    ) -> None:
        self.decision = decision
        self.certificate = certificate
        self.witness = witness
        self.trace: list[RewriteStep] = [] if trace is None else trace
        self.rewrite_steps = rewrite_steps
        self.irreducible_order = irreducible_order
        self.wall_time = wall_time

    @property
    def is_yes(self) -> bool:
        return self.decision == YES


def solve(g: Graph, audit: Optional[ReductionAudit] = None) -> RunReport:
    """Decide whether g admits a dominating induced matching; if it does,
    return a verified black/white certificate on the original vertices.

    A coloring of g is exactly a union of colorings of its connected
    components, so each component is solved on its own and the first NO
    part decides the whole.
    """
    t0 = time.perf_counter()
    emb = contains_s222(g)
    if emb is not None:
        raise LongClawPresent(emb)
    comps = g.components()
    report = RunReport(YES, PartialColoring(), None)
    # fresh ids of each part lie above the input and every earlier part's
    id_floor = (max(g.vertices) + 1) if g.vertices else 0
    for comp in comps:
        part = g if len(comps) == 1 else g.subgraph(comp, id_floor=id_floor)
        rep = _solve_connected(part, audit)
        report.trace += rep.trace
        report.rewrite_steps += rep.rewrite_steps
        report.irreducible_order += rep.irreducible_order
        if not rep.is_yes:
            report.decision, report.certificate, report.witness = NO, None, rep.witness
            break
        report.certificate.state.update(rep.certificate.state)
        for step in rep.trace:
            if step.added_ids:
                id_floor = max(id_floor, max(step.added_ids.values()) + 1)
    if report.is_yes and not verify_complete(g, report.certificate):
        raise AssertionError("lifted certificate fails verification")
    report.wall_time = time.perf_counter() - t0
    return report


def _solve_connected(g: Graph, audit: Optional[ReductionAudit]) -> RunReport:
    """Reduce, decompose, match and lift one long-claw-free component.  A
    reduction that ended at a rigid pair brings its decomposition; one that
    reached its fixpoint is decomposed here.  A YES certificate is not yet
    verified on g; the caller verifies it.  The irreducible pair's
    coloring is verified before lifting only when the reduction took a
    step: with none, that pair is g itself."""
    rr: ReduceResult = reduce_to_irreducible(g, PartialColoring(), audit=audit)
    if rr.is_refuted:
        return RunReport(NO, None, str(rr.refuted), rr.trace, rr.rewrite_steps, rr.graph.n)
    g_star, c_star = rr.graph, rr.coloring
    d = rr.decomposition
    if d is None:
        d = decompose(g_star, c_star)  # a StructureViolation is a fault, not a NO
    family = build_family(g_star, c_star, d)
    chosen = solve_hitting(family)
    if chosen is None:
        return RunReport(
            NO, None, "saturating matching infeasible", rr.trace,
            rr.rewrite_steps, g_star.n,
        )
    colored = coloring_from_hit(g_star, c_star, d, chosen)
    if rr.trace and not verify_complete(g_star, colored):
        raise AssertionError("hit-set expansion produced an invalid coloring")
    full = lift_completion(rr.trace, colored)
    return RunReport(YES, full, None, rr.trace, rr.rewrite_steps, g_star.n)
