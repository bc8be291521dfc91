"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the suite is pure pytest otherwise.
"""

from __future__ import annotations

import random
from itertools import combinations

from dimatch.coloring import verify_complete
from dimatch.graph import complete, cycle, from_edges, path, star
from dimatch.matching import max_matching, solve_saturation
from dimatch.oracle import brute_dim, mixed_instance
from dimatch.pipeline import solve
from dimatch.rewrite import LiftError
from dimatch.setmatch import solve_hitting

from .test_setmatch import _random_instance
from .util import (
    OracleAudit,
    all_graphs,
    brute_hitting,
    brute_max_matching_size,
    brute_saturation_exists,
    is_matching,
    membership_ok,
    saturates,
)

RANDOM_COUNT = 10_000
AUDIT_CAP = 14


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n{name}: {status}{(' — ' + detail) if detail else ''}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_exhaustive_tiny_scale():
    """Solver agrees with the oracle on every labelled graph with <= 6
    vertices, and every YES certificate verifies."""
    checked = mismatches = internal = 0
    for n in range(0, 7):
        for g in all_graphs(n):
            checked += 1
            want = brute_dim(g) is not None
            try:
                rep = solve(g)
            except (AssertionError, LiftError):
                internal += 1
                continue
            if (rep.decision == "YES") != want:
                mismatches += 1
            elif rep.is_yes and not verify_complete(g, rep.certificate):
                mismatches += 1
    _report(
        "CRITERION 1 (exhaustive <=6)",
        mismatches == 0 and internal == 0,
        f"{checked} graphs, {mismatches} mismatches, {internal} internal errors",
    )


def test_criterion_2_and_4_randomized_with_rule_audit():
    """>= 10,000 seeded long-claw-free instances on 7..16 vertices: zero
    solver/oracle discrepancies, verified certificates, and (criterion 4)
    every rule application on hosts <= 14 is oracle-validated."""
    audit = OracleAudit(cap=AUDIT_CAP)
    mismatches = internal = 0
    for i in range(RANDOM_COUNT):
        n = 7 + (i % 10)
        g = mixed_instance(n, 100_000 + i)
        want = brute_dim(g) is not None
        try:
            rep = solve(g, audit=audit if n <= AUDIT_CAP else None)
        except (AssertionError, LiftError):
            internal += 1
            continue
        if (rep.decision == "YES") != want:
            mismatches += 1
        elif rep.is_yes and not verify_complete(g, rep.certificate):
            mismatches += 1
    _report(
        "CRITERION 2 (randomized 7..16)",
        mismatches == 0 and internal == 0,
        f"{RANDOM_COUNT} instances, {mismatches} mismatches, {internal} internal errors",
    )
    _report(
        "CRITERION 4 (per-rule validity audit)",
        not audit.violations,
        f"{len(audit.color_events)} forcing applications and "
        f"{len(audit.rewrite_events)} rewrites audited, "
        f"{len(audit.violations)} violations",
    )


KNOWN_TABLE = [
    ("K3", complete(3), True),
    ("K4", complete(4), False),
    ("C4", cycle(4), False),
    ("C5", cycle(5), False),
    ("C6", cycle(6), True),
    ("K_{1,3}", star(3), True),
    ("P2", path(2), True),
    ("P7", path(7), True),  # pinned regression constant, fixed by the oracle
]


def test_criterion_3_known_value_table():
    bad = []
    for name, g, expected in KNOWN_TABLE:
        assert (brute_dim(g) is not None) == expected, f"oracle disagrees on {name}"
        rep = solve(g)
        if rep.is_yes != expected:
            bad.append(name)
        elif rep.is_yes and not verify_complete(g, rep.certificate):
            bad.append(name)
    _report("CRITERION 3 (known values)", not bad, f"disagreements: {bad or 'none'}")


def test_criterion_5_irreducible_structure():
    """Every irreducible pair the pipeline produces has the structure
    `decompose` reads, since a break is an internal fault; no internal
    errors."""
    from dimatch.rewrite import reduce_to_irreducible
    from dimatch.setmatch import assert_irreducible_structure

    rng = random.Random(77)
    internal = broken = reached = 0
    for _ in range(1500):
        n = rng.randint(4, 16)
        g = mixed_instance(n, rng.randrange(1 << 30))
        try:
            rr = reduce_to_irreducible(g)
        except (AssertionError, LiftError):
            internal += 1
            continue
        if rr.is_refuted:
            continue
        reached += 1
        broken += assert_irreducible_structure(rr.graph, rr.coloring) is not None
    _report(
        "CRITERION 5 (irreducible structure)",
        internal == 0 and broken == 0,
        f"{reached} irreducible pairs, {broken} structure breaks, {internal} internal errors",
    )


def test_criterion_6_matching_subsystem():
    bad = 0
    checked = 0
    # exhaustive over every labelled graph with <= 5 vertices
    for n in range(0, 6):
        for g in all_graphs(n):
            checked += 1
            if len(max_matching(g)) != brute_max_matching_size(g):
                bad += 1
    # seeded random hosts on 6..8 vertices
    rng = random.Random(6)
    for _ in range(3000):
        n = rng.randint(6, 8)
        slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = from_edges(n, [e for e in slots if rng.random() < rng.choice((0.25, 0.4, 0.6))])
        checked += 1
        m = max_matching(g)
        if not is_matching(g, m) or len(m) != brute_max_matching_size(g):
            bad += 1
    # saturation: exhaustive tiny scale, every required subset
    for n in range(1, 5):
        for g in all_graphs(n):
            for r in range(n + 1):
                for req in combinations(g.vertices, r):
                    checked += 1
                    got = solve_saturation(g, req)
                    if (got is not None) != brute_saturation_exists(g, req):
                        bad += 1
                    elif got is not None and not (
                        is_matching(g, got)
                        and saturates(got, req)
                        and len(got) == brute_max_matching_size(g)
                    ):
                        bad += 1
    # saturation: sampled hosts on 5..7 vertices, every required subset
    rng = random.Random(60)
    for _ in range(150):
        n = rng.randint(5, 7)
        slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = from_edges(n, [e for e in slots if rng.random() < 0.35])
        for r in range(n + 1):
            for req in combinations(g.vertices, r):
                checked += 1
                got = solve_saturation(g, req)
                if (got is not None) != brute_saturation_exists(g, req):
                    bad += 1
    # saturation: 10^4 random (<= 12, random U) instances; success implies a
    # maximum matching that saturates
    rng = random.Random(61)
    for i in range(10_000):
        n = rng.randint(4, 12)
        g = mixed_instance(n, rng.randrange(1 << 30))
        req = [v for v in g.vertices if rng.random() < 0.4]
        checked += 1
        got = solve_saturation(g, req)
        if got is not None:
            if not (is_matching(g, got) and saturates(got, req)):
                bad += 1
            elif len(got) != len(max_matching(g)):
                bad += 1
        elif g.n <= 9 and brute_saturation_exists(g, req):
            bad += 1
    _report("CRITERION 6 (matching subsystem)", bad == 0, f"{checked} checks, {bad} failures")


def test_criterion_7_hitting_subsystem():
    rng = random.Random(70)
    bad = 0
    for _ in range(10_000):
        inst = _random_instance(rng)
        if not membership_ok(inst):
            continue
        got = solve_hitting(inst)
        want = brute_hitting(inst.elements, inst.sets)
        if (got is not None) != want:
            bad += 1
        elif got is not None and any(len(a & got) != 1 for a in inst.sets):
            bad += 1
    _report("CRITERION 7 (hitting subsystem)", bad == 0, f"10000 instances, {bad} failures")


def test_criterion_8_termination_audit():
    """The (bad vertices, n, m) measure strictly drops at every rewrite
    (asserted inside the driver) and rewrite counts stay under 10 n^2."""
    from dimatch.rewrite import reduce_to_irreducible

    rng = random.Random(88)
    worst_ratio = 0.0
    violations = 0
    for _ in range(2500):
        n = rng.randint(4, 16)
        g = mixed_instance(n, rng.randrange(1 << 30))
        try:
            rr = reduce_to_irreducible(g)  # measure assertions live inside
        except AssertionError:
            violations += 1
            continue
        if g.n:
            worst_ratio = max(worst_ratio, rr.rewrite_steps / (10 * g.n * g.n))
    _report(
        "CRITERION 8 (termination)",
        violations == 0 and worst_ratio <= 1.0,
        f"worst step ratio {worst_ratio:.4f} of the 10*n^2 budget, {violations} measure violations",
    )
