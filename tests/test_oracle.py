from __future__ import annotations

import random

import pytest

from dimatch.coloring import BLACK, WHITE, PartialColoring, verify_complete
from dimatch.graph import complete, cycle, path, star
from dimatch.oracle import (
    GeneratorSpec,
    MIXED_MODELS,
    OracleSizeError,
    brute_dim,
    generate,
    mixed_instance,
)
from dimatch.patterns import contains_s222
from dimatch.pipeline import solve


def test_c4_has_no_dim():
    assert brute_dim(cycle(4)) is None


def test_c6_has_dim():
    got = brute_dim(cycle(6))
    assert got is not None and verify_complete(cycle(6), got)


def test_k4_has_no_dim():
    assert brute_dim(complete(4)) is None


def test_claw_has_dim():
    got = brute_dim(star(3))
    assert got is not None and verify_complete(star(3), got)
    assert got.get(1) == BLACK


def test_extension_respected():
    g = cycle(6)
    pinned = PartialColoring({1: WHITE})
    got = brute_dim(g, pinned)
    assert got is not None and got.get(1) == WHITE
    # pinning two adjacent whites is hopeless
    assert brute_dim(g, PartialColoring({1: WHITE, 2: WHITE})) is None


def test_size_cap():
    with pytest.raises(OracleSizeError):
        brute_dim(path(27))


def test_order_independence():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(2, 9)
        g = mixed_instance(n, rng.randrange(1 << 30))
        forward = brute_dim(g) is not None
        backward = brute_dim(g, order=list(reversed(g.vertices))) is not None
        assert forward == backward


def test_outputs_always_verify():
    rng = random.Random(8)
    for _ in range(200):
        g = mixed_instance(rng.randint(1, 10), rng.randrange(1 << 30))
        got = brute_dim(g)
        if got is not None:
            assert verify_complete(g, got)


def test_generators_are_long_claw_free_and_deterministic():
    for model in MIXED_MODELS:
        for n in (7, 10, 13):
            a = generate(GeneratorSpec(model=model, n=n, seed=42))
            b = generate(GeneratorSpec(model=model, n=n, seed=42))
            assert a == b
            assert contains_s222(a) is None


def test_small_planted_line_graphs_are_yes():
    """Every planted line graph of up to 20 vertices, several seeds per n,
    is claw-free and YES under both the oracle and the solver."""
    checked = 0
    for n in range(26):
        for seed in range(12):
            g = generate(GeneratorSpec(model="planted_line", n=n, seed=seed))
            if g.n > 20:
                continue
            assert generate(GeneratorSpec(model="planted_line", n=n, seed=seed)) == g
            assert contains_s222(g) is None and brute_dim(g) is not None, g.edges()
            rep = solve(g)
            assert rep.is_yes and verify_complete(g, rep.certificate), g.edges()
            checked += 1
    assert checked > 150, checked


def test_planted_line_graphs_of_250_paths_solve_yes():
    """k = 250 paths give about 870 vertices.  Each of eight seeds solves
    YES with a certificate that verifies; on most of them, seed 1 among
    them, propagation colors every vertex, so nothing is left irreducible,
    while the others leave a few dozen vertices to the matcher."""
    orders = []
    for seed in range(8):
        g = generate(GeneratorSpec(model="planted_line", n=875, seed=seed))
        assert 500 < g.n <= 875 and g.m > g.n
        rep = solve(g)
        assert rep.is_yes and verify_complete(g, rep.certificate), seed
        orders.append(rep.irreducible_order)
    assert orders[1] == 0 and orders.count(0) >= 5, orders


def test_known_families():
    assert generate(GeneratorSpec(model="known", n=5, seed=0, family="cycle")) == cycle(5)
    assert generate(GeneratorSpec(model="known", n=4, seed=0, family="path")) == path(4)
    assert generate(GeneratorSpec(model="known", n=4, seed=0, family="complete")) == complete(4)
    g = generate(GeneratorSpec(model="known", n=7, seed=0, family="star"))
    assert g.max_degree() == 6


def test_claw_gadget_contains_bridged_claw():
    g = generate(GeneratorSpec(model="claw_gadget", n=10, seed=1))
    assert g.n >= 10
    centers = [v for v in g.vertices if g.degree(v) == 3 and not g.triangles_at()[v]]
    assert centers
