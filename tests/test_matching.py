from __future__ import annotations

import random
from collections import Counter

import pytest

from dimatch.graph import complete, cycle, from_edges, path
from dimatch.matching import _Matcher, max_matching, saturates, solve_saturation
from dimatch.oracle import mixed_instance

from .util import all_graphs, brute_max_matching_size, brute_saturation_exists, is_matching


def petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return from_edges(10, outer + spokes + inner)


def test_c5_matching_size_two():
    m = max_matching(cycle(5))
    assert is_matching(cycle(5), m) and len(m) == 2


def test_k4_perfect_matching():
    m = max_matching(complete(4))
    assert len(m) == 2


def test_petersen_perfect_matching():
    g = petersen()
    m = max_matching(g)
    assert is_matching(g, m) and len(m) == 5


def test_blossom_handles_odd_structures():
    # two triangles joined by a path: needs blossom contraction
    g = from_edges(8, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8)])
    m = max_matching(g)
    assert len(m) == brute_max_matching_size(g)


def test_max_matching_exhaustive_small():
    for n in range(0, 6):
        for g in all_graphs(n):
            m = max_matching(g)
            assert is_matching(g, m)
            assert len(m) == brute_max_matching_size(g), g.edges()


def test_max_matching_random_medium():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randint(6, 8)
        slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = from_edges(n, [e for e in slots if rng.random() < 0.4])
        m = max_matching(g)
        assert is_matching(g, m)
        assert len(m) == brute_max_matching_size(g), g.edges()


def test_saturation_p3_center():
    m = solve_saturation(path(3), {2})
    assert m is not None and saturates(m, {2})


def test_saturation_p3_endpoints_infeasible():
    assert solve_saturation(path(3), {1, 3}) is None


def test_saturation_c5_any_four():
    g = cycle(5)
    for leave_out in g.vertices:
        req = [v for v in g.vertices if v != leave_out]
        m = solve_saturation(g, req)
        assert m is not None and saturates(m, req)


def test_saturation_requires_known_vertices():
    with pytest.raises(ValueError):
        solve_saturation(path(2), {9})


def test_saturation_exhaustive_tiny_all_subsets():
    from itertools import combinations

    for n in range(1, 5):
        for g in all_graphs(n):
            verts = g.vertices
            for r in range(len(verts) + 1):
                for req in combinations(verts, r):
                    got = solve_saturation(g, req)
                    want = brute_saturation_exists(g, req)
                    assert (got is not None) == want, (g.edges(), req)
                    if got is not None:
                        assert is_matching(g, got) and saturates(got, req)
                        # successful saturating matchings are maximum
                        assert len(got) == brute_max_matching_size(g)


def test_saturation_random_hosts_all_subsets():
    from itertools import combinations

    rng = random.Random(4)
    for _ in range(120):
        n = rng.randint(5, 7)
        slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = from_edges(n, [e for e in slots if rng.random() < 0.35])
        for r in range(n + 1):
            for req in combinations(g.vertices, r):
                got = solve_saturation(g, req)
                assert (got is not None) == brute_saturation_exists(g, req), (g.edges(), req)


def test_saturation_random_larger():
    rng = random.Random(13)
    from dimatch.matching import max_matching as mm

    for i in range(400):
        n = rng.randint(8, 12)
        g = mixed_instance(n, rng.randrange(1 << 30))
        req = [v for v in g.vertices if rng.random() < 0.4]
        got = solve_saturation(g, req)
        if got is not None:
            assert is_matching(g, got) and saturates(got, req)
            assert len(got) == len(mm(g))
        else:
            # spot-check infeasibility with the brute oracle on small hosts
            if g.n <= 10:
                assert not brute_saturation_exists(g, req), (g.edges(), req)


def test_augment_from_returns_the_far_end_of_the_flipped_path():
    # a path ending at a real exposed vertex saturates it
    m = _Matcher(path(2))
    assert m.augment_from(1) == m.index[2] and m.match[m.index[2]] == m.index[1]
    # one ending at the helper frees its spare vertex: 3-2 replaces 1-2
    m = _Matcher(path(3))
    m.maximize()
    assert m.match[m.index[1]] == m.index[2]
    assert m.augment_from(3, {m.index[1]}) == m.index[1] and m.match[m.index[1]] == -1
    assert m.augment_from(1) is None


def test_saturation_keeps_spare_equal_to_a_rebuild(monkeypatch):
    """On seeded random hosts and required sets, the spare set passed to
    every augmenting search, and the one left after the last, equals the
    saturated non-required indices rebuilt from the matching then."""
    augment, seen = _Matcher.augment_from, Counter()
    state = {}

    def rebuilt(m: _Matcher) -> set[int]:
        return {i for i, j in enumerate(m.match) if j != -1 and m.verts[i] not in state["req"]}

    def checked(self, v, spare=None):
        if spare is None:  # maximize()
            return augment(self, v)
        assert spare == rebuilt(self)
        state["last"] = (self, spare)
        end = augment(self, v, spare)
        seen["none" if end is None else "freed" if self.match[end] == -1 else "saturated"] += 1
        return end

    monkeypatch.setattr(_Matcher, "augment_from", checked)
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(6, 24)
        g = from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.25])
        state["req"], state["last"] = {v for v in g.vertices if rng.random() < 0.5}, None
        if solve_saturation(g, state["req"]) is not None and state["last"] is not None:
            m, spare = state["last"]
            assert spare == rebuilt(m)
    assert seen["freed"] >= 80 and seen["none"] >= 40, seen
