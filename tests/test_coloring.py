from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimatch.coloring import (
    BLACK,
    WHITE,
    PartialColoring,
    assign,
    format_certificate,
    parse_certificate,
    verify_complete,
)
from dimatch.graph import complete, cycle, from_edges
from dimatch.oracle import is_feasible_partial

from .util import all_completions, parser_text, random_host, reference_verify_complete

colorings = st.dictionaries(st.integers(-50, 50), st.sampled_from([BLACK, WHITE]), max_size=12).map(
    PartialColoring
)


def test_verify_triangle_two_blacks():
    c = PartialColoring({1: BLACK, 2: BLACK, 3: WHITE})
    assert verify_complete(complete(3), c)


def test_verify_alternating_square_fails():
    # each black vertex ends up with zero black neighbors
    c = PartialColoring({1: BLACK, 2: WHITE, 3: BLACK, 4: WHITE})
    assert not verify_complete(cycle(4), c)


def test_verify_c6_two_pairs():
    c = PartialColoring({1: BLACK, 2: BLACK, 3: WHITE, 4: BLACK, 5: BLACK, 6: WHITE})
    assert verify_complete(cycle(6), c)


def test_verify_requires_total_coloring():
    with pytest.raises(ValueError, match="uncolored"):
        verify_complete(cycle(4), PartialColoring({1: BLACK}))
    c6 = {1: BLACK, 2: BLACK, 3: WHITE, 4: BLACK, 5: BLACK, 6: WHITE}
    with pytest.raises(ValueError, match="not in the graph"):
        verify_complete(cycle(6), PartialColoring({**c6, 99: BLACK}))



def test_verify_agrees_with_the_per_vertex_loop():
    """On random hosts, every feasible complete coloring, each with one
    vertex flipped, and random complete colorings: verify_complete answers
    as the per-vertex reference loop does."""
    rng = random.Random(30)
    kinds = Counter()
    for _ in range(300):
        g = random_host(rng, rng.randint(1, 11), rng.uniform(0.1, 0.5))
        cases = []
        for full in all_completions(g, PartialColoring())[:6]:
            cases.append(full)
            v = rng.choice(g.vertices)
            cases.append(PartialColoring({**full.state, v: WHITE if full[v] == BLACK else BLACK}))
        cases += [PartialColoring({v: rng.choice((BLACK, WHITE)) for v in g.vertices}) for _ in range(4)]
        for c in cases:
            got = verify_complete(g, c)
            assert got == reference_verify_complete(g, c), (g.edges(), c)
            kinds[got] += 1
    assert kinds[True] > 300 and kinds[False] > 1000, kinds

def test_assign_white_next_to_white_refutes():
    g = from_edges(2, [(1, 2)])
    c = PartialColoring({1: WHITE})
    assert assign(g, c, 2, WHITE) is not None


def test_assign_black_to_isolated_vertex_progresses():
    g = from_edges(3, [(1, 2)])
    c = PartialColoring()
    assert assign(g, c, 3, BLACK) is None
    assert c[3] == BLACK


def test_assign_black_with_two_black_neighbors_refutes():
    g = from_edges(3, [(1, 2), (2, 3)])
    c = PartialColoring({1: BLACK, 3: BLACK})
    assert assign(g, c, 2, BLACK) is not None


def test_assign_black_nextto_matched_pair_refutes():
    g = from_edges(3, [(1, 2), (2, 3)])
    c = PartialColoring({1: BLACK, 2: BLACK})
    assert assign(g, c, 3, BLACK) is not None


def test_assign_is_idempotent_and_conflicts_on_flip():
    g = from_edges(2, [(1, 2)])
    c = PartialColoring({1: BLACK})
    assert assign(g, c, 1, BLACK) is None
    assert assign(g, c, 1, WHITE) is not None


def test_feasible_partial():
    g = cycle(4)
    assert is_feasible_partial(g, PartialColoring({1: BLACK, 2: BLACK}))
    assert not is_feasible_partial(g, PartialColoring({1: WHITE, 2: WHITE}))


def test_certificate_roundtrip():
    c = PartialColoring({3: WHITE, 1: BLACK, 2: BLACK})
    text = format_certificate(c)
    assert parse_certificate(text) == c
    assert parse_certificate("# comment\n1 B\n\n2 B\n3 W\n") == c
    with pytest.raises(ValueError):
        parse_certificate("1 X\n")
    with pytest.raises(ValueError, match="line 2: vertex 1 listed twice"):
        parse_certificate("1 W\n1 B\n2 B")


@given(colorings)
@settings(max_examples=100, deadline=None)
def test_certificate_roundtrip_property(c: PartialColoring):
    assert parse_certificate(format_certificate(c)) == c


@given(colorings, st.data())
@settings(max_examples=100, deadline=None)
def test_vertex_listed_twice_is_rejected(c: PartialColoring, data):
    assume(c.state)
    lines = format_certificate(c).splitlines()
    v = int(lines[data.draw(st.integers(0, len(lines) - 1))].split()[0])
    text = "\n".join(lines + [f"{v} {data.draw(st.sampled_from([BLACK, WHITE]))}"])
    with pytest.raises(ValueError, match=f"line {len(lines) + 1}: vertex {v} listed twice"):
        parse_certificate(text)


@given(parser_text())
@settings(max_examples=300, deadline=None)
def test_parse_certificate_parses_or_raises_value_error(text: str):
    try:
        c = parse_certificate(text)
    except ValueError:
        return
    assert parse_certificate(format_certificate(c)) == c
