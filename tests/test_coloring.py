from __future__ import annotations

import pytest

from dimatch.coloring import (
    BLACK,
    WHITE,
    PartialColoring,
    Refuted,
    assign,
    format_certificate,
    is_feasible_partial,
    parse_certificate,
    verify_complete,
)
from dimatch.graph import complete, cycle, from_edges


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


def test_assign_white_next_to_white_refutes():
    g = from_edges(2, [(1, 2)])
    c = PartialColoring({1: WHITE})
    assert isinstance(assign(g, c, 2, WHITE), Refuted)


def test_assign_black_to_isolated_vertex_progresses():
    g = from_edges(3, [(1, 2)])
    c = PartialColoring()
    assert assign(g, c, 3, BLACK)
    assert c[3] == BLACK


def test_assign_black_with_two_black_neighbors_refutes():
    g = from_edges(3, [(1, 2), (2, 3)])
    c = PartialColoring({1: BLACK, 3: BLACK})
    assert isinstance(assign(g, c, 2, BLACK), Refuted)


def test_assign_black_nextto_matched_pair_refutes():
    g = from_edges(3, [(1, 2), (2, 3)])
    c = PartialColoring({1: BLACK, 2: BLACK})
    assert isinstance(assign(g, c, 3, BLACK), Refuted)


def test_assign_is_idempotent_and_conflicts_on_flip():
    g = from_edges(2, [(1, 2)])
    c = PartialColoring({1: BLACK})
    assert assign(g, c, 1, BLACK)
    assert isinstance(assign(g, c, 1, WHITE), Refuted)


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
