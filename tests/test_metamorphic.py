"""Metamorphic relations: the solver's outputs are a function of the
labelled graph alone.

Each test transforms an input and predicts the outputs on the result from
the outputs on the original, so it needs no oracle and reaches sizes that
`brute_dim` cannot (Segura et al., "A Survey on Metamorphic Testing", IEEE
TSE 42(9), 2016).
"""

from __future__ import annotations

import random
import re

from dimatch.coloring import format_certificate
from dimatch.graph import Graph, load_graph
from dimatch.oracle import GeneratorSpec, generate, mixed_instance
from dimatch.patterns import contains_s222
from dimatch.pipeline import RunReport, solve
from dimatch.rewrite import format_trace


def _outputs(rep: RunReport) -> tuple[str, ...]:
    """The six outputs a relation compares, as text."""
    cert = format_certificate(rep.certificate) if rep.certificate is not None else ""
    return (rep.decision, str(rep.witness), format_trace(rep.trace), cert,
            str(rep.rewrite_steps), str(rep.irreducible_order))


def _instances(count: int):
    """(seed, graph) for mixed instances of orders 7 to 16 on ids 1..n."""
    for seed in range(count):
        yield seed, mixed_instance(7 + seed % 10, seed)


def test_a_rebuilt_graph_gives_byte_identical_outputs():
    """The same labelled graph built by `Graph` from shuffled vertex and
    edge lists, each edge in a random orientation, and loaded from those
    edge lines, gives byte for byte the outputs of the original: decision,
    witness, trace, certificate, rewrite step count and irreducible order.
    A neighborhood filled in another order may iterate in another order,
    so no output may follow that order."""
    rng = random.Random(9)
    noes = 0
    for seed, g in _instances(1500):
        want = _outputs(solve(g))
        noes += want[0] == "NO"
        verts = list(g.vertices)
        rng.shuffle(verts)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
        rng.shuffle(edges)
        text = "\n".join([f"{g.n} {g.m}", *(f"{u} {v}" for u, v in edges)])
        for h in (Graph(verts, edges), load_graph(text)):
            assert h == g
            assert _outputs(solve(h)) == want, seed
    assert noes > 300, noes


def test_an_order_preserving_relabel_maps_the_outputs():
    """Relabelling the vertices by an increasing map onto ids with gaps
    keeps the decision, the rewrite step count, the irreducible order and
    each step's rule, and maps the witness and the certificate.  A fresh
    id moves with the labels, so fresh ids are mapped back through the
    added ids of corresponding steps, and traces are not compared as text."""
    rng = random.Random(9)
    moved = 0
    for seed, g in _instances(1500):
        ids = sorted(rng.sample(range(1, 40 * g.n), g.n))
        f = dict(zip(g.vertices, ids))
        rep = solve(g)
        got = solve(Graph(ids, [(f[u], f[v]) for u, v in g.edges()]))
        assert got.decision == rep.decision, seed
        assert (got.rewrite_steps, got.irreducible_order) == (rep.rewrite_steps, rep.irreducible_order), seed
        assert [s.rule_id for s in got.trace] == [s.rule_id for s in rep.trace], seed
        back = {w: v for v, w in f.items()}
        for s, t in zip(rep.trace, got.trace):
            back.update((t.added_ids[role], v) for role, v in s.added_ids.items())
        witness = re.sub(r"\b\d+\b", lambda m: str(back[int(m.group())]), str(got.witness))
        assert witness == str(rep.witness), seed
        if rep.certificate is not None:
            assert {back[v]: col for v, col in got.certificate.state.items()} == rep.certificate.state, seed
        moved += ids != list(g.vertices)
    assert moved > 1400, moved


def _subdivided(g: Graph, rng: random.Random, k: int) -> Graph:
    """g with k of its edges, drawn at random, each replaced by a path of
    four edges through three new vertices."""
    edges = g.edges()
    split = set(rng.sample(range(len(edges)), k))
    top = g.vertices[-1]
    out = [e for i, e in enumerate(edges) if i not in split]
    for i in sorted(split):
        u, v = edges[i]
        a, b, c = top + 1, top + 2, top + 3
        top += 3
        out += [(u, a), (a, b), (b, c), (c, v)]
    return Graph([*g.vertices, *range(g.vertices[-1] + 1, top + 1)], out)


def test_subdividing_an_edge_into_a_path_of_four_keeps_the_decision():
    """Replacing an edge uv by a path u-a-b-c-v keeps the answer.  Given a
    coloring of the old graph, color the path: uv matched gives a black, b
    white and c black; u black and v white gives a white, b and c black (and
    the mirror image); two whites cannot be adjacent.  Conversely, a
    coloring of the new graph restricts to the old one: a, b and c force
    the color of the edge uv.  On long-claw-free graphs above the 26
    vertices the oracle can take, from the models `generate` does not give
    up on there, `solve` on each long-claw-free result of subdividing one,
    two or three edges agrees with `solve` on the original."""
    rng = random.Random(10)
    checked = {"YES": 0, "NO": 0}
    for model in ("triangle_chain", "claw_gadget", "path_of_triangles", "planted_line"):
        for seed in range(150):
            g = generate(GeneratorSpec(model=model, n=27 + seed % 20, seed=seed))
            if g.n <= 26 or contains_s222(g) is not None:
                continue
            want = solve(g).decision
            for k in (1, 2, 3):
                h = _subdivided(g, rng, k)
                if contains_s222(h) is None:
                    assert solve(h).decision == want, (model, seed, k)
                    checked[want] += 1
    assert checked["YES"] > 100 and checked["NO"] > 50, checked
