"""Solver outputs pinned by digest.

A change that claims not to alter behaviour must keep, on a fixed seeded
corpus, the decision, witness, trace text, certificate, rewrite step count
and irreducible order byte for byte.  The corpus needs nothing outside
`dimatch`:

- `mixed_instance` graphs with n = 7..16, two seeds of each of the five
  models per n;
- `cycle(n)` for n = 30..65;
- two disjoint unions of 8 YES `mixed_instance` graphs.

When a change alters outputs on purpose, it says so and pins the new
digest.
"""

from __future__ import annotations

import hashlib

from dimatch.coloring import format_certificate
from dimatch.graph import Graph, cycle
from dimatch.oracle import MIXED_MODELS, GeneratorError, brute_dim, mixed_instance
from dimatch.pipeline import solve
from dimatch.rewrite import format_trace

PINNED = "aa516580f7259aaf54bab78c9bc0aede13ffa74d92f1c4a3efd91193f52ab45a"


def _union(parts: list[Graph]) -> Graph:
    """Parts renumbered into consecutive blocks of ids."""
    verts, edges, offset = [], [], 0
    for part in parts:
        index = {v: offset + i + 1 for i, v in enumerate(part.vertices)}
        verts += index.values()
        edges += [(index[u], index[v]) for u, v in part.edges()]
        offset += part.n
    return Graph(verts, edges)


def corpus() -> list[tuple[str, Graph]]:
    out, yes_parts = [], []
    for n in range(7, 17):
        for seed in range(2 * len(MIXED_MODELS)):
            try:
                g = mixed_instance(n, 1000 * n + seed)
            except GeneratorError:
                continue
            out.append((f"mixed{n}.{seed}", g))
            if len(yes_parts) < 16 and brute_dim(g) is not None:
                yes_parts.append(g)
    out += [(f"cycle{n}", cycle(n)) for n in range(30, 66)]
    out += [(f"union{k}", _union(yes_parts[8 * k:8 * k + 8])) for k in range(2)]
    return out


def outputs_digest() -> str:
    h = hashlib.sha256()
    for label, g in corpus():
        rep = solve(g)
        cert = format_certificate(rep.certificate) if rep.certificate is not None else ""
        fields = (label, rep.decision, str(rep.witness), format_trace(rep.trace), cert,
                  str(rep.rewrite_steps), str(rep.irreducible_order))
        h.update("\x00".join(fields).encode())
        h.update(b"\x01")
    return h.hexdigest()


def test_outputs_match_pinned_digest():
    assert outputs_digest() == PINNED
