"""Solver outputs pinned by digest.

A change that claims not to alter behaviour must keep, on a fixed seeded
corpus, the decision, witness, trace text, certificate, rewrite step count
and irreducible order byte for byte.  The corpus needs nothing outside
`dimatch`:

- `mixed_instance` graphs with n = 7..16, two seeds of each of the five
  models per n;
- `cycle(n)` for n = 30..65;
- two disjoint unions of 8 YES `mixed_instance` graphs.

Two digests cover these outputs: one the witnesses, one the other five.
A change that moves only NO witnesses (which conflict is met first)
re-pins the first, and the second, unchanged, shows that nothing else
moved.  When a change alters outputs on purpose, it says so and pins the
new digests.
"""

from __future__ import annotations

import hashlib

from dimatch.coloring import format_certificate
from dimatch.graph import Graph, cycle
from dimatch.oracle import MIXED_MODELS, GeneratorError, brute_dim, mixed_instance
from dimatch.pipeline import solve
from dimatch.rewrite import format_trace

PINNED_WITNESSES = "123dfc93b8092cef9a5340ae34bc8183192ee3f1f45c12cc4af5ea475f1bba37"
PINNED_OTHERS = "2bba704b26a9e9475de172dc88cbe6ecf9b5e57e1703f548a3f9bf110291c068"


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


def outputs_digests() -> tuple[str, str]:
    """(digest of the witnesses, digest of the other five outputs)."""
    witnesses, others = hashlib.sha256(), hashlib.sha256()
    for label, g in corpus():
        rep = solve(g)
        cert = format_certificate(rep.certificate) if rep.certificate is not None else ""
        fields = (label, rep.decision, format_trace(rep.trace), cert,
                  str(rep.rewrite_steps), str(rep.irreducible_order))
        witnesses.update("\x00".join((label, str(rep.witness))).encode())
        witnesses.update(b"\x01")
        others.update("\x00".join(fields).encode())
        others.update(b"\x01")
    return witnesses.hexdigest(), others.hexdigest()


def test_outputs_match_pinned_digest():
    assert outputs_digests() == (PINNED_WITNESSES, PINNED_OTHERS)
