"""One SHA-256 over the solver's outputs on every benchmark instance.

    python3 tests/digest_outputs.py --seed 101

Run from the root of a source checkout; the solver is imported from that
checkout's `src/` and the instances are built by `bench/workloads.py`,
which is only read.  For every instance of the four bench workloads at
the seed, and for `cycle(240)`, `cycle(480)`, `cycle(960)` and one
256-triangle claw network, the digest covers the six outputs a change
that claims not to alter behaviour must keep: decision, witness, trace
text, certificate, rewrite step count and irreducible order.  Two trees
give the same line exactly when those outputs agree byte for byte.
This is a script, not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from dimatch import Graph, load_graph, solve  # noqa: E402
from dimatch.coloring import format_certificate  # noqa: E402
from dimatch.graph import cycle  # noqa: E402
from dimatch.rewrite import format_trace  # noqa: E402

import workloads  # noqa: E402

EXTRA_CYCLES = (240, 480, 960)
EXTRA_CLAWNET_TRIANGLES = 256


def inputs(seed: int):
    """(label, graph) for every bench instance at seed, then the extras."""
    for name in workloads.WORKLOADS:
        for inst in workloads.build(name, seed).instances:
            yield f"{name}/{inst.label}", load_graph(inst.text)
    for n in EXTRA_CYCLES:
        yield f"cycle{n}", cycle(n)
    n, edges, _ = workloads.clawnet_edges(EXTRA_CLAWNET_TRIANGLES, random.Random(seed))
    yield f"clawnet{EXTRA_CLAWNET_TRIANGLES}", Graph(range(1, n + 1), edges)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args()
    h, count = hashlib.sha256(), 0
    for label, g in inputs(args.seed):
        rep = solve(g)
        cert = format_certificate(rep.certificate) if rep.certificate is not None else ""
        fields = (label, rep.decision, str(rep.witness), format_trace(rep.trace), cert,
                  str(rep.rewrite_steps), str(rep.irreducible_order))
        h.update("\x00".join(fields).encode())
        h.update(b"\x01")
        count += 1
    print(f"{h.hexdigest()}  {count} inputs, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
