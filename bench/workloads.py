"""Seeded workload generators for the solver benchmark.

Every instance carries an expected decision that is known without calling
`solve`: from the brute-force oracle (`batch`), from the construction
(`union`, `clawnet`) or from arithmetic (`cycles`).  Instances are kept in
their text form; the benchmark times parsing them as part of set-up.

Vertex labels of every instance are shuffled with the workload seed, so a
run never depends on the generators' labelling order.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field

from dimatch import Graph, brute_dim, contains_s222, save_graph
from dimatch.graph import cycle
from dimatch.oracle import MIXED_MODELS, GeneratorError, mixed_instance

YES = "YES"
NO = "NO"

Edges = list[tuple[int, int]]


@dataclass(frozen=True)
class Instance:
    """One solver input: its text form, its size class and its answer."""

    label: str
    size: int  # size class; the doubling series runs over this value
    n: int
    edges: tuple[tuple[int, int], ...]
    text: str
    expected: str


@dataclass
class Workload:
    name: str
    instances: list[Instance]
    notes: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# building blocks


def shuffled(n: int, edges: Edges, rng: random.Random) -> Edges:
    """The same graph with vertices 1..n relabelled by a seeded permutation."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relabel = dict(zip(range(1, n + 1), perm))
    out = [tuple(sorted((relabel[u], relabel[v]))) for u, v in edges]
    rng.shuffle(out)
    return out


def disjoint_union(parts: list[Graph]) -> tuple[int, Edges]:
    """Vertices of the parts renumbered into consecutive blocks."""
    edges: Edges = []
    offset = 0
    for part in parts:
        index = {v: offset + i + 1 for i, v in enumerate(part.vertices)}
        edges.extend((index[u], index[v]) for u, v in part.edges())
        offset += part.n
    return offset, edges


def make_instance(label: str, size: int, n: int, edges: Edges, expected: str,
                  rng: random.Random) -> Instance:
    """Shuffle labels, check the host has no long claw, keep the text form."""
    edges = shuffled(n, edges, rng)
    g = Graph(range(1, n + 1), edges)
    if contains_s222(g) is not None:
        raise RuntimeError(f"{label}: generated host contains a long claw")
    return Instance(label, size, n, tuple(edges), save_graph(g), expected)


class MixedSource:
    """Seeded `mixed_instance` graphs with a chosen size and model.

    `mixed_instance(n, s)` picks its model from `s % 5`, so the generator
    seeds of model m are tried in the order base + m, base + m + 5, ...
    A seed on which the generator gives up is skipped and counted; so is a
    NO graph when only YES graphs are wanted.
    """

    def __init__(self, seed: int):
        self.base = seed * 1_000_000
        self.tried = [0] * len(MIXED_MODELS)
        self.gave_up = 0
        self.rejected_no = 0

    def next(self, n: int, model: int, only_yes: bool) -> tuple[Graph, bool]:
        while True:
            gen_seed = self.base + model + len(MIXED_MODELS) * self.tried[model]
            self.tried[model] += 1
            try:
                g = mixed_instance(n, gen_seed)
            except GeneratorError:
                self.gave_up += 1
                continue
            yes = brute_dim(g) is not None
            if only_yes and not yes:
                self.rejected_no += 1
                continue
            return g, yes

    def notes(self) -> list[str]:
        return [f"generator seeds skipped: {self.gave_up} (generator gave up), "
                f"{self.rejected_no} (NO graph where a YES part was needed)"]


def stratum(k: int) -> tuple[int, int]:
    """Requested order and model of the k-th graph: every pair of an order
    in 7..16 and one of the five models comes once in each run of 50."""
    return 7 + (k // len(MIXED_MODELS)) % 10, k % len(MIXED_MODELS)


# --------------------------------------------------------------------------
# planted claw network


def clawnet_edges(triangles: int, rng: random.Random) -> tuple[int, Edges, dict[int, str]]:
    """Disjoint triangles joined by pendant claws, with a planted coloring.

    Each triangle gets one planted white vertex.  Every triangle vertex can
    anchor one claw arm; a claw joins two vertices of distinct triangles
    and never two planted whites.  The claw x with arms a1, a3 and pendant
    tip a2 then colors as: x black, and its partner is a2 when both anchors
    are black, otherwise the arm whose anchor is white.  The result already
    has the irreducible shape, so no rewrite applies.

    Returns (n, edges, planted coloring).
    """
    edges: Edges = []
    color: dict[int, str] = {}
    white_slots, black_slots = [], []
    for t in range(triangles):
        a, b, c = 3 * t + 1, 3 * t + 2, 3 * t + 3
        edges += [(a, b), (a, c), (b, c)]
        white = rng.choice((a, b, c))
        for v in (a, b, c):
            color[v] = "W" if v == white else "B"
            (white_slots if v == white else black_slots).append((t, v))
    rng.shuffle(black_slots)
    pairs = []
    # every white slot takes a black slot of another triangle ...
    for t, w in white_slots:
        for i, (t2, v) in enumerate(black_slots):
            if t2 != t:
                pairs.append((w, v))
                del black_slots[i]
                break
    # ... and the black slots left over pair up among themselves
    while len(black_slots) >= 2:
        t, v = black_slots.pop()
        for i, (t2, u) in enumerate(black_slots):
            if t2 != t:
                pairs.append((v, u))
                del black_slots[i]
                break
    nxt = 3 * triangles + 1
    for v, u in pairs:
        x, a1, a2, a3 = nxt, nxt + 1, nxt + 2, nxt + 3
        nxt += 4
        edges += [(x, a1), (x, a2), (x, a3), (a1, v), (a3, u)]
        color[x] = "B"
        if color[v] == "W":
            partner = a1
        elif color[u] == "W":
            partner = a3
        else:
            partner = a2
        for leaf in (a1, a2, a3):
            color[leaf] = "B" if leaf == partner else "W"
    return nxt - 1, edges, color


# --------------------------------------------------------------------------
# the workloads


BATCH_COUNT = 2000
UNION_PARTS = (8, 16, 32)
UNION_PART_SEED = 0
UNION_COPIES = 4
CYCLE_SIZES = (30, 60, 120)
CYCLES_PER_SIZE = 6
CLAWNET_TRIANGLES = (16, 32, 64)
CLAWNETS_PER_SIZE = 4


def build_batch(seed: int) -> Workload:
    rng = random.Random(seed)
    source = MixedSource(seed)
    instances = []
    for k in range(BATCH_COUNT):
        n_req, model = stratum(k)
        g, yes = source.next(n_req, model, only_yes=False)
        instances.append(make_instance(f"batch{k}", n_req, g.n, g.edges(), YES if yes else NO, rng))
    rng.shuffle(instances)
    yes_count = sum(1 for inst in instances if inst.expected == YES)
    return Workload("batch", instances, [f"{yes_count}/{len(instances)} YES by brute_dim"]
                    + source.notes())


def build_union(seed: int) -> Workload:
    """Nested doubling: the largest union is the union of the two next
    smaller ones, and so on down, so every size class holds the same parts
    and the growth between classes is not masked by which parts were drawn.

    The parts and their grouping are the same for every seed; the seed
    shuffles all vertex labels, in UNION_COPIES independent copies of the
    whole series.  Drawing the parts anew per seed moved the time of the
    largest union by a factor of 1.8 across five seeds, which no bound on
    this workload could absorb.
    """
    source = MixedSource(UNION_PART_SEED)
    largest = UNION_PARTS[-1]
    parts = [source.next(*stratum(k), only_yes=True)[0] for k in range(largest)]
    random.Random(UNION_PART_SEED).shuffle(parts)
    rng = random.Random(seed)
    instances = []
    for copy in range(UNION_COPIES):
        for size in UNION_PARTS:
            for k in range(largest // size):
                n, edges = disjoint_union(parts[k * size:(k + 1) * size])
                instances.append(make_instance(f"union{size}.{copy}.{k}", size, n, edges, YES, rng))
    return Workload("union", instances, source.notes())


def build_cycles(seed: int) -> Workload:
    rng = random.Random(seed)
    instances = []
    for size in CYCLE_SIZES:
        for n in range(size, size + CYCLES_PER_SIZE):
            edges = cycle(n).edges()
            expected = YES if n % 3 == 0 else NO
            instances.append(make_instance(f"cycle{n}", size, n, edges, expected, rng))
    return Workload("cycles", instances)


def build_clawnet(seed: int) -> Workload:
    from check import certificate_error

    rng = random.Random(seed)
    instances = []
    for size in CLAWNET_TRIANGLES:
        for k in range(CLAWNETS_PER_SIZE):
            n, edges, planted = clawnet_edges(size, rng)
            # the planted coloring is checked in the generator's own labelling
            err = certificate_error(n, edges, planted)
            if err is not None:
                raise RuntimeError(f"clawnet{size}.{k}: planted coloring invalid: {err}")
            instances.append(make_instance(f"clawnet{size}.{k}", size, n, edges, YES, rng))
    return Workload("clawnet", instances)


WORKLOADS = {
    "batch": build_batch,
    "union": build_union,
    "cycles": build_cycles,
    "clawnet": build_clawnet,
}


def build(name: str, seed: int) -> Workload:
    wl = WORKLOADS[name](seed)
    for note in wl.notes:
        print(f"# {name}: {note}", file=sys.stderr)
    return wl
