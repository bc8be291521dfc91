"""Brute-force ground truth and seeded instance generators."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .coloring import BLACK, WHITE, PartialColoring
from .graph import Graph, complete, cycle, from_edges, path, star
from .patterns import contains_s222

MAX_ORACLE_VERTICES = 26


class OracleSizeError(ValueError):
    pass


def is_feasible_partial(g: Graph, c: PartialColoring) -> bool:
    """No two adjacent whites; every black has at most one black neighbor."""
    for v, col in c.state.items():
        ns = g.neighbors(v)
        if col == WHITE and any(c.get(w) == WHITE for w in ns):
            return False
        if col == BLACK and sum(1 for w in ns if c.get(w) == BLACK) > 1:
            return False
    return True


def brute_dim(
    g: Graph,
    extend: Optional[PartialColoring] = None,
    order: Optional[list[int]] = None,
) -> Optional[PartialColoring]:
    """Some feasible complete coloring extending `extend`, or None.

    Backtracking over vertices with feasibility pruning; the final state
    is checked in full, so pruning only affects speed.
    """
    if g.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"{g.n} vertices exceed the oracle cap {MAX_ORACLE_VERTICES}")
    if extend is not None and not is_feasible_partial(g, extend):
        return None
    verts = list(order) if order is not None else list(g.vertices)
    if sorted(verts) != list(g.vertices):
        raise ValueError("order must permute the vertex set")
    colors: dict[int, str] = dict(extend.state) if extend is not None else {}
    pinned = set(colors)

    def black_nbrs(v: int) -> int:
        return sum(1 for w in g.neighbors(v) if colors.get(w) == BLACK)

    def placeable(v: int, col: str) -> bool:
        if col == WHITE:
            return all(colors.get(w) != WHITE for w in g.neighbors(v))
        if black_nbrs(v) > 1:
            return False
        for w in g.neighbors(v):
            if colors.get(w) == BLACK and black_nbrs(w) >= 1:
                # w already has a partner besides v
                if any(colors.get(x) == BLACK for x in g.neighbors(w) if x != v):
                    return False
        return True

    def doomed_near(v: int) -> bool:
        # a black vertex whose neighborhood is fully colored needs a partner
        for w in (v, *g.neighbors(v)):
            if colors.get(w) != BLACK:
                continue
            open_nbrs = sum(1 for x in g.neighbors(w) if x not in colors)
            if open_nbrs == 0 and black_nbrs(w) == 0:
                return True
        return False

    def solve(i: int) -> bool:
        if i == len(verts):
            return all(
                black_nbrs(v) == 1 for v in g.vertices if colors.get(v) == BLACK
            )
        v = verts[i]
        if v in pinned:
            return not doomed_near(v) and solve(i + 1)
        for col in (BLACK, WHITE):
            if placeable(v, col):
                colors[v] = col
                if not doomed_near(v) and solve(i + 1):
                    return True
                del colors[v]
        return False

    if solve(0):
        return PartialColoring(colors)
    return None


# --------------------------------------------------------------------------
# generators


class GeneratorError(RuntimeError):
    pass


# random graphs drawn per spec before a long-claw-free one must turn up
RETRY_BUDGET = 400


@dataclass(frozen=True)
class GeneratorSpec:
    model: str  # one of MODELS
    n: int
    seed: int
    family: str = "cycle"  # for model == "known"


def _uniform(n: int, rng: random.Random) -> Graph:
    p = rng.choice((0.15, 0.25, 0.35, 0.5))
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return from_edges(n, edges)


def _triangle_chain(n: int, rng: random.Random) -> Graph:
    """Triangles in a row, consecutive ones joined by one or two
    nonadjacent edges."""
    k = max(1, n // 3)
    edges = []
    tri = []
    for i in range(k):
        a = 3 * i + 1
        tri.append((a, a + 1, a + 2))
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    for t1, t2 in zip(tri, tri[1:]):
        a = rng.choice(t1)
        b = rng.choice(t2)
        edges.append((a, b))
        if rng.random() < 0.5:
            a2 = rng.choice([x for x in t1 if x != a])
            b2 = rng.choice([x for x in t2 if x != b])
            edges.append((a2, b2))
    return from_edges(3 * k, edges)


def _claw_gadget(n: int, rng: random.Random) -> Graph:
    """A pendant claw bridging two disjoint triangles, optionally chained."""
    edges = [
        (1, 2), (1, 3), (2, 3),          # first triangle, anchor 1
        (4, 5), (4, 6), (5, 6),          # second triangle, anchor 4
        (7, 8), (7, 9), (7, 10),         # claw centered at 7
        (8, 1), (9, 4),                  # arms into the triangles; 10 pendant
    ]
    extra = max(0, min(n, 16) - 10)
    base = 10
    for i in range(extra // 3):
        a = base + 3 * i + 1
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        edges.append((rng.choice((2, 3, 5, 6)), a))
    total = base + 3 * (extra // 3)
    return from_edges(total, edges)


def _path_of_triangles(n: int, rng: random.Random) -> Graph:
    """Triangles joined through paths of one to three connector vertices."""
    k = max(1, n // 5)
    edges = []
    anchors = []
    nxt = 1
    for _ in range(k):
        a, b, c = nxt, nxt + 1, nxt + 2
        edges += [(a, b), (a, c), (b, c)]
        anchors.append((a, b, c))
        nxt += 3
    for t1, t2 in zip(anchors, anchors[1:]):
        prev = rng.choice(t1)
        for _ in range(rng.randint(1, 3)):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, rng.choice(t2)))
    return from_edges(nxt - 1, edges)


def _sparse_tree(n: int, rng: random.Random) -> Graph:
    """Random tree plus up to two extra edges; rich in pendant structure."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    for _ in range(rng.randint(0, 2)):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return from_edges(n, edges)


def _planted_line(n: int, rng: random.Random) -> Graph:
    """The line graph of a host H that plants a dominating induced matching
    (Cardoso, Korpelainen & Lozin 2011): H is k vertex-disjoint two-edge
    paths a-b-c, k = 2n/7 rounded and at least 1, whose edges are the black
    vertices, plus white edges pairing the path vertices in a random order,
    at most one per vertex, each between two paths.  A black edge meets
    exactly one black edge, its path's other one, and a white edge only
    black ones, so the graph is YES, with about 3.5k vertices, labelled in
    a random order.  A line graph is claw-free, so it has no long claw."""
    k = max(1, round(2 * n / 7))
    edges = [(a, a + 1) for a in range(3 * k) if a % 3 != 2]
    ends = list(range(3 * k))
    rng.shuffle(ends)
    edges += [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a // 3 != b // 3]
    labels = list(range(1, len(edges) + 1))
    rng.shuffle(labels)
    at: list[list[int]] = [[] for _ in range(3 * k)]
    for label, (a, b) in zip(labels, edges):
        at[a].append(label)
        at[b].append(label)
    return from_edges(len(edges), [pair for meeting in at for pair in combinations(meeting, 2)])


_RANDOM_MODELS = {
    "uniform": _uniform,
    "triangle_chain": _triangle_chain,
    "claw_gadget": _claw_gadget,
    "path_of_triangles": _path_of_triangles,
    "sparse_tree": _sparse_tree,
}


def generate(spec: GeneratorSpec) -> Graph:
    rng = random.Random(spec.seed)
    if spec.model in _RANDOM_MODELS:
        build = _RANDOM_MODELS[spec.model]
        for _ in range(RETRY_BUDGET):
            g = build(spec.n, rng)
            if contains_s222(g) is None:
                return g
        raise GeneratorError(
            f"rejection budget {RETRY_BUDGET} exhausted (model={spec.model}, n={spec.n})"
        )
    if spec.model == "planted_line":
        return _planted_line(spec.n, rng)
    if spec.model == "known":
        builders = {
            "cycle": cycle,
            "path": path,
            "complete": complete,
            "star": lambda n: star(n - 1) if n else from_edges(0, ()),
        }
        g = builders[spec.family](spec.n)
        if contains_s222(g) is not None:
            raise GeneratorError(f"known family {spec.family}({spec.n}) contains a long claw")
        return g
    raise ValueError(f"unknown generator model {spec.model!r}")


# the models mixed_instance draws from; the bench's instances are drawn
# from them too, so a model added here would change those instances
MIXED_MODELS = tuple(_RANDOM_MODELS)
MODELS = (*MIXED_MODELS, "planted_line", "known")


def mixed_instance(n: int, seed: int) -> Graph:
    model = MIXED_MODELS[seed % len(MIXED_MODELS)]
    return generate(GeneratorSpec(model=model, n=n, seed=seed))
