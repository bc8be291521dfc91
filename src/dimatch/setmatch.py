"""From an irreducible pair to a coloring, via exact hitting and matching.

An irreducible pair has rigid structure: maximum degree four, each vertex
in at most one triangle, degree-four vertices in triangles whose other
two vertices have degree two, and every component left after deleting all
triangle vertices is a star with a black center and two or three leaves,
each an arm anchored in its own triangle or, for at most one, a pendant
tip.  `decompose` checks that structure and reads the triangles, stars and
core off the pair in one walk.  The structure turns the coloring question
into hitting a family of small sets exactly once: the core's part of each
triangle, each core edge between two triangles and the representatives of
each star's leaves.  That in turn is a saturating-matching question.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coloring import BLACK, WHITE, PartialColoring
from .graph import Graph
from .matching import solve_saturation


class StructureViolation(RuntimeError):
    """The pair breaks the structure `decompose` reads.  The reduction
    leaves only pairs with that structure, so a violation is a fault of
    the program, not a refutation of the instance."""


class Star(NamedTuple):
    """A component outside the triangles: a black center and its two or
    three uncolored leaves.  A leaf's representative is the leaf itself
    when it is a pendant tip, else the triangle vertex its arm is anchored
    at.  The center needs exactly one black leaf; a tip is black when
    chosen, and an arm is black exactly when its anchor is white, that is
    chosen.  So exactly one representative is chosen."""

    center: int
    leaves: tuple[int, ...]
    reps: tuple[int, ...]  # the representative of each leaf, in order


class IrreducibleDecomposition(NamedTuple):
    stars: tuple[Star, ...]
    degree4_triangles: tuple[tuple[int, int, int], ...]  # (r, p, q); deg r = 4
    core: frozenset[int]  # triangle vertices minus spokes minus blacks
    candidates: frozenset[int]  # core plus the pendant star tips


def assert_irreducible_structure(g: Graph, c: PartialColoring) -> Optional[str]:
    """None when `decompose` accepts the pair, else its violation's text."""
    try:
        decompose(g, c)
    except StructureViolation as err:
        return str(err)
    return None


def decompose(g: Graph, c: PartialColoring) -> IrreducibleDecomposition:
    """Check the structure of an irreducible pair and split it into
    triangles, stars and the core, in one walk.

    Raises StructureViolation for the first fact broken, in this order:
    the maximum degree; shared triangles and isolated vertices; degree-four
    vertices; black triangle vertices, which need degree two; then each
    component outside the triangles, by least vertex, which must be a star
    with a black center adjacent to its two or three uncolored leaves only,
    at most one leaf a pendant tip and the others arms anchored in distinct
    triangles.  Those components are read off the subgraph the outside
    vertices induce, the one graph built here.
    """
    top = g.max_degree()
    if top > 4:
        raise StructureViolation(f"maximum degree {top} exceeds four")
    adj, get, tri_at = g.adjacency, c.state.get, g.triangles_at()
    outside: list[int] = []
    deg4: list[tuple[int, int, int]] = []
    # the first break of the degree-four and black facts; either waits for
    # the walk's end, as a later shared triangle or isolated vertex comes first
    hub = black = None
    for v in g.vertices:
        ts, d = tri_at[v], len(adj[v])
        if len(ts) > 1:
            raise StructureViolation(f"vertex {v} lies in {len(ts)} triangles")
        if d == 0:
            raise StructureViolation(f"isolated vertex {v}")
        if not ts:
            if d == 4:
                hub = hub or f"degree-4 vertex {v} outside every triangle"
            outside.append(v)
            continue
        if d == 4:
            p, q = (w for w in ts[0] if w != v)
            if len(adj[p]) != 2 or len(adj[q]) != 2:
                hub = hub or f"triangle of degree-4 vertex {v} has high-degree partners"
            deg4.append((v, p, q))
        if d != 2 and get(v) == BLACK:
            black = black or f"black triangle vertex {v} has degree {d}"
    if hub or black:
        raise StructureViolation(hub or black)
    stars, tips = [], set()
    rest = g.subgraph(outside)
    inner = rest.adjacency  # neighbors outside the triangles
    for comp in rest.components():  # by least vertex
        label = sorted(comp)
        leaves = [v for v in label if len(inner[v]) == 1]
        # a connected component whose other vertices are all leaves is a star
        if not 3 <= len(label) <= 4 or len(leaves) != len(label) - 1:
            raise StructureViolation(f"component {label} outside the triangles is not a star of 2 or 3 leaves")
        x = next(v for v in label if len(inner[v]) > 1)
        if get(x) != BLACK:
            raise StructureViolation(f"star center {x} is not black")
        # only a center of two leaves can have a neighbor in a triangle: a claw
        # center's fourth neighbor makes it a degree-4 vertex outside every
        # triangle, raised above
        if len(adj[x]) != len(leaves):
            raise StructureViolation(f"star center {x} has a neighbor in a triangle")
        degs = [len(adj[a]) for a in leaves]
        if max(degs) > 2 or degs.count(1) > 1:
            raise StructureViolation(f"star {label} lacks the shape of arms and at most one pendant tip")
        if any(get(a) is not None for a in leaves):
            raise StructureViolation(f"star {label} has a colored leaf")
        # a pendant tip represents itself; an arm's other neighbor lies in a
        # triangle, as an outside one would share the component
        reps = [a if d == 1 else next(w for w in adj[a] if w != x) for a, d in zip(leaves, degs)]
        anchored = [tri_at[r][0] for r, d in zip(reps, degs) if d == 2]
        if len(set(anchored)) != len(anchored):
            raise StructureViolation(f"star {label} anchored twice in one triangle")
        tips.update(a for a, d in zip(leaves, degs) if d == 1)
        stars.append(Star(x, tuple(leaves), tuple(reps)))
    spokes = {w for _, p, q in deg4 for w in (p, q)}
    core = frozenset(v for v in g.vertices if tri_at[v] and v not in spokes and get(v) != BLACK)
    return IrreducibleDecomposition(
        stars=tuple(stars),
        degree4_triangles=tuple(deg4),
        core=core,
        candidates=core | tips,
    )


# --------------------------------------------------------------------------
# the set family


class SetFamilyInstance(NamedTuple):
    elements: tuple[int, ...]
    sets: tuple[frozenset[int], ...]


def build_family(g: Graph, c: PartialColoring, d: IrreducibleDecomposition) -> SetFamilyInstance:
    """Nontrivial maximal cliques of the core graph, plus the set of
    representatives of each star.  Hitting each set exactly once is
    equivalent to extending c.

    The core holds triangle vertices only, each in one triangle, so those
    cliques are the core's part of each triangle when it has two or three
    vertices, and the core edges between two triangles."""
    core = d.core
    tri_at = g.triangles_at()
    sets = [part for t in g.triangles() if len(part := core.intersection(t)) >= 2]
    sets += [frozenset((u, w)) for u in core for w in g.neighbors(u)
             if u < w and w in core and tri_at[u][0] != tri_at[w][0]]
    sets += [frozenset(s.reps) for s in d.stars]
    sets_sorted = tuple(sorted(sets, key=sorted))
    elements = tuple(sorted({e for a in sets_sorted for e in a}))
    # memberships are checked by solve_hitting's element index
    if not all(2 <= len(a) <= 3 for a in sets_sorted):
        raise AssertionError("set family violates size bounds")
    if not set(elements) <= d.candidates:
        raise AssertionError("set family leaks outside the candidate set")
    return SetFamilyInstance(elements, sets_sorted)


def solve_hitting(inst: SetFamilyInstance) -> Optional[frozenset[int]]:
    """Find C with |C ∩ A| = 1 for every A, or None.

    Raises ValueError if an element lies in more than two sets.  The
    elements two sets share are interchangeable, so only the least of them
    is kept.  Picking shared elements is then a matching question on the
    intersection graph, which goes to `solve_saturation` as ascending
    neighbour lists on the set indices; sets with no private element must
    be saturated, the rest can fall back on their least private element.
    """
    sets = inst.sets
    k = len(sets)
    if k == 0:
        return frozenset()
    owners: dict[int, list[int]] = {}
    for i, a in enumerate(sets):
        for e in a:
            owners.setdefault(e, []).append(i)
    if any(len(own) > 2 for own in owners.values()):
        raise ValueError("an element appears in more than two sets")
    shared_of: dict[tuple[int, int], int] = {}
    for e, own in owners.items():
        if len(own) == 2:
            pair = (own[0], own[1])
            shared_of[pair] = min(e, shared_of.get(pair, e))
    # pairs ascending, so each list ascends: its lower ends come first
    adj: list[list[int]] = [[] for _ in range(k)]
    for i, j in sorted(shared_of):
        adj[i].append(j)
        adj[j].append(i)
    privates = [sorted(e for e in a if len(owners[e]) == 1) for a in sets]
    m = solve_saturation(adj, [i for i, priv in enumerate(privates) if not priv])
    if m is None:
        return None
    chosen = {shared_of[e] for e in m}
    for a, priv in zip(sets, privates):
        if not a & chosen:
            if not priv:
                raise AssertionError("unsaturated set has no private element")
            chosen.add(priv[0])
    for a in sets:
        if len(a & chosen) != 1:
            raise AssertionError(f"set {sorted(a)} hit {len(a & chosen)} times")
    return frozenset(chosen)


def coloring_from_hit(
    g: Graph, c: PartialColoring, d: IrreducibleDecomposition, chosen: frozenset[int]
) -> PartialColoring:
    """Expand a hitting set into a complete coloring of the irreducible graph."""
    delta = dict(c.state)
    for x in sorted(d.core):
        delta[x] = WHITE if x in chosen else BLACK
    for r, p, q in d.degree4_triangles:
        tri = (r, p, q)
        whites = [t for t in tri if delta.get(t) == WHITE]
        open_spokes = sorted(t for t in (p, q) if t not in delta)
        if whites:
            if len(whites) != 1:
                raise AssertionError(f"triangle {tri} has {len(whites)} white vertices")
            for t in open_spokes:
                delta[t] = BLACK
        else:
            if not open_spokes:
                raise AssertionError(f"triangle {tri} cannot take a white vertex")
            delta[open_spokes[-1]] = WHITE
            for t in open_spokes[:-1]:
                delta[t] = BLACK
    # each star's set is hit exactly once: its chosen leaf partners the center
    for s in d.stars:
        for a, r in zip(s.leaves, s.reps):
            delta[a] = BLACK if r in chosen else WHITE
    missing = [v for v in g.vertices if v not in delta]
    if missing:
        raise AssertionError(f"uncolored vertices remain: {missing}")
    return PartialColoring(delta)
