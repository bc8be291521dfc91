"""From an irreducible pair to a coloring, via exact hitting and matching.

An irreducible pair has rigid structure: maximum degree four, each vertex
in at most one triangle, degree-four vertices in triangles whose other
two vertices have degree two, and every component left after deleting all
triangle vertices is a claw hanging between two distinct triangles.
`decompose` checks that structure and reads the triangles, claws and core
off the pair in one walk.  The structure turns the coloring question into
hitting a family of small sets exactly once: the core's part of each
triangle, each core edge between two triangles and one triple per claw.
That in turn is a saturating-matching question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coloring import BLACK, WHITE, PartialColoring
from .graph import Graph
from .matching import solve_saturation


class StructureViolation(RuntimeError):
    """The pair breaks the structure every completable irreducible pair
    has, so the instance is NO."""


@dataclass(frozen=True)
class Claw:
    center: int
    a1: int
    a2: int
    a3: int
    v: int  # neighbor of a1 outside the claw
    u: int  # neighbor of a3 outside the claw


@dataclass(frozen=True)
class IrreducibleDecomposition:
    claws: tuple[Claw, ...]
    degree4_triangles: tuple[tuple[int, int, int], ...]  # (r, p, q); deg r = 4
    core: frozenset[int]  # triangle vertices minus spokes minus blacks
    candidates: frozenset[int]  # core plus the pendant claw tips


def assert_irreducible_structure(g: Graph, c: PartialColoring) -> Optional[str]:
    """None when `decompose` accepts the pair, else its violation's text."""
    try:
        decompose(g, c)
    except StructureViolation as err:
        return str(err)
    return None


def decompose(g: Graph, c: PartialColoring) -> IrreducibleDecomposition:
    """Check the structure of an irreducible pair and split it into
    triangles, claws and the core, in one walk.

    Raises StructureViolation for the first fact broken, in this order:
    the maximum degree; shared triangles and isolated vertices; degree-four
    vertices; black triangle vertices, which need degree two; then each
    component outside the triangles, by least vertex, which must be a claw
    with a black center, uncolored leaves and one pendant tip, its arms
    anchored in two distinct triangles.  On a pipeline-produced
    irreducible pair a violation refutes the instance.
    """
    top = g.max_degree()
    if top > 4:
        raise StructureViolation(f"maximum degree {top} exceeds four")
    tri_at = g.triangles_at()
    outside: list[int] = []
    deg4: list[tuple[int, int, int]] = []
    # the first break of the degree-four and black facts; either waits for
    # the walk's end, as a later shared triangle or isolated vertex comes first
    hub = black = None
    for v in g.vertices:
        ts, d = tri_at[v], g.degree(v)
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
            if g.degree(p) != 2 or g.degree(q) != 2:
                hub = hub or f"triangle of degree-4 vertex {v} has high-degree partners"
            deg4.append((v, p, q))
        if d != 2 and c.get(v) == BLACK:
            black = black or f"black triangle vertex {v} has degree {d}"
    if hub or black:
        raise StructureViolation(hub or black)
    claws = []
    rest = g.subgraph(outside)
    for comp in rest.components():  # by least vertex
        label = sorted(comp)
        if len(comp) != 4:
            raise StructureViolation(f"non-claw component {label} outside the triangles")
        centers = [v for v in label if rest.degree(v) == 3]
        leaves = [v for v in label if rest.degree(v) == 1]
        if len(centers) != 1 or len(leaves) != 3:
            raise StructureViolation(f"component {label} is not a claw")
        # the center has degree three in g: more would make it a vertex of
        # degree four outside every triangle, or five, raised above
        x = centers[0]
        if c.get(x) != BLACK:
            raise StructureViolation(f"claw center {x} is not black")
        tips = [v for v in leaves if g.degree(v) == 1]
        arms = [v for v in leaves if g.degree(v) == 2]
        if len(tips) != 1 or len(arms) != 2:
            raise StructureViolation(f"claw {label} lacks the one-pendant shape")
        if any(c.get(v) is not None for v in leaves):
            raise StructureViolation(f"claw {label} has a colored leaf")
        # an arm has degree two and is a leaf of its component, so its other
        # neighbor is a triangle vertex: an outside one would share the component
        anchors = [w for a in arms for w in g.neighbors(a) if w != x]
        if tri_at[anchors[0]][0] == tri_at[anchors[1]][0]:
            raise StructureViolation(f"claw {label} anchored twice in one triangle")
        claws.append(Claw(x, arms[0], tips[0], arms[1], anchors[0], anchors[1]))
    spokes = {w for _, p, q in deg4 for w in (p, q)}
    core = frozenset(v for v in g.vertices if tri_at[v] and v not in spokes and c.get(v) != BLACK)
    return IrreducibleDecomposition(
        claws=tuple(claws),
        degree4_triangles=tuple(deg4),
        core=core,
        candidates=core | {cl.a2 for cl in claws},
    )


# --------------------------------------------------------------------------
# the set family


@dataclass(frozen=True)
class SetFamilyInstance:
    elements: tuple[int, ...]
    sets: tuple[frozenset[int], ...]


def build_family(g: Graph, c: PartialColoring, d: IrreducibleDecomposition) -> SetFamilyInstance:
    """Nontrivial maximal cliques of the core graph, plus one anchor triple
    per claw.  Hitting each set exactly once is equivalent to extending c.

    The core holds triangle vertices only, each in one triangle, so those
    cliques are the core's part of each triangle when it has two or three
    vertices, and the core edges between two triangles."""
    core = d.core
    tri_at = g.triangles_at()
    sets = [part for t in g.triangles() if len(part := core.intersection(t)) >= 2]
    sets += [frozenset((u, w)) for u in core for w in g.neighbors(u)
             if u < w and w in core and tri_at[u][0] != tri_at[w][0]]
    sets += [frozenset((cl.v, cl.u, cl.a2)) for cl in d.claws]
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
    intersection graph; sets with no private element must be saturated,
    the rest can fall back on their least private element.
    """
    sets = inst.sets
    k = len(sets)
    if k == 0:
        return frozenset()
    owners: dict[int, list[int]] = {}
    for i, a in enumerate(sets, start=1):
        for e in a:
            owners.setdefault(e, []).append(i)
    if any(len(own) > 2 for own in owners.values()):
        raise ValueError("an element appears in more than two sets")
    shared_of: dict[tuple[int, int], int] = {}
    for e, own in owners.items():
        if len(own) == 2:
            pair = (own[0], own[1])
            shared_of[pair] = min(e, shared_of.get(pair, e))
    inter = Graph(range(1, k + 1), sorted(shared_of))
    privates = [sorted(e for e in a if len(owners[e]) == 1) for a in sets]
    required = [i for i, priv in enumerate(privates, start=1) if not priv]
    m = solve_saturation(inter, required)
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
    for cl in d.claws:
        if delta.get(cl.center) != BLACK:
            raise AssertionError(f"claw center {cl.center} is not black")
        hit = [t for t in (cl.a2, cl.u, cl.v) if t in chosen]
        if not hit:
            raise AssertionError(f"claw triple at {cl.center} was not hit")
        if cl.a2 in chosen:
            plan = {cl.a2: BLACK, cl.a1: WHITE, cl.a3: WHITE}
        elif cl.u in chosen:
            plan = {cl.a2: WHITE, cl.a1: WHITE, cl.a3: BLACK}
        else:
            plan = {cl.a2: WHITE, cl.a3: WHITE, cl.a1: BLACK}
        delta.update(plan)
    missing = [v for v in g.vertices if v not in delta]
    if missing:
        raise AssertionError(f"uncolored vertices remain: {missing}")
    return PartialColoring(delta)
