"""From an irreducible pair to a coloring, via exact hitting and matching.

An irreducible pair has rigid structure: no white vertex, no two adjacent
black ones, maximum degree four, each vertex in at most one triangle,
black triangle vertices of degree two, degree-four vertices in triangles
whose other two vertices have degree two, and every component left after
deleting all triangle vertices is a star with a black center and two or
three uncolored leaves, each an arm anchored in its own triangle or, for
at most one, a pendant tip.  `check_structure` checks that structure
vertex by vertex in one walk, on the pair as cleaning would leave it, and
`read_decomposition` reads the triangles, stars and core off the cleaned
pair; `decompose` does both on a pair with nothing to clean.  The
structure turns the coloring question into hitting a family of small sets
exactly once: the core's part of each triangle, each core edge between
two triangles and the representatives of each star's leaves.  That in
turn is a saturating-matching question.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coloring import BLACK, WHITE, PartialColoring
from .graph import Graph
from .matching import solve_saturation


class StructureViolation(RuntimeError):
    """The pair breaks the structure `decompose` reads.  The reduction
    leaves only pairs with that structure, so a violation is a fault of
    the program, not a refutation of the instance.  `vertex` is the vertex
    whose fact broke (see `structure_fault`), if any."""

    def __init__(self, message: str, vertex: Optional[int] = None) -> None:
        super().__init__(message)
        self.vertex = vertex


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


def structure_fault(g: Graph, c: PartialColoring, v: int) -> Optional[str]:
    """The first structure fact that the pair cleaning would leave breaks
    at v, or None.

    Cleaning (`dimatch.rewrite.clean`) drops the white vertices and the
    matched black pairs.  So a white v whose neighbours are all black, and
    a black v with one black neighbour and every other neighbour white,
    are skipped; a white v with a neighbour that is not black, or a black
    one with two black neighbours, or with one and a neighbour that is not
    white, breaks a fact here.  Every other vertex is read without its
    white neighbours, the only ones cleaning takes from it once those
    facts hold everywhere, in this order: v is not isolated and has
    degree at most four.  A triangle vertex lies in one triangle and, if
    black, has degree two; if its degree is four, the other two vertices
    of its triangle have degree two.  A vertex outside the triangles has
    degree below four, and is either uncolored with exactly one black
    neighbour (a leaf) or black (a star center).  A center has two or
    three neighbours, all outside the triangles, each of degree at most
    two and at most one of degree one, the pendant tip; every other leaf
    is an arm whose second neighbour lies in a triangle, the arms of one
    center in distinct triangles.

    Over all vertices these facts are the whole structure of the cleaned
    pair.  Once they hold everywhere, an uncolored vertex has no white
    neighbour and no matched black one, so it keeps its neighbourhood, and
    a black survivor loses only white neighbours; each triangle lies
    wholly inside or wholly outside what cleaning removes (a white vertex
    is in one only with a matched pair, and a matched pair's third
    neighbour is white), so the triangles at a survivor are those of the
    cleaned graph.  A black partner of a degree-four vertex has degree two
    by its own fact, so only uncolored partners are read here.  A leaf's
    black neighbour lies outside the triangles, since a black triangle
    vertex has only its triangle's two other vertices as neighbours; so it
    is a center, the leaf is one of its own, and each component outside
    the triangles is one center with its leaves.  Whether v lies in a
    triangle is read from its neighbours, so a vertex outside every
    triangle builds no triangle index.
    """
    adj, get = g.adjacency, c.state.get
    ns = adj[v]
    col = get(v)
    if col is not None:
        # v's uncolored and black neighbours; the others are white
        open_ = blacks = 0
        for w in ns:
            cw = get(w)
            if cw is None:
                open_ += 1
            elif cw == BLACK:
                blacks += 1
        if col == WHITE:
            if blacks == len(ns):
                return None
            return f"white vertex {v} has a neighbor {min(w for w in ns if get(w) != BLACK)} that is not black"
        if blacks > 1:
            return f"black vertex {v} has {blacks} black neighbors"
        if blacks:
            if not open_:
                return None
            return f"matched black vertex {v} has a neighbor {min(w for w in ns if get(w) is None)} that is not white"
        if open_ < len(ns):
            ns = frozenset(w for w in ns if get(w) is None)
    d = len(ns)
    if not d:
        return f"isolated vertex {v}"
    if d > 4:
        return f"vertex {v} has degree {d}, above four"
    # v's black neighbours and whether two neighbours are adjacent, in one
    # pass and without a closure, as this is asked once per propagation
    # round
    blacks = 0
    inside = False
    for w in ns:
        if get(w) == BLACK:
            blacks += 1
        if not inside and not adj[w].isdisjoint(ns):
            inside = True
    if inside:
        ts = g.triangles_at()[v]
        if len(ts) > 1:
            return f"vertex {v} lies in {len(ts)} triangles"
        if d == 4:
            for w in ts[0]:
                if w != v and get(w) is None and len(adj[w]) != 2:
                    return f"triangle of degree-4 vertex {v} has high-degree partners"
        if col == BLACK and d != 2:
            return f"black triangle vertex {v} has degree {d}"
        return None
    if d == 4:
        return f"degree-4 vertex {v} outside every triangle"
    if col is None:
        return None if blacks == 1 else f"vertex {v} outside the triangles has {blacks} black neighbors"
    return _center_fault(g, v, ns)


def _center_fault(g: Graph, v: int, ns: frozenset[int]) -> Optional[str]:
    """The first fact of a star center that v, black and outside the
    triangles with its leaves ns, its neighbours that are not white,
    breaks, or None (see `structure_fault`); v has no black neighbour, so
    the leaves are uncolored.  They are read in one pass; the facts are
    then decided in their order."""
    adj = g.adjacency
    if len(ns) == 1:
        return f"star center {v} has one leaf"
    near_triangle = misshapen = False
    tips = 0
    anchors = []
    for a in ns:
        na = adj[a]
        for w in na:
            if not adj[w].isdisjoint(na):
                near_triangle = True
        if len(na) == 1:
            tips += 1
        elif len(na) == 2:
            anchors += [w for w in na if w != v]
        else:
            misshapen = True
    if near_triangle:
        return f"star center {v} has a neighbor in a triangle"
    if misshapen or tips > 1:
        return f"star {sorted((v, *ns))} lacks the shape of arms and at most one pendant tip"
    for r in anchors:
        nr = adj[r]
        if all(adj[w].isdisjoint(nr) for w in nr):
            return f"star {sorted((v, *ns))} has an arm outside the triangles"
    if len(anchors) > 1:
        tri_at = g.triangles_at()
        if len({tri_at[r][0] for r in anchors}) != len(anchors):
            return f"star {sorted((v, *ns))} anchored twice in one triangle"
    return None


def check_structure(g: Graph, c: PartialColoring) -> None:
    """Raise StructureViolation unless the pair cleaning would leave has
    the structure `decompose` reads.

    One fail-fast walk down from the greatest vertex asks each vertex's
    facts (`structure_fault`) and raises at the first that breaks one,
    naming that vertex.  So a refused pair costs the walk down to that
    vertex and builds nothing, and an accepted one has been walked once
    and is not copied.  The walk goes down because the rules and rewrites
    search up from the least vertex, so a refusal tends to name a vertex
    they leave alone."""
    for v in reversed(g.vertices):
        fault = structure_fault(g, c, v)
        if fault is not None:
            raise StructureViolation(fault, v)


def decompose(g: Graph, c: PartialColoring) -> IrreducibleDecomposition:
    """Check the structure of an irreducible pair and split it into
    triangles, stars and the core.

    A pair `check_structure` accepts is rigid once cleaned: it then has no
    white vertex and no two adjacent black ones, and a coloring extending
    c exists exactly when the sets of `build_family` can be hit exactly
    once.  The reduction ends at the first pair that is rigid once cleaned
    (see `dimatch.rewrite.reduce_to_irreducible`, which proves the second
    fact), cleans it and reads it with `read_decomposition`.

    Raises StructureViolation for the first fact broken (see
    `check_structure`), and for a pair that cleaning would still change,
    naming its least white vertex or matched black one: the reading takes
    the pair as it stands.
    """
    check_structure(g, c)
    adj, get = g.adjacency, c.state.get
    for v in g.vertices:
        col = get(v)
        if col == WHITE or col == BLACK and any(get(w) == BLACK for w in adj[v]):
            raise StructureViolation(f"cleaning would remove vertex {v}", v)
    return read_decomposition(g, c)


def read_decomposition(g: Graph, c: PartialColoring) -> IrreducibleDecomposition:
    """The triangles, stars and core of a pair that `check_structure`
    accepts and cleaning leaves as it is.  The stars are read off the
    subgraph the vertices outside the triangles induce, the one graph
    built here, one star per component in order of least vertex."""
    adj, get, tri_at = g.adjacency, c.state.get, g.triangles_at()
    outside = [v for v in g.vertices if not tri_at[v]]
    deg4 = [(v, *(w for w in tri_at[v][0] if w != v)) for v in g.vertices if len(adj[v]) == 4]
    stars, tips = [], set()
    rest = g.subgraph(outside)
    inner = rest.adjacency  # neighbors outside the triangles
    for comp in rest.components():  # by least vertex
        label = sorted(comp)
        leaves = [v for v in label if len(inner[v]) == 1]
        x = next(v for v in label if len(inner[v]) > 1)
        # a pendant tip represents itself, an arm the triangle vertex it ends at
        reps = [a if len(adj[a]) == 1 else next(w for w in adj[a] if w != x) for a in leaves]
        tips.update(a for a in leaves if len(adj[a]) == 1)
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
