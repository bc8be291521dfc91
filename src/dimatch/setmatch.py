"""From an irreducible pair to a coloring, via exact hitting and matching.

An irreducible pair has rigid structure: maximum degree four, each vertex
in at most one triangle, degree-four vertices in triangles whose other
two vertices have degree two, and every component left after deleting all
triangle vertices is a claw hanging between two distinct triangles.  That
structure turns the coloring question into hitting a family of small sets
exactly once, which in turn is a saturating-matching question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coloring import BLACK, WHITE, PartialColoring
from .graph import Graph
from .matching import solve_saturation


class StructureViolation(RuntimeError):
    pass


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
    """Check the structure every completable irreducible pair must have.

    Returns None when everything holds, else a description.  A violation
    on a pipeline-produced irreducible pair refutes the instance.
    """
    top = g.max_degree()
    if top > 4:
        return f"maximum degree {top} exceeds four"
    tri_at = g.triangles_at()
    for v in g.vertices:
        if len(tri_at[v]) > 1:
            return f"vertex {v} lies in {len(tri_at[v])} triangles"
        if g.degree(v) == 0:
            return f"isolated vertex {v}"
    for v in g.vertices:
        if g.degree(v) == 4:
            if not tri_at[v]:
                return f"degree-4 vertex {v} outside every triangle"
            t = tri_at[v][0]
            others = [w for w in t if w != v]
            if any(g.degree(w) != 2 for w in others):
                return f"triangle of degree-4 vertex {v} has high-degree partners"
    tverts = {v for v in g.vertices if tri_at[v]}
    for v in sorted(c.blacks()):
        if v in tverts and g.degree(v) != 2:
            return f"black triangle vertex {v} has degree {g.degree(v)}"
    outside = g.subgraph(v for v in g.vertices if v not in tverts)
    for comp in outside.components():
        err = _claw_violation(g, c, outside, comp, tverts)
        if err:
            return err
    return None


def _claw_violation(
    g: Graph, c: PartialColoring, outside: Graph, comp: frozenset[int], tverts: set[int]
) -> Optional[str]:
    label = sorted(comp)
    if len(comp) != 4:
        return f"non-claw component {label} outside the triangles"
    centers = [v for v in comp if outside.degree(v) == 3]
    leaves = [v for v in comp if outside.degree(v) == 1]
    if len(centers) != 1 or len(leaves) != 3:
        return f"component {label} is not a claw"
    x = centers[0]
    if g.degree(x) != 3:
        return f"claw center {x} has outside attachments"
    if c.get(x) != BLACK:
        return f"claw center {x} is not black"
    tips = sorted(v for v in leaves if g.degree(v) == 1)
    arms = sorted(v for v in leaves if g.degree(v) == 2)
    if len(tips) != 1 or len(arms) != 2:
        return f"claw {label} lacks the one-pendant shape"
    if any(c.get(v) is not None for v in leaves):
        return f"claw {label} has a colored leaf"
    anchors = []
    for a in arms:
        others = [w for w in g.neighbors(a) if w != x]
        if len(others) != 1 or others[0] not in tverts:
            return f"claw arm {a} not anchored in a triangle"
        anchors.append(others[0])
    t_at = g.triangles_at()
    if t_at[anchors[0]][0] == t_at[anchors[1]][0]:
        return f"claw {label} anchored twice in one triangle"
    return None


def decompose(g: Graph, c: PartialColoring) -> IrreducibleDecomposition:
    """Split an irreducible pair into triangles, claws and the core.

    Precondition: `assert_irreducible_structure(g, c)` returned None; the
    pipeline checks that first, and nothing here checks it again.
    """
    tri_at = g.triangles_at()
    tverts = frozenset(v for v in g.vertices if tri_at[v])
    deg4 = []
    for t in g.triangles():
        highs = [v for v in t if g.degree(v) == 4]
        if highs:
            r = highs[0]
            p, q = sorted(v for v in t if v != r)
            deg4.append((r, p, q))
    spokes = frozenset(x for _, p, q in deg4 for x in (p, q))
    claws = []
    outside = g.subgraph(v for v in g.vertices if v not in tverts)
    for comp in sorted(outside.components(), key=min):
        x = next(v for v in comp if outside.degree(v) == 3)
        leaves = sorted(v for v in comp if v != x)
        a2 = next(v for v in leaves if g.degree(v) == 1)
        a1, a3 = sorted(v for v in leaves if v != a2)
        v_anchor = next(w for w in g.neighbors(a1) if w != x)
        u_anchor = next(w for w in g.neighbors(a3) if w != x)
        claws.append(Claw(x, a1, a2, a3, v_anchor, u_anchor))
    core = frozenset(tverts - spokes - c.blacks())
    candidates = core | {cl.a2 for cl in claws}
    return IrreducibleDecomposition(
        claws=tuple(claws),
        degree4_triangles=tuple(sorted(deg4)),
        core=core,
        candidates=frozenset(candidates),
    )


# --------------------------------------------------------------------------
# the set family


@dataclass(frozen=True)
class SetFamilyInstance:
    elements: tuple[int, ...]
    sets: tuple[frozenset[int], ...]


def build_family(g: Graph, c: PartialColoring, d: IrreducibleDecomposition) -> SetFamilyInstance:
    """Nontrivial maximal cliques of the core graph, plus one anchor triple
    per claw.  Hitting each set exactly once is equivalent to extending c."""
    core_graph = g.subgraph(d.core)
    sets: list[frozenset[int]] = [frozenset(cl) for cl in core_graph.maximal_cliques_of_size_ge2()]
    for cl in d.claws:
        sets.append(frozenset({cl.v, cl.u, cl.a2}))
    sets_sorted = tuple(sorted(sets, key=lambda a: sorted(a)))
    elements = tuple(sorted({e for a in sets_sorted for e in a}))
    # memberships are checked by solve_hitting's element index
    if not all(2 <= len(a) <= 3 for a in sets_sorted):
        raise StructureViolation("set family violates size bounds")
    if not set(elements) <= d.candidates:
        raise StructureViolation("set family leaks outside the candidate set")
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
