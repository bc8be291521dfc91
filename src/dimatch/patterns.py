"""Anchored induced-subgraph pattern matching.

A Pattern describes a small labelled graph to be located inside a host:
required edges must be present, optional edges may go either way, every
other role pair must be a non-edge.  Roles can additionally constrain the
host degree, demand that the host vertex keeps all its neighbors inside
the matched image (closure), or require a color state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .coloring import BLACK
from .graph import Graph

# color preconditions
MUST_BLACK = "black"
MUST_UNCOLORED = "uncolored"

Coloring = Mapping[int, str]


@dataclass(frozen=True)
class Embedding:
    """Injective role -> vertex map witnessing a pattern occurrence."""

    assignment: dict[str, int]

    def __getitem__(self, role: str) -> int:
        return self.assignment[role]

    def image(self) -> frozenset[int]:
        return frozenset(self.assignment.values())

    def __repr__(self) -> str:
        inner = ",".join(f"{r}:{v}" for r, v in sorted(self.assignment.items()))
        return f"<{inner}>"


def _rp(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass
class Pattern:
    roles: tuple[str, ...]
    required: frozenset[tuple[str, str]]
    optional: frozenset[tuple[str, str]] = frozenset()
    degree: dict[str, tuple[int, int | None]] = field(default_factory=dict)
    closure: frozenset[str] = frozenset()
    color: dict[str, str] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        roles = set(self.roles)
        for a, b in self.required | self.optional:
            if a not in roles or b not in roles:
                raise ValueError(f"{self.name}: edge ({a},{b}) uses undeclared role")
        if self.required & self.optional:
            raise ValueError(f"{self.name}: required and optional edges overlap")
        for r in list(self.degree) + list(self.color) + list(self.closure):
            if r not in roles:
                raise ValueError(f"{self.name}: constraint on undeclared role {r}")
        self._req = {_rp(a, b) for a, b in self.required}
        self._opt = {_rp(a, b) for a, b in self.optional}
        self._order = self._role_order()
        # Host degree range per role, checked as each role is placed.  A
        # role's vertex has at least one neighbor per required edge.  The
        # neighbors of a closure role's vertex are exactly its required
        # partners plus some optional ones, which also caps its degree; when
        # it has no optional edges the range is exact, and the closure test
        # after the last role is left only for closure roles with optional
        # edges.
        self._degree: dict[str, tuple[int, int | None]] = {}
        self._loose_closure: list[str] = []
        for r in self.roles:
            n_req = sum(1 for e in self._req if r in e)
            lo, hi = self.degree.get(r, (0, None))
            if r in self.closure:
                n_opt = sum(1 for e in self._opt if r in e)
                hi = n_req + n_opt if hi is None else min(hi, n_req + n_opt)
                if n_opt:
                    self._loose_closure.append(r)
            self._degree[r] = (max(lo, n_req), hi)
        self.radius = self._eccentricity(self._order[0])
        # per role in order: earlier roles it must touch, earlier roles it
        # must not touch, degree range and color precondition
        self._steps: list[tuple] = []
        seen: list[str] = []
        for r in self._order:
            touch = [s for s in seen if _rp(r, s) in self._req]
            avoid = [s for s in seen if _rp(r, s) not in self._req and _rp(r, s) not in self._opt]
            self._steps.append((r, touch, avoid, *self._degree[r], self.color.get(r)))
            seen.append(r)

    def _role_order(self) -> list[str]:
        """Most-constrained first, then expand along required edges."""

        def weight(r: str) -> tuple:
            return (
                r not in self.color,
                r not in self.degree,
                -sum(1 for e in self._req if r in e),
                self.roles.index(r),
            )

        remaining = set(self.roles)
        order = [min(remaining, key=weight)]
        remaining.discard(order[0])
        while remaining:
            attached = [r for r in remaining if any(_rp(r, s) in self._req for s in order)]
            pool = attached or sorted(remaining)
            nxt = min(pool, key=weight)
            order.append(nxt)
            remaining.discard(nxt)
        return order

    def _eccentricity(self, start: str) -> Optional[int]:
        """Distance from start to its farthest role along required edges,
        or None if some role is out of reach.  Every vertex an embedding
        uses lies that close to the vertex of start in the host."""
        reached, frontier, depth = {start}, {start}, 0
        while True:
            frontier = {s for s in self.roles if s not in reached
                        and any(_rp(r, s) in self._req for r in frontier)}
            if not frontier:
                return depth if len(reached) == len(self.roles) else None
            reached |= frontier
            depth += 1

    # -- matching ----------------------------------------------------------

    def find_all(
        self,
        g: Graph,
        colors: Optional[Coloring] = None,
        exclude: Iterable[int] = (),
        anchors: Optional[Sequence[int]] = None,
    ) -> Iterator[Embedding]:
        """Embeddings in canonical order (role order, ascending vertex ids).

        With anchors (ascending host vertices), only the embeddings that
        place the first role on an anchor, still in canonical order; such a
        scan reads nothing farther than `radius` from its anchors.
        """
        if g.n < len(self.roles):
            return
        excluded = set(exclude)
        assignment: dict[str, int] = {}
        used: set[int] = set()
        steps = self._steps
        nbrs = g.neighbors
        state = colors if colors is not None else {}

        def extend(i: int) -> Iterator[Embedding]:
            if i == len(steps):
                for r in self._loose_closure:
                    if not nbrs(assignment[r]) <= used:
                        return
                yield Embedding(dict(assignment))
                return
            r, touch, avoid, lo, hi, want = steps[i]
            if touch:
                cands = nbrs(assignment[touch[0]])
                for s in touch[1:]:
                    cands = cands & nbrs(assignment[s])
                cands = sorted(cands)
            else:
                cands = anchors if i == 0 and anchors is not None else g.vertices
            avoid_nbrs = [nbrs(assignment[s]) for s in avoid]
            for v in cands:
                if v in used or v in excluded:
                    continue
                d = len(nbrs(v))
                if d < lo or (hi is not None and d > hi):
                    continue
                if want is not None and (state.get(v) != BLACK if want == MUST_BLACK else state.get(v) is not None):
                    continue
                if any(v in ns for ns in avoid_nbrs):
                    continue
                assignment[r] = v
                used.add(v)
                yield from extend(i + 1)
                del assignment[r]
                used.discard(v)

        yield from extend(0)

    def find(
        self,
        g: Graph,
        colors: Optional[Coloring] = None,
        exclude: Iterable[int] = (),
    ) -> Optional[Embedding]:
        return next(self.find_all(g, colors, exclude), None)


def find_induced(g: Graph, p: Pattern, exclude: Iterable[int] = ()) -> Optional[Embedding]:
    """First embedding of p in g in canonical order, or None."""
    return p.find(g, colors=None, exclude=exclude)


def _edges(spec: str) -> frozenset[tuple[str, str]]:
    return frozenset(_rp(*e.split("-")) for e in spec.split())


def pattern(name: str, roles: str, req: str, opt: str = "", **kw) -> Pattern:
    return Pattern(
        roles=tuple(roles.split()),
        required=_edges(req),
        optional=_edges(opt) if opt else frozenset(),
        name=name,
        **kw,
    )


def contains_s222(g: Graph) -> Optional[Embedding]:
    """Find an induced long claw: centre c, three paths c-ai-bi, no other
    adjacencies among the seven vertices.  Specialised for speed."""
    for c in g.vertices:
        nc = g.neighbors(c)
        if len(nc) < 3:
            continue
        arms = sorted(nc)
        for i, a1 in enumerate(arms):
            for j in range(i + 1, len(arms)):
                a2 = arms[j]
                if g.has_edge(a1, a2):
                    continue
                for a3 in arms[j + 1 :]:
                    if g.has_edge(a1, a3) or g.has_edge(a2, a3):
                        continue
                    emb = _grow_legs(g, c, (a1, a2, a3))
                    if emb is not None:
                        return emb
    return None


def _grow_legs(g: Graph, c: int, arms: tuple[int, int, int]) -> Optional[Embedding]:
    nc = g.neighbors(c)
    others: list[list[int]] = []
    for i, a in enumerate(arms):
        rest = [x for x in arms if x != a]
        cand = sorted(
            b
            for b in g.neighbors(a)
            if b != c and b not in nc and not any(g.has_edge(b, r) for r in rest)
        )
        others.append(cand)

    for b1 in others[0]:
        for b2 in others[1]:
            if b2 == b1 or g.has_edge(b1, b2):
                continue
            for b3 in others[2]:
                if b3 in (b1, b2) or g.has_edge(b1, b3) or g.has_edge(b2, b3):
                    continue
                return Embedding(
                    {
                        "c": c,
                        "a1": arms[0],
                        "a2": arms[1],
                        "a3": arms[2],
                        "b1": b1,
                        "b2": b2,
                        "b3": b3,
                    }
                )
    return None
