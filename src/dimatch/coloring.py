"""Black/white vertex colorings and their feasibility rules.

A complete coloring encodes a dominating induced matching: black vertices
induce a perfect matching among themselves (each black vertex has exactly
one black neighbor) and white vertices form an independent set.  Partial
colorings relax "exactly one" to "at most one".
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graph import Graph

BLACK = "B"
WHITE = "W"


class Conflict(NamedTuple):
    """Why an assignment was rejected; `rule` names the demanding rule."""

    rule: str
    vertex: int
    wanted: str
    reason: str

    def __str__(self) -> str:
        return f"rule {self.rule} forces {self.wanted} on {self.vertex}: {self.reason}"


class PartialColoring:
    """Mutable map vertex -> BLACK | WHITE | absent (uncolored)."""

    __slots__ = ("state",)

    def __init__(self, state: Optional[dict[int, str]] = None):
        self.state: dict[int, str] = dict(state) if state else {}

    def copy(self) -> PartialColoring:
        return PartialColoring(self.state)

    def get(self, v: int) -> Optional[str]:
        return self.state.get(v)

    def __getitem__(self, v: int) -> Optional[str]:
        return self.state.get(v)

    def __contains__(self, v: int) -> bool:
        return v in self.state

    def blacks(self) -> set[int]:
        return {v for v, c in self.state.items() if c == BLACK}

    def whites(self) -> set[int]:
        return {v for v, c in self.state.items() if c == WHITE}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialColoring) and self.state == other.state

    def __repr__(self) -> str:
        inner = ",".join(f"{v}{c}" for v, c in sorted(self.state.items()))
        return f"PartialColoring({inner})"


def verify_complete(g: Graph, c: PartialColoring) -> bool:
    """True iff c is a feasible complete coloring of g: every white vertex
    has only black neighbors and every black vertex exactly one.

    c must color exactly the vertices of g; an uncolored vertex or a
    colored vertex outside g is a contract violation and raises ValueError.
    """
    for v in g.vertices:
        if c.get(v) is None:
            raise ValueError(f"vertex {v} is uncolored")
    if len(c.state) != g.n:
        stray = min(v for v in c.state if v not in g)
        raise ValueError(f"vertex {stray} is not in the graph")
    adj, blacks = g.adjacency, c.blacks()
    for v, col in c.state.items():
        if col == WHITE:
            if not adj[v] <= blacks:
                return False
        elif len(adj[v] & blacks) != 1:
            return False
    return True


def assign(g: Graph, c: PartialColoring, v: int, color: str, rule: str = "assign") -> Optional[Conflict]:
    """Color v, checking partial feasibility.  Returns the conflict that
    rejects the color, or None once v has it; a conflict names the least
    neighbors that cause it."""
    get = c.state.get
    cur = get(v)
    if cur == color:
        return None
    if cur is not None:
        return Conflict(rule, v, color, f"already {cur}")
    ns = g.neighbors(v)
    if color == WHITE:
        for w in ns:
            if get(w) == WHITE:
                return Conflict(rule, v, color, f"white neighbor {min(x for x in ns if get(x) == WHITE)}")
    else:
        black_nbrs = [w for w in ns if get(w) == BLACK]
        if len(black_nbrs) > 1:
            return Conflict(rule, v, color, f"two black neighbors {sorted(black_nbrs)[:2]}")
        for w in black_nbrs:
            others = [x for x in g.neighbors(w) if x != v and get(x) == BLACK]
            if others:
                return Conflict(rule, v, color, f"{w} would get two black neighbors")
    c.state[v] = color
    return None


def parse_certificate(text: str) -> PartialColoring:
    """Certificate format: one `vertex B|W` pair per line; '#' comments."""
    state: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in (BLACK, WHITE):
            raise ValueError(f"line {lineno}: expected 'vertex B|W'")
        try:
            v = int(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: vertex {parts[0]!r} is not an integer") from None
        if v in state:
            raise ValueError(f"line {lineno}: vertex {v} listed twice")
        state[v] = parts[1]
    return PartialColoring(state)


def format_certificate(c: PartialColoring) -> str:
    return "\n".join(f"{v} {col}" for v, col in sorted(c.state.items())) + "\n"
