"""Certificate checker that shares no code with the solver.

It works on the instance's own edge list, so a fault in `dimatch.graph` or
`dimatch.coloring` cannot make it accept a wrong certificate.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional


def certificate_error(n: int, edges: Iterable[tuple[int, int]],
                      colors: Mapping[int, str]) -> Optional[str]:
    """None if `colors` is a dominating induced matching of the graph on
    vertices 1..n, else the first reason it is not.

    Every vertex must be colored B or W and no other vertex may appear.
    Whites must be independent and every black vertex needs exactly one
    black neighbor.
    """
    unknown = sorted(v for v in colors if not (isinstance(v, int) and 1 <= v <= n))
    if unknown:
        return f"vertex {unknown[0]} is not in the graph"
    missing = [v for v in range(1, n + 1) if v not in colors]
    if missing:
        return f"vertex {missing[0]} is uncolored"
    bad = sorted(v for v, col in colors.items() if col not in ("B", "W"))
    if bad:
        return f"vertex {bad[0]} has color {colors[bad[0]]!r}"
    black_degree = dict.fromkeys(range(1, n + 1), 0)
    for u, v in edges:
        cu, cv = colors[u], colors[v]
        if cu == "W" and cv == "W":
            return f"adjacent whites {u} and {v}"
        if cu == "B" and cv == "B":
            black_degree[u] += 1
            black_degree[v] += 1
    for v in range(1, n + 1):
        if colors[v] == "B" and black_degree[v] != 1:
            return f"black vertex {v} has {black_degree[v]} black neighbors"
    return None
