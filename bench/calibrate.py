"""A fixed pure-Python kernel that tracks how fast this machine runs now.

Timings on a shared host drift by a quarter or more over tens of seconds,
as other tenants load the cores and caches.  The drift slows this kernel
and the solver alike, so the benchmark times the kernel between solver
calls and scales every solver time by REFERENCE_S / (kernel median of the
same pass).  The kernel shares no code with the solver, so a change to the
solver cannot move it.
"""

from __future__ import annotations

import random
import time

# the kernel's time on the machine that scaled figures describe; on a
# shared 2-core x86-64 virtual machine with CPython 3.11 it ran in 0.52-1.0 ms
REFERENCE_S = 0.001



def _random_graph(n: int, m: int, seed: int) -> dict[int, frozenset[int]]:
    rng = random.Random(seed)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for _ in range(m):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return {v: frozenset(ns) for v, ns in adj.items()}


ADJ = _random_graph(300, 900, seed=20150510)


def kernel() -> int:
    """Triangle listing and a depth-first search over a fixed sparse graph:
    the same mix of set, dict and tuple work the solver does."""
    found = 0
    for u, nu in ADJ.items():
        for v in nu:
            if v > u:
                for w in nu & ADJ[v]:
                    if w > v:
                        found += 1
    seen = {0}
    stack = [0]
    while stack:
        for y in sorted(ADJ[stack.pop()]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return found + len(seen)


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
