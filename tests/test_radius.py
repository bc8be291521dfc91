"""The radius contract of anchored scans, which the reduction's worklist
relies on.

For every catalog rule with a radius and every rewrite rule:

- scans anchored at each single vertex, concatenated in ascending order,
  give the full scan;
- recoloring a vertex, or adding or removing an edge between two vertices,
  farther than the radius from an anchor leaves the scan anchored there
  unchanged;
- with the radius one less, some host breaks the second point, so no
  radius is larger than it must be.

A catalog scan is the list of its groups together with the current colors
of the demanded vertices (what `propagate` reads to decide a firing); a
rewrite scan is the list of embeddings its guard accepts.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from dimatch.coloring import BLACK, WHITE, PartialColoring
from dimatch.graph import Graph
from dimatch.rewrite import REWRITE_RULES
from dimatch.rules import CATALOG

from .util import FORCING_HOSTS, REWRITE_HOSTS, decorate


def catalog_scan(rule):
    def scan(g, c, anchors):
        groups = rule.fn(g, c) if anchors is None else rule.fn(g, c, anchors)
        return [(tuple(group), tuple(c.get(v) for v, _ in group)) for group in groups]

    return scan


def rewrite_scan(rule):
    def scan(g, c, anchors):
        return [
            emb for emb in rule.pattern.find_all(g, c.state, anchors=anchors)
            if rule.guard is None or rule.guard(g, c, emb)
        ]

    return scan


def _with_bowtie(host, coloring):
    """host with a bowtie whose centre is joined to host's top vertex."""
    c = max(host.vertices) + 1
    bowtie = [(c, c + 1), (c, c + 2), (c + 1, c + 2), (c, c + 3), (c, c + 4), (c + 3, c + 4)]
    return Graph([*host.vertices, *range(c, c + 5)], host.edges() + bowtie + [(c - 1, c)]), coloring


SCANS = {r.id: (catalog_scan(r), r.radius, [FORCING_HOSTS[r.id]]) for r in CATALOG if r.radius is not None}
SCANS.update({r.id: (rewrite_scan(r), r.pattern.radius, REWRITE_HOSTS[r.id]) for r in REWRITE_RULES})
# no other lone_wing host holds a butterfly; this one's is three steps from v
SCANS["lone_wing"][2].append(_with_bowtie(*FORCING_HOSTS["lone_wing"]))


def hosts(bases, seeds=10):
    """The fixture hosts and decorated ones, each with its vertex ids
    shuffled (which moves the least vertex a code rule anchors at) and
    with a few random colors added."""
    for g, coloring in bases:
        for seed in range(seeds):
            rng = random.Random(seed)
            h = g if seed == 0 else decorate(g, seed)
            yield h, dict(coloring)
            ids = list(h.vertices)
            rng.shuffle(ids)
            new = dict(zip(h.vertices, ids))
            h = Graph(ids, [(new[u], new[v]) for u, v in h.edges()])
            shuffled = {new[v]: col for v, col in coloring.items()}
            yield h, shuffled
            for density in (0.25, 0.5):
                extra = dict(shuffled)
                for v in h.vertices:
                    if v not in extra and rng.random() < density:
                        extra[v] = rng.choice((BLACK, WHITE))
                yield h, extra


def distances(g, a):
    dist, frontier = {a: 0}, [a]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def perturbations(g, coloring, far, boundary, rng):
    """Recolor each far vertex; toggle edges from the boundary (the nearest
    far vertices) to every far vertex, and a sample of other far pairs."""
    for v in far:
        for col in (None, BLACK, WHITE):
            if coloring.get(v) != col:
                c2 = {u: x for u, x in coloring.items() if u != v}
                if col is not None:
                    c2[v] = col
                yield g, c2
    pairs = [(u, w) for u, w in combinations(far, 2) if u in boundary or w in boundary]
    rest = [(u, w) for u, w in combinations(far, 2) if u not in boundary and w not in boundary]
    pairs += rng.sample(rest, min(len(rest), 5))
    edges = set(g.edges())
    for e in pairs:
        yield Graph(g.vertices, edges ^ {e}), coloring


def radius_violations(scan, radius, bases):
    """Counterexamples to the radius contract, as readable tuples."""
    bad = []
    rng = random.Random(0)
    for g, coloring in hosts(bases):
        c = PartialColoring(coloring)
        full = scan(g, c, None)
        per_anchor = {a: scan(g, c, [a]) for a in g.vertices}
        if [x for a in g.vertices for x in per_anchor[a]] != full:
            bad.append(("concatenation", g.edges(), coloring))
        # every anchor the scan fires from, and a few where it does not
        busy = [a for a in g.vertices if per_anchor[a]]
        idle = [a for a in g.vertices if not per_anchor[a]]
        for a in busy + rng.sample(idle, min(len(idle), 2)):
            dist = distances(g, a)
            far = [v for v in g.vertices if dist.get(v, radius + 1) > radius]
            boundary = {v for v in far if dist.get(v) == radius + 1}
            want = sorted(map(repr, per_anchor[a]))
            for g2, c2 in perturbations(g, coloring, far, boundary, rng):
                if sorted(map(repr, scan(g2, PartialColoring(c2), [a]))) != want:
                    bad.append(("far change", a, g2.edges(), c2))
                    break
    return bad


@pytest.mark.parametrize("rule_id", sorted(SCANS))
def test_anchored_scans_keep_the_radius_contract(rule_id):
    scan, radius, bases = SCANS[rule_id]
    assert radius_violations(scan, radius, bases) == []


@pytest.mark.parametrize("rule_id", sorted(SCANS))
def test_one_ring_less_breaks_the_radius_contract(rule_id):
    scan, radius, bases = SCANS[rule_id]
    assert radius_violations(scan, radius - 1, bases) != []
