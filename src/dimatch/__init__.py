"""dimatch: dominating induced matchings in graphs with no long claw.

A graph has a dominating induced matching exactly when its vertices split
into a black part inducing a perfect matching on itself and a white
independent set.  For hosts with no induced long claw (the claw with each
edge subdivided once) the decision is made by propagation rules, local
rewrites down to an irreducible graph, and a saturating-matching search;
YES answers come with a verified certificate.
"""

from .coloring import BLACK, WHITE, PartialColoring, verify_complete
from .graph import Graph, load_graph, save_graph
from .matching import max_matching, solve_saturation
from .oracle import GeneratorSpec, brute_dim, generate
from .patterns import contains_s222
from .pipeline import RunReport, solve
from .rewrite import lift_completion, reduce_to_irreducible, try_rewrite

__all__ = [
    "BLACK",
    "WHITE",
    "Graph",
    "GeneratorSpec",
    "PartialColoring",
    "RunReport",
    "brute_dim",
    "contains_s222",
    "generate",
    "lift_completion",
    "load_graph",
    "max_matching",
    "reduce_to_irreducible",
    "save_graph",
    "solve",
    "solve_saturation",
    "try_rewrite",
    "verify_complete",
]
