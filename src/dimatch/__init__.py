"""dimatch: dominating induced matchings in graphs with no long claw.

A graph has a dominating induced matching exactly when its vertices split
into a black part inducing a perfect matching on itself and a white
independent set.  For hosts with no induced long claw (the claw with each
edge subdivided once) the decision is made by propagation rules, local
rewrites down to an irreducible graph, and a saturating-matching search;
YES answers come with a verified certificate.

`import dimatch` loads only the solver.  The brute-force oracle and the
instance generators (`dimatch.oracle`) load on first access to one of
their names here.
"""

from .coloring import BLACK, WHITE, PartialColoring, verify_complete
from .graph import Graph, load_graph, save_graph
from .matching import max_matching, solve_saturation
from .patterns import contains_s222
from .pipeline import RunReport, solve
from .rewrite import lift_completion, reduce_to_irreducible, try_rewrite

# the names __getattr__ reads from dimatch.oracle on first access
_ORACLE_NAMES = frozenset({"GeneratorSpec", "brute_dim", "generate"})

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


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
