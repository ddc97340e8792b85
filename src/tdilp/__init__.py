"""Exact integer linear programming toolkit.

The package bundles a text-based ILP model, primal-graph structure
analysis (treedepth / tree decompositions), a kernelizer that prunes
interchangeable subtrees of a treedepth decomposition, an exact
bounded-box solver, generators that encode classic NP-hard problems as
narrow ILP families, and naive oracles used to cross-check everything.
"""

from .instance import (
    IlpError,
    IlpInstance,
    IlpSyntaxError,
    InstanceBuilder,
    InternalError,
    LinearConstraint,
    LinearObjective,
    VariableId,
    check_feasible,
    evaluate_objective,
    max_abs_coefficient,
    omit_variables,
    parse_instance,
)
from .kernelizer import EquivalenceWitness, KernelError, TraceStep, kernelize, lift_solution
from .outcome import SolveOutcome
from .solver import BoxBound, solution_bound, solve, solve_core, solve_pipeline
from .structure import (
    Graph,
    StructureError,
    TreedepthDecomposition,
    build_primal_graph,
    decompose,
    dfs_treedepth_heuristic,
    verify_treedepth_decomposition,
    witness_from_json,
)

# Names off the solve path, by module.  They load on first access (PEP 562),
# so that `import tdilp` and every `tdilp solve` compile neither module.
_LAZY = {
    "Astronomical": "bounds",
    "KernelBounds": "bounds",
    "compute_bounds": "bounds",
    "compute_treedepth_exact": "bounds",
    "format_bound": "bounds",
    "TreeDecompositionWitness": "formats",
    "parse_graph_file": "formats",
    "serialize_graph": "formats",
    "serialize_instance": "formats",
    "trace_from_json": "formats",
    "trace_to_json": "formats",
    "treedepth_to_tree_decomposition": "formats",
    "verify_tree_decomposition": "formats",
    "witness_to_json": "formats",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Astronomical",
    "BoxBound",
    "EquivalenceWitness",
    "Graph",
    "IlpError",
    "IlpInstance",
    "IlpSyntaxError",
    "InstanceBuilder",
    "InternalError",
    "KernelBounds",
    "KernelError",
    "LinearConstraint",
    "LinearObjective",
    "SolveOutcome",
    "StructureError",
    "TraceStep",
    "TreeDecompositionWitness",
    "TreedepthDecomposition",
    "VariableId",
    "build_primal_graph",
    "check_feasible",
    "compute_bounds",
    "compute_treedepth_exact",
    "decompose",
    "dfs_treedepth_heuristic",
    "evaluate_objective",
    "format_bound",
    "kernelize",
    "lift_solution",
    "max_abs_coefficient",
    "omit_variables",
    "parse_graph_file",
    "parse_instance",
    "serialize_graph",
    "serialize_instance",
    "solution_bound",
    "solve",
    "solve_core",
    "solve_pipeline",
    "trace_from_json",
    "trace_to_json",
    "treedepth_to_tree_decomposition",
    "verify_tree_decomposition",
    "verify_treedepth_decomposition",
    "witness_from_json",
    "witness_to_json",
]
