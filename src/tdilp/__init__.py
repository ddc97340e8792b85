"""Exact integer linear programming toolkit.

The package bundles a text-based ILP model, primal-graph structure
analysis (treedepth / tree decompositions), a kernelizer that prunes
interchangeable subtrees of a treedepth decomposition, an exact
bounded-box solver, generators that encode classic NP-hard problems as
narrow ILP families, and naive oracles used to cross-check everything.
"""

# Every public name, by the module that defines it.  Each loads on first
# access (PEP 562), so `import tdilp` compiles no other module, and a
# `tdilp solve` only the modules its own imports name.
_LAZY = {
    "IlpError": "instance",
    "IlpInstance": "instance",
    "IlpSyntaxError": "instance",
    "InstanceBuilder": "instance",
    "InternalError": "instance",
    "LinearConstraint": "instance",
    "LinearObjective": "instance",
    "VariableId": "instance",
    "check_feasible": "instance",
    "evaluate_objective": "instance",
    "max_abs_coefficient": "instance",
    "omit_variables": "instance",
    "parse_instance": "instance",
    "SolveOutcome": "outcome",
    "Graph": "structure",
    "StructureError": "structure",
    "TreedepthDecomposition": "structure",
    "build_primal_graph": "structure",
    "decompose": "structure",
    "dfs_treedepth_heuristic": "structure",
    "verify_treedepth_decomposition": "structure",
    "witness_from_json": "structure",
    "EquivalenceWitness": "kernelizer",
    "KernelError": "kernelizer",
    "TraceStep": "kernelizer",
    "kernelize": "kernelizer",
    "lift_solution": "kernelizer",
    "BoxBound": "solver",
    "solution_bound": "solver",
    "solve": "solver",
    "solve_core": "solver",
    "solve_pipeline": "solver",
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


__all__ = sorted(_LAZY)
