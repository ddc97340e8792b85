"""The full command grammar and the handlers of every command but solve.

Each command runs in a fresh process that compiles what it imports, so
``cli.run`` imports this module only for a command other than solve or for
a solve that its strict reader leaves to this grammar (help, usage errors
and every spelling but the plain one), and a plain solve compiles none of
it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import compute_bounds, compute_treedepth_exact, format_bound
from .cli import (
    NO,
    OK,
    RESOURCE,
    _cmd_solve,
    _load_instance,
    _load_witness,
    _read,
    _write_outcome,
)
from .formats import (
    parse_graph_file,
    serialize_instance,
    trace_from_json,
    trace_to_json,
    verify_tree_decomposition,
    witness_to_json,
)
from .instance import INT_RE, IlpError, max_abs_coefficient
from .kernelizer import kernelize, lift_solution
from .outcome import SolveOutcome
from .structure import (
    StructureError,
    TreedepthDecomposition,
    _is_int_list,
    build_primal_graph,
    decompose,
    dfs_treedepth_heuristic,
    verify_treedepth_decomposition,
    witness_from_json,
)


# analyze reports exact treedepth up to this many primal vertices; no solve computes it
EXACT_TD_VERTICES = 12


def _load_graph(path: str):
    return parse_graph_file(_read(path))


def _cmd_analyze(args) -> int:
    instance = _load_instance(args.file)
    graph = build_primal_graph(instance)
    print(f"variables: {instance.n_variables}")
    print(f"constraints: {instance.n_constraints}")
    print(f"ell: {max_abs_coefficient(instance)}")
    components = len(graph.connected_components())
    print(f"primal graph: {graph.n} vertices, {graph.n_edges} edges, {components} components")
    if graph.n <= EXACT_TD_VERTICES:
        decomposition = compute_treedepth_exact(graph)[1]
        print(f"treedepth: {decomposition.height} (exact)")
    else:
        decomposition = dfs_treedepth_heuristic(graph)
        print(f"treedepth: <= {decomposition.height} (dfs heuristic)")
    if args.witness_out:
        Path(args.witness_out).write_text(witness_to_json(decomposition), encoding="utf-8")
        print(f"witness: {args.witness_out}")
    return OK


def _cmd_kernelize(args) -> int:
    instance = _load_instance(args.file)
    kernel, _, trace = kernelize(instance, decompose(instance, _load_witness(args.td)))
    Path(args.output).write_text(serialize_instance(kernel), encoding="utf-8")
    Path(args.trace).write_text(trace_to_json(trace), encoding="utf-8")
    print(
        f"kernel: {kernel.n_variables} of {instance.n_variables} variables,"
        f" {len(trace)} pruning steps"
    )
    return OK


def _cmd_lift(args) -> int:
    trace = trace_from_json(_read(args.trace))
    try:
        solution = json.loads(_read(args.solution))
    except RecursionError as exc:
        raise IlpError(f"solution is not valid JSON: {exc}") from None
    assignment = solution.get("assignment") if isinstance(solution, dict) else None
    if not isinstance(assignment, dict):
        raise IlpError("solution file has no assignment to lift")
    value = solution.get("value")
    if not (value is None or _is_int_list([value])):
        raise IlpError(f"solution value {value!r} is not an integer")
    if not _is_int_list(list(assignment.values())):
        raise IlpError("solution assignment holds a value that is not an integer")
    lifted = lift_solution(trace, assignment, by_name=True)
    # the outcome rejects an unknown status and a solution under a status without one
    outcome = SolveOutcome(solution.get("status"), value, lifted, len(assignment), len(lifted))
    print(outcome.to_json())
    return OK


def _cmd_generate(args) -> int:
    # imported here, not at the top, so that the other commands do not
    # compile the generators
    from .reductions import (
        SubsetSumInstance,
        reduce_subset_sum,
        reduce_three_coloring,
        reduce_vertex_cover,
    )

    witness_text = None
    if args.kind == "vc":
        instance = reduce_vertex_cover(_load_graph(args.graph), args.k)
    elif args.kind == "3col":
        instance, decomposition = reduce_three_coloring(_load_graph(args.graph))
        witness_text = witness_to_json(decomposition)
    else:
        s = SubsetSumInstance(tuple(args.values), args.target)
        instance, witness = reduce_subset_sum(s)
        witness_text = witness_to_json(witness)
    text = serialize_instance(instance)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}: {instance.n_variables} variables, {instance.n_constraints} constraints")
    else:
        sys.stdout.write(text)
    if getattr(args, "witness", None):
        Path(args.witness).write_text(witness_text, encoding="utf-8")
        print(f"wrote {args.witness}")
    return OK


def _cmd_verify(args) -> int:
    instance = _load_instance(args.file)
    graph = build_primal_graph(instance)
    witness = witness_from_json(_read(args.witness))
    if isinstance(witness, TreedepthDecomposition):
        try:
            good = verify_treedepth_decomposition(graph, witness)
        except StructureError as exc:
            print(f"treedepth witness: INVALID ({exc})")
            return NO
        if good:
            print(f"treedepth witness: valid, height {witness.height}")
            return OK
        print("treedepth witness: INVALID (some edge is not vertical)")
        return NO
    if verify_tree_decomposition(graph, witness):
        print(f"treewidth witness: valid, width {witness.width}")
        return OK
    print("treewidth witness: INVALID")
    return NO


def _cmd_oracle(args) -> int:
    # imported here for the same reason as in _cmd_generate
    from .oracle import (
        OracleBudgetError,
        brute_force_ilp,
        brute_three_coloring,
        brute_vertex_cover,
        subset_sum_dp,
        treedepth_reference,
    )
    from .reductions import SubsetSumInstance

    try:
        if args.oracle == "ilp":
            instance = _load_instance(args.file)
            outcome = brute_force_ilp(instance, args.box)
            return _write_outcome(outcome, instance.name_of)
        if args.oracle == "subsetsum":
            verdict = subset_sum_dp(SubsetSumInstance(tuple(args.values), args.target))
        elif args.oracle == "3col":
            verdict = brute_three_coloring(_load_graph(args.graph))
        elif args.oracle == "vc":
            verdict = brute_vertex_cover(_load_graph(args.graph), args.k)
        else:  # td
            print(treedepth_reference(_load_graph(args.graph)))
            return OK
    except OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE
    print("true" if verdict else "false")
    return OK if verdict else NO


def _cmd_bounds(args) -> int:
    bounds = compute_bounds(args.ell, args.k)
    print(f"ell={bounds.ell} k={bounds.k}")
    print("i  d_i  e_i")
    for i in range(bounds.k, 0, -1):
        print(f"{i}  {format_bound(bounds.d[i])}  {format_bound(bounds.e[i])}")
    print(f"e_1 = {format_bound(bounds.e[1])}")
    return OK


HANDLERS = {
    "analyze": _cmd_analyze,
    "solve": _cmd_solve,
    "kernelize": _cmd_kernelize,
    "lift": _cmd_lift,
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "bounds": _cmd_bounds,
}


# ---------------------------------------------------------------------------
# argument grammar


def _int(text: str) -> int:
    # the grammar of an instance file's right-hand side
    if not INT_RE.fullmatch(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _positive(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [_int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from None


def build_parser() -> argparse.ArgumentParser:
    """The grammar of every command, in the order `tdilp --help` lists them."""
    parser = argparse.ArgumentParser(
        prog="tdilp",
        description="Structure-aware exact ILP toolkit: kernelize, solve, generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="instance and primal-graph statistics")
    p.add_argument("file")
    p.add_argument("--witness-out", help="write the computed treedepth witness here")

    p = sub.add_parser("solve", help="kernelize, search, lift; prints outcome JSON")
    p.add_argument("file")
    p.add_argument("--td", help="treedepth witness JSON to use instead of computing one")
    p.add_argument("--bound", type=_positive, help="override the certified search box radius")
    p.add_argument("--propagate", action="store_true", help="presolve rewrites + domain-driven branching")

    p = sub.add_parser("kernelize", help="write the pruned instance and its trace")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--td", help="treedepth witness JSON to use instead of computing one")

    p = sub.add_parser("lift", help="replay a trace to extend a kernel solution")
    p.add_argument("--trace", required=True)
    p.add_argument("--solution", required=True, help="outcome JSON from solving the kernel")

    p = sub.add_parser("generate", help="emit a hardness-reduction instance")
    gen = p.add_subparsers(dest="kind", required=True)
    g = gen.add_parser("3col", help="prime-encoding 3-coloring instance")
    g.add_argument("--graph", required=True)
    g.add_argument("-o", "--output")
    g.add_argument("--witness", help="write the height-8 treedepth witness here")
    g = gen.add_parser("vc", help="vertex-cover budget instance")
    g.add_argument("--graph", required=True)
    g.add_argument("--k", type=_positive, required=True, help="cover budget")
    g.add_argument("-o", "--output")
    g = gen.add_parser("subsetsum", help="doubling-gadget chain instance")
    g.add_argument("--values", type=_int_list, required=True)
    g.add_argument("--target", type=_positive, required=True)
    g.add_argument("-o", "--output")
    g.add_argument("--witness", help="write the width-2 tree-decomposition witness here")

    p = sub.add_parser("verify", help="check a structural witness against an instance")
    p.add_argument("file")
    p.add_argument("--witness", required=True)

    p = sub.add_parser("oracle", help="brute-force references for spot checks")
    orc = p.add_subparsers(dest="oracle", required=True)
    o = orc.add_parser("ilp", help="enumerate a box exhaustively")
    o.add_argument("file")
    o.add_argument("--box", type=_positive, required=True, help="coordinate radius to sweep")
    o = orc.add_parser("subsetsum")
    o.add_argument("--values", type=_int_list, required=True)
    o.add_argument("--target", type=_positive, required=True)
    o = orc.add_parser("3col")
    o.add_argument("--graph", required=True)
    o = orc.add_parser("vc")
    o.add_argument("--graph", required=True)
    o.add_argument("--k", type=_positive, required=True)
    o = orc.add_parser("td")
    o.add_argument("--graph", required=True)

    p = sub.add_parser("bounds", help="kernel size bounds d_i, e_i for given ell and k")
    p.add_argument("--ell", type=_int, required=True)
    p.add_argument("--k", type=_positive, required=True)

    return parser
