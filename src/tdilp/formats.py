"""File formats and witnesses that no solve reads.

The instance text writer, kernel traces (written by ``tdilp kernelize``,
read by ``tdilp lift``), witness output, graph files, and tree
decompositions (bags), which the generators emit as verifiable side
artifacts.  Every ``tdilp solve`` is a fresh process that compiles what it
imports, so this code lives outside the solve path; the one reader a solve
needs, ``witness_from_json``, stays in ``structure`` and loads this module
only for a bag witness.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping

from .instance import IlpInstance
from .kernelizer import KernelError, TraceStep
from .structure import ROOT, Graph, StructureError, TreedepthDecomposition, _is_int_list

# ---------------------------------------------------------------------------
# instance text


def _format_terms(pairs: list[tuple[str, int]]) -> str:
    if not pairs:
        return "0"
    chunks: list[str] = []
    for idx, (name, coeff) in enumerate(pairs):
        mag = abs(coeff)
        body = name if mag == 1 else f"{mag} {name}"
        if coeff == 0:
            body = f"0 {name}"
        if idx == 0:
            chunks.append(body if coeff >= 0 else f"-{body}")
        else:
            chunks.append(("+ " if coeff >= 0 else "- ") + body)
    return " ".join(chunks)


def serialize_instance(instance: IlpInstance) -> str:
    """Canonical text: objective first, constraint lines sorted, terms by id.

    Variables that occur in no constraint and not in the objective are
    kept alive as zero-coefficient objective terms.
    """
    used: set[int] = set()
    for c in instance.constraints:
        used.update(c.variables())
    used.update(instance.objective.variables())

    obj_pairs: list[tuple[str, int]] = []
    coeffs = dict(instance.objective.terms)
    for v in instance.variables:
        if v.id in coeffs:
            obj_pairs.append((v.name, coeffs[v.id]))
        elif v.id not in used:
            obj_pairs.append((v.name, 0))
    lines = [f"max: {_format_terms(obj_pairs)}"]

    rendered = []
    for c in instance.constraints:
        pairs = [(instance.name_of(v), coeff) for v, coeff in c.terms]
        rendered.append(f"{_format_terms(pairs)} <= {c.rhs}")
    lines.extend(sorted(rendered))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tree decompositions


class TreeDecompositionWitness:
    """Bags over a rooted tree (or forest), the usual (P1)-(P3) object."""

    __slots__ = ("tree", "bags", "width")

    def __init__(self, tree: Mapping[int, int], bags: Mapping[int, Iterable[int]]):
        skeleton = TreedepthDecomposition(tree)  # reuse the forest validation
        self.tree = dict(skeleton.parent)
        self.bags = {node: frozenset(bag) for node, bag in bags.items()}
        if set(self.bags) != set(self.tree):
            raise StructureError("bag nodes and tree nodes differ")
        self.width = max((len(b) for b in self.bags.values()), default=0) - 1

    def __repr__(self):
        return f"TreeDecompositionWitness(bags={len(self.bags)}, width={self.width})"


def treedepth_to_tree_decomposition(
    decomposition: TreedepthDecomposition,
) -> TreeDecompositionWitness:
    """Bag of each node = its root path; width ≤ height - 1 by construction."""
    bags = {v: decomposition.path_to_root(v) for v in decomposition.parent}
    return TreeDecompositionWitness(decomposition.parent, bags)


def verify_tree_decomposition(graph: Graph, witness: TreeDecompositionWitness) -> bool:
    covered: set[int] = set()
    for bag in witness.bags.values():
        covered.update(bag)
    if covered != set(graph.vertices):
        return False
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in witness.bags.values()):
            return False
    # the nodes holding a vertex induce a connected subtree exactly when
    # one of them has its parent (or ROOT) outside them
    tops = dict.fromkeys(graph.vertices, 0)
    for node, bag in witness.bags.items():
        parent = witness.tree[node]
        if parent != ROOT:
            bag = bag - witness.bags[parent]
        for x in bag:
            tops[x] += 1
    return all(count == 1 for count in tops.values())


# ---------------------------------------------------------------------------
# witness and graph files


def _witness_bags(parent: dict[int, int], bag_list) -> TreeDecompositionWitness:
    """The bags of a treewidth witness file, for ``witness_from_json``."""
    if not isinstance(bag_list, list) or len(bag_list) != len(parent):
        raise StructureError("witness 'bags' must be a list matching 'parent'")
    if not all(_is_int_list(bag) for bag in bag_list):
        raise StructureError("each witness bag must be a list of integers")
    return TreeDecompositionWitness(parent, {i: frozenset(b) for i, b in enumerate(bag_list)})


def witness_to_json(witness: TreedepthDecomposition | TreeDecompositionWitness) -> str:
    if isinstance(witness, TreedepthDecomposition):
        nodes = witness.nodes()
        if nodes != tuple(range(len(nodes))):
            raise StructureError("treedepth witness JSON needs dense nodes 0..n-1")
        return json.dumps({"kind": "treedepth", "parent": [witness.parent[v] for v in nodes]})
    if isinstance(witness, TreeDecompositionWitness):
        nodes = tuple(sorted(witness.tree))
        if nodes != tuple(range(len(nodes))):
            raise StructureError("treewidth witness JSON needs dense bag nodes 0..k-1")
        return json.dumps(
            {
                "kind": "treewidth",
                "parent": [witness.tree[v] for v in nodes],
                "bags": [sorted(witness.bags[v]) for v in nodes],
            }
        )
    raise StructureError(f"not a witness: {witness!r}")


def _graph_int(text: str) -> int:
    # ASCII digits only: int() would also read "1_0", "+1" and "\u0662"
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_graph_file(text: str) -> Graph:
    """First line: vertex count n.  Each further line: an edge "u v", 1-indexed."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise StructureError("empty graph file")
    try:
        n = _graph_int(lines[0])
    except ValueError:
        raise StructureError("first line must be the vertex count") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise StructureError(f"expected 'u v', got {ln!r}")
        try:
            u, v = _graph_int(parts[0]), _graph_int(parts[1])
        except ValueError:
            raise StructureError(f"non-integer endpoint in {ln!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise StructureError(f"edge ({u}, {v}) out of range 1..{n}")
        edges.append((u, v))
    return Graph(range(1, n + 1), edges)


def serialize_graph(graph: Graph) -> str:
    if graph.vertices != tuple(range(1, graph.n + 1)):
        raise StructureError("graph file format needs vertices 1..n")
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trace file


def trace_to_json(trace: tuple[TraceStep, ...]) -> str:
    doc = [
        {
            "omitted": list(step.omitted),
            "keeper_root": step.keeper_root,
            "delta": {str(src): dst for src, dst in sorted(step.delta.items())},
            "names": {str(v): name for v, name in sorted(step.names.items())},
        }
        for step in trace
    ]
    return json.dumps(doc, indent=2)


def _json_id(value) -> int:
    # int() would read true as 1 and 1.7 as 1, and lift onto the wrong variable
    if isinstance(value, bool) or not isinstance(value, int):
        raise KernelError(f"trace id {value!r} is not an integer")
    return value


def _json_key(key: str) -> int:
    # int() would read "1_0" as 10, " 0" as 0 and "\u0663" as 3
    if not (key.isascii() and key.isdigit() and str(int(key)) == key):
        raise KernelError(f"trace id key {key!r} is not a canonical integer")
    return int(key)


def trace_from_json(text: str) -> tuple[TraceStep, ...]:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise KernelError(f"trace is not valid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise KernelError("trace JSON must be a list of steps")
    steps = []
    for item in doc:
        try:
            step = TraceStep(
                tuple(_json_id(v) for v in item["omitted"]),
                _json_id(item["keeper_root"]),
                {_json_key(src): _json_id(dst) for src, dst in item["delta"].items()},
                {_json_key(v): str(name) for v, name in item.get("names", {}).items()},
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise KernelError(f"malformed trace step: {exc}") from None
        mentioned = set(step.omitted) | set(step.delta) | set(step.delta.values())
        unnamed = mentioned - set(step.names)
        if unnamed:
            raise KernelError(f"trace step names no variable for ids {sorted(unnamed)}")
        steps.append(step)
    return tuple(steps)
