"""Primal graphs and treedepth decompositions.

The solver pipeline only ever consumes a treedepth decomposition: a
rooted forest over the instance's variables whose ancestor-descendant
closure contains every primal edge.  Tree decompositions (bags) appear
as verifiable side artifacts of the generators; they live in ``formats``,
and exact treedepth lives in ``bounds``, both off the solve path.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import combinations

from .instance import IlpError, IlpInstance

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .formats import TreeDecompositionWitness

ROOT = -1


class StructureError(IlpError):
    """Malformed graph, decomposition or witness."""


class Graph:
    """Simple loopless undirected graph over an explicit integer vertex set.

    Immutable by convention; adjacency is precomputed and sorted so that
    every traversal in the package is deterministic.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        vs = tuple(sorted(set(vertices)))
        known = set(vs)
        norm: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise StructureError(f"loop at vertex {u}")
            if u not in known or v not in known:
                raise StructureError(f"edge ({u}, {v}) uses an undeclared vertex")
            norm.add((u, v) if u < v else (v, u))
        self.vertices = vs
        self.edges = frozenset(norm)
        adj: dict[int, set[int]] = {v: set() for v in vs}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def connected_components(self) -> list[tuple[int, ...]]:
        from .bounds import _components_within  # no solve asks for components
        return [tuple(sorted(c)) for c in _components_within(frozenset(self.vertices), self)]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.n_edges})"


class TreedepthDecomposition:
    """Rooted forest over integer nodes; ``parent[v] == ROOT`` marks a root.

    height counts vertices on the longest root-to-node path, so a single
    root has height 1 and the empty forest height 0.
    """

    __slots__ = ("parent", "height", "_children", "_depth", "_roots")

    def __init__(self, parent: Mapping[int, int]):
        par = dict(parent)
        kids: dict[int, list[int]] = {v: [] for v in par}
        roots: list[int] = []
        for v, p in par.items():
            if p == v:
                raise StructureError(f"node {v} is its own parent")
            if p == ROOT:
                roots.append(v)
            elif p in kids:
                kids[p].append(v)
            else:
                raise StructureError(f"parent {p} of node {v} is not a node")
        # depths in one pass down from the roots; a node that no root
        # reaches is on a parent cycle or below one
        depth = dict.fromkeys(roots, 1)
        stack = list(roots)
        while stack:
            v = stack.pop()
            for c in kids[v]:
                depth[c] = depth[v] + 1
                stack.append(c)
        if len(depth) < len(par):
            u = min(par.keys() - depth.keys())
            raise StructureError(f"node {u} is on or below a parent cycle")
        self.parent = par
        self._depth = depth
        self.height = max(depth.values(), default=0)
        self._children = {v: tuple(sorted(cs)) for v, cs in kids.items()}
        self._roots = tuple(sorted(roots))

    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.parent))

    def roots(self) -> tuple[int, ...]:
        return self._roots

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def depth_of(self, v: int) -> int:
        return self._depth[v]

    def subtree(self, x: int) -> tuple[int, ...]:
        """x and all its descendants."""
        if x not in self.parent:
            raise StructureError(f"unknown node {x}")
        out = [x]
        queue = [x]
        while queue:
            v = queue.pop()
            for c in self._children[v]:
                out.append(c)
                queue.append(c)
        return tuple(sorted(out))

    def path_to_root(self, v: int) -> tuple[int, ...]:
        """Vertices from the root down to v, inclusive."""
        path = []
        u = v
        while u != ROOT:
            path.append(u)
            u = self.parent[u]
        return tuple(reversed(path))

    def is_chain(self, vs: Iterable[int]) -> bool:
        """True iff the nodes lie on one root path: each is an ancestor of the
        deepest, so one walk up from it meets them all, deepest first.  Rows
        and objectives are primal cliques, so a decomposition is valid exactly
        when each of their supports is a chain."""
        depth, parent = self._depth, self.parent
        ordered = sorted(vs, key=depth.__getitem__, reverse=True)
        u = ordered[0] if ordered else None
        for v in ordered:
            for _ in range(depth[u] - depth[v]):
                u = parent[u]
            if u != v:
                return False
        return True

    def drop_nodes(self, gone: Iterable[int]) -> "TreedepthDecomposition":
        """Remove a union of whole subtrees; survivors keep their parents."""
        dead = set(gone)
        kept = {}
        for v, p in self.parent.items():
            if v in dead:
                continue
            if p != ROOT and p in dead:
                raise StructureError(f"removal of {p} orphans surviving node {v}")
            kept[v] = p
        return TreedepthDecomposition(kept)

    def __eq__(self, other):
        if not isinstance(other, TreedepthDecomposition):
            return NotImplemented
        return self.parent == other.parent

    def __hash__(self):
        return hash(tuple(sorted(self.parent.items())))

    def __repr__(self):
        return f"TreedepthDecomposition(n={len(self.parent)}, height={self.height})"


# ---------------------------------------------------------------------------
# primal graph


def build_primal_graph(instance: IlpInstance) -> Graph:
    """Variables adjacent iff they share a constraint or both sit in the objective."""
    edges = set(combinations(instance.objective.variables(), 2))
    for c in instance.constraints:
        edges.update(combinations([v for v, _ in c.terms], 2))
    return Graph(instance.ids(), edges)


# ---------------------------------------------------------------------------
# treedepth computation


def dfs_treedepth_heuristic(graph: Graph) -> TreedepthDecomposition:
    """DFS forest: valid because every non-tree edge of an undirected DFS
    joins an ancestor-descendant pair.  Height may be far from optimal.

    Each tree is rooted at its component's max-degree vertex (ties by
    vertex order), which keeps hub-and-spoke graphs flat.
    """
    parent: dict[int, int] = {}
    visited: set[int] = set()
    starts = sorted(graph.vertices, key=lambda v: (-len(graph.neighbors(v)), v))
    for s in starts:
        if s in visited:
            continue
        parent[s] = ROOT
        visited.add(s)
        stack = [(s, iter(graph.neighbors(s)))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in visited:
                    visited.add(w)
                    parent[w] = v
                    stack.append((w, iter(graph.neighbors(w))))
                    break
            else:
                stack.pop()
    return TreedepthDecomposition(parent)


def verify_treedepth_decomposition(graph: Graph, decomposition: TreedepthDecomposition) -> bool:
    """True iff the forest covers exactly V(G) and every edge is vertical."""
    if set(decomposition.parent) != set(graph.vertices):
        raise StructureError("decomposition nodes differ from graph vertices")
    return all(decomposition.is_chain(edge) for edge in graph.edges)


def decompose(
    instance: IlpInstance,
    witness: TreedepthDecomposition | TreeDecompositionWitness | None = None,
) -> TreedepthDecomposition:
    """The decomposition a solve uses.

    A supplied witness must be a treedepth decomposition; without one it is
    the DFS forest of the primal graph, since the kernel is sound along any
    valid decomposition.  kernelize checks it.
    """
    if witness is not None:
        if not isinstance(witness, TreedepthDecomposition):
            raise StructureError("a treedepth witness is required")
        return witness
    return dfs_treedepth_heuristic(build_primal_graph(instance))


# ---------------------------------------------------------------------------
# witness file


def _is_int_list(value) -> bool:
    """A JSON array of integers; bool subclasses int, so true/false are
    excluded by hand."""
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )


# the canonical text of a treedepth decomposition, which
# ``formats.witness_to_json`` writes with ``json.dumps``: _TD_HEAD, the
# parents joined by ", ", then _TD_TAIL
_TD_HEAD = '{"kind": "treedepth", "parent": ['
_TD_TAIL = "]}"


def _canonical_parents(text: str) -> list[int] | None:
    """The parent list of a treedepth witness in its canonical text, read
    without ``json``, or None for any other text.  Each parent must be a
    JSON integer as ``json.dumps`` writes it: ASCII digits, no leading zero,
    "-" only before a nonzero value."""
    if not (text.startswith(_TD_HEAD) and text.endswith(_TD_TAIL)):
        return None
    body = text[len(_TD_HEAD) : -len(_TD_TAIL)]
    if not body:
        return []
    parents = []
    for token in body.split(", "):
        digits = token[1:] if token[:1] == "-" else token
        if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and token != "0"):
            return None
        parents.append(int(token))
    return parents


def witness_from_json(text: str) -> TreedepthDecomposition | TreeDecompositionWitness:
    parents = _canonical_parents(text)
    if parents is not None:
        return TreedepthDecomposition(dict(enumerate(parents)))
    import json  # only a witness in another spelling reads JSON

    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StructureError(f"witness is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise StructureError("witness JSON must be an object with a 'kind' field")
    kind = doc["kind"]
    parent_list = doc.get("parent")
    if not _is_int_list(parent_list):
        raise StructureError("witness 'parent' must be a list of integers")
    parent = {i: p for i, p in enumerate(parent_list)}
    if kind == "treedepth":
        return TreedepthDecomposition(parent)
    if kind == "treewidth":
        from .formats import _witness_bags  # only bag witnesses load it

        return _witness_bags(parent, doc.get("bags"))
    raise StructureError(f"unknown witness kind {kind!r}")


def __getattr__(name: str):
    # exact treedepth moved to ``bounds``; its old name here loads it on first use
    if name == "compute_treedepth_exact":
        from .bounds import compute_treedepth_exact
        return compute_treedepth_exact
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
