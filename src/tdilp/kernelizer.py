"""Pruning of interchangeable sibling subtrees of a treedepth decomposition.

Two sibling subtrees T_x, T_y are equivalent when some bijective renaming
delta of T_x's variables onto T_y's maps the set of constraints touching
T_x exactly onto the set touching T_y (ancestor variables stay fixed).
If neither subtree carries an objective variable, T_y can be dropped
without changing feasibility or the optimal value, and any solution of
the smaller instance lifts back by copying values through delta.

Each sibling's touching rows are viewed once; the views give a
renaming-invariant signature that groups the candidates (equivalent
subtrees always collide).  A colliding pair is certified here when the
order-keeping renaming works, else by the search in ``twins`` (loaded then).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .instance import IlpError, IlpInstance, LinearConstraint, Record, omit_variables
from .structure import TreedepthDecomposition


class KernelError(IlpError):
    """Invalid decomposition, siblinghood violation or trace mismatch."""


# ---------------------------------------------------------------------------
# domain types


class EquivalenceWitness(Record):
    """delta maps T_x's variables bijectively onto T_y's."""

    __slots__ = ("x", "y", "delta")


class TraceStep(Record):
    """One prune: the omitted subtree, its kept twin, and the renaming.

    delta runs keeper -> omitted so that lifting is a straight copy.
    names snapshots the labels of every id the step mentions; the trace
    alone must suffice to lift a name-keyed solution.
    """

    __slots__ = ("omitted", "keeper_root", "delta", "names")


# ---------------------------------------------------------------------------
# sibling views and signatures


def _constraint_view(constraint: LinearConstraint, inside: set[int]):
    """What a constraint looks like when the inside variables lose their names."""
    outside, inner = [], []
    for v, k in constraint.terms:
        if v in inside:
            inner.append(k)
        else:
            outside.append((v, k))
    inner.sort()
    return (tuple(outside), tuple(inner), constraint.rhs)


class _Sibling:
    """A sibling subtree (sorted variables) and its touching rows, each viewed once
    for the signature; only siblings whose signatures collide are compared."""

    __slots__ = ("nodes", "rows", "inside", "views", "signature")

    def __init__(self, nodes: tuple[int, ...], rows: tuple[LinearConstraint, ...]):
        self.nodes, self.rows, self.inside = nodes, rows, set(nodes)
        self.views = [_constraint_view(c, self.inside) for c in rows]
        self.signature = (len(nodes), tuple(sorted(self.views)))


def _ordered_form(s: _Sibling) -> frozenset:
    """s's rows with the i-th smallest variable written as -1 - i (ids are not
    negative): equal forms make twins under the order-keeping renaming."""
    slot = {v: -1 - i for i, v in enumerate(s.nodes)}.get
    return frozenset((tuple(sorted([(slot(v, v), k) for v, k in c.terms])), c.rhs) for c in s.rows)


def _renaming(x: _Sibling, fx: frozenset, y: _Sibling, fy: frozenset) -> dict[int, int] | None:
    """delta: x.nodes -> y.nodes for colliding siblings with ordered forms fx
    and fy, or None.  Equal forms give the order-keeping renaming, which is
    then ``twins._find_renaming``'s first (its pools keep ascending ids, and a
    renaming keeps colours); only unequal forms run that search."""
    if fx == fy:
        return dict(zip(x.nodes, y.nodes))
    from .twins import _find_renaming  # compiled only for twins in no common order
    return _find_renaming(x, y)


# ---------------------------------------------------------------------------
# pruning


class _Pruner:
    """Variable-to-row index of one instance, plus the subtrees pruned so far.

    The index is where the decomposition is checked: it is a treedepth
    decomposition of the primal graph exactly when every row, and the
    objective, lies on one root path.  So sibling subtrees never share a
    row: pruning one sibling leaves every other sibling's touching rows,
    signature and twins unchanged.  Each sibling set therefore needs a
    single pass.
    """

    def __init__(self, instance: IlpInstance, decomposition: TreedepthDecomposition):
        if set(decomposition.parent) != set(instance.ids()):
            raise KernelError("decomposition nodes differ from instance variables")
        self.constraints = instance.constraints
        self.decomposition = decomposition
        rows = [c.variables() for c in instance.constraints]
        support = instance.objective.variables()
        if not all(map(decomposition.is_chain, {*rows, support})):  # rows share supports
            raise KernelError("decomposition closure misses a primal edge")
        self.rows_of: dict[int, list[int]] = {v: [] for v in instance.ids()}
        for i, vs in enumerate(rows):
            for v in vs:
                self.rows_of[v].append(i)
        # nodes whose subtree holds an objective variable are never pruned
        self.holders: set[int] = set(
            decomposition.path_to_root(max(support, key=decomposition.depth_of)) if support else ()
        )
        self.gone_vars: set[int] = set()
        self.gone_rows: set[int] = set()

    def prune(self, kids: Iterable[int]) -> list[EquivalenceWitness]:
        """Prune every objective-free sibling in kids (ascending ids) that
        has a smaller-id twin.  Returns one witness per pruned twin, from the
        class's smallest id, in trace order: classes by smallest id, then
        ascending pruned id."""
        kids = [c for c in kids if c not in self.holders]
        if len(kids) < 2:
            return []
        groups: dict[tuple, list[tuple[int, _Sibling]]] = {}
        for c in kids:
            # pruned nodes always form whole subtrees, so filtering is enough
            nodes = tuple(v for v in self.decomposition.subtree(c) if v not in self.gone_vars)
            rows = {i for v in nodes for i in self.rows_of[v]} - self.gone_rows
            sibling = _Sibling(nodes, tuple(self.constraints[i] for i in sorted(rows)))
            groups.setdefault(sibling.signature, []).append((c, sibling))
        collisions = [members for members in groups.values() if len(members) > 1]
        hits = []
        for members in collisions:
            keepers: list[tuple[int, _Sibling, frozenset]] = []
            for c, sibling in members:
                form = _ordered_form(sibling)
                for k, keeper, keeper_form in keepers:
                    delta = _renaming(keeper, keeper_form, sibling, form)
                    if delta is not None:
                        hits.append(EquivalenceWitness(k, c, delta))
                        break
                else:
                    keepers.append((c, sibling, form))
        hits.sort(key=lambda w: (w.x, w.y))
        for witness in hits:
            pruned = witness.delta.values()
            self.gone_vars.update(pruned)
            self.gone_rows.update(i for v in pruned for i in self.rows_of[v])
        return hits


def _trace_step(instance: IlpInstance, witness: EquivalenceWitness) -> TraceStep:
    omitted = tuple(sorted(witness.delta.values()))
    names = {v: instance.name_of(v) for v in sorted({*omitted, *witness.delta})}
    return TraceStep(omitted, witness.x, dict(witness.delta), names)


def kernelize(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition,
) -> tuple[IlpInstance, TreedepthDecomposition, tuple[TraceStep, ...]]:
    """Exhaustive bottom-up pruning in one indexed pass.

    Processes parents from the deepest level up to the roots and then a
    virtual root over the forest, so that duplicated whole components
    collapse too.  Within a level, parents go by ascending id.
    The trace is the one that omitting the smallest (keeper, twin) pair
    one at a time until a fixpoint would record; the instance is rebuilt
    once at the end, and when nothing was pruned the given instance and
    decomposition are returned as the kernel.  Raises KernelError unless the
    decomposition is a treedepth decomposition of the primal graph.
    """
    pruner = _Pruner(instance, decomposition)
    parents = sorted(decomposition.nodes(), key=lambda v: -decomposition.depth_of(v))
    # the pruner checked that the objective's support lies on one root path,
    # whose tree it keeps: the virtual root is always safe to process
    sibling_sets = [*map(decomposition.children, parents), decomposition.roots()]
    steps = tuple(
        _trace_step(instance, witness) for kids in sibling_sets for witness in pruner.prune(kids)
    )
    if not steps:
        return instance, decomposition, steps
    kernel = omit_variables(instance, pruner.gone_vars)
    return kernel, decomposition.drop_nodes(pruner.gone_vars), steps


def lift_solution(
    trace: tuple[TraceStep, ...], assignment: Mapping, *, by_name: bool = False
) -> dict:
    """Replay the prune log backwards, copying keeper values onto twins.

    The assignment is keyed by variable id, or with by_name by variable
    name, which each step's names translate from its ids.
    """
    lifted = dict(assignment)
    for step in reversed(trace):
        for src, dst in step.delta.items():
            if by_name:
                src, dst = step.names[src], step.names[dst]
            if src not in lifted:
                raise KernelError(f"trace mismatch: no value for variable {src!r}")
            lifted[dst] = lifted[src]
    return lifted


# The twin search and the one-step wrappers that no solve calls live in
# ``twins``; their old names here load it on first use (PEP 562).
_IN_TWINS = frozenset(
    ("constraints_touching", "find_equivalent_pair", "prune_step", "subtree_signature",
     "test_equivalence")
)


def __getattr__(name: str):
    if name in _IN_TWINS:
        from . import twins
        return getattr(twins, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
