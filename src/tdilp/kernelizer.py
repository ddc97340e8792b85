"""Pruning of interchangeable sibling subtrees of a treedepth decomposition.

Two sibling subtrees T_x, T_y are equivalent when some bijective renaming
delta of T_x's variables onto T_y's maps the set of constraints touching
T_x exactly onto the set touching T_y (ancestor variables stay fixed).
If neither subtree carries an objective variable, T_y can be dropped
without changing feasibility or the optimal value, and any solution of
the smaller instance lifts back by copying values through delta.

The search for a renaming runs in two stages: cheap renaming-invariant
signatures group the candidates (equivalent subtrees always hash alike),
then a backtracking bijection search certifies or refutes each pair.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable, Mapping

from .instance import IlpError, IlpInstance, LinearConstraint, Record, omit_variables
from .structure import (
    ROOT,
    TreedepthDecomposition,
    build_primal_graph,
    verify_treedepth_decomposition,
)


class KernelError(IlpError):
    """Invalid decomposition, siblinghood violation or trace mismatch."""


# ---------------------------------------------------------------------------
# domain types


class EquivalenceWitness(Record):
    """delta maps T_x's variables bijectively onto T_y's."""

    __slots__ = ("x", "y", "delta")

    def __init__(self, x: int, y: int, delta: dict[int, int]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "delta", delta)


class TraceStep(Record):
    """One prune: the omitted subtree, its kept twin, and the renaming.

    delta runs keeper -> omitted so that lifting is a straight copy.
    names snapshots the labels of every id the step mentions; the trace
    alone must suffice to lift a name-keyed solution.
    """

    __slots__ = ("omitted", "keeper_root", "delta", "names")

    def __init__(
        self,
        omitted: tuple[int, ...],
        keeper_root: int,
        delta: dict[int, int],
        names: dict[int, str],
    ):
        object.__setattr__(self, "omitted", omitted)
        object.__setattr__(self, "keeper_root", keeper_root)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "names", names)


# ---------------------------------------------------------------------------
# touching sets and signatures


def constraints_touching(instance: IlpInstance, Y: Iterable[int]) -> tuple[LinearConstraint, ...]:
    """All constraints with at least one variable in Y."""
    ys = set(Y)
    return tuple(c for c in instance.constraints if ys & set(c.variables()))


def _constraint_view(constraint: LinearConstraint, inside: set[int]):
    """What a constraint looks like when the inside variables lose their names."""
    outside = tuple([(v, k) for v, k in constraint.terms if v not in inside])
    inner = tuple(sorted([k for v, k in constraint.terms if v in inside]))
    return (outside, inner, constraint.rhs)


def _signature(inside: set[int], rows: Iterable[LinearConstraint]) -> tuple:
    return (len(inside), tuple(sorted(_constraint_view(c, inside) for c in rows)))


def subtree_signature(instance: IlpInstance, nodes: Iterable[int]) -> tuple:
    """Renaming-invariant fingerprint of a subtree: equivalent subtrees
    always collide; the converse is settled by test_equivalence."""
    inside = set(nodes)
    return _signature(inside, constraints_touching(instance, inside))


def _variable_signatures(
    inside: set[int], rows: Iterable[LinearConstraint]
) -> dict[int, tuple]:
    """Per-variable renaming-invariant fingerprints within one subtree."""
    entries: dict[int, list] = {v: [] for v in inside}
    for c in rows:
        view = _constraint_view(c, inside)
        for v, coeff in c.terms:
            if v in inside:
                entries[v].append((coeff, view))
    return {v: tuple(sorted(e)) for v, e in entries.items()}


def _renamed_key(c: LinearConstraint, delta: Mapping[int, int]):
    """sort_key of the renamed constraint, or None if the rename
    cancelled every term (never a match, but not an error either)."""
    try:
        return c.renamed(delta).sort_key()
    except IlpError:
        return None


# ---------------------------------------------------------------------------
# equivalence testing


def _find_renaming(
    X: tuple[int, ...],
    fx: tuple[LinearConstraint, ...],
    Y: tuple[int, ...],
    fy: tuple[LinearConstraint, ...],
) -> dict[int, int] | None:
    """The certified bijection search behind every equivalence verdict.

    X and Y are the sorted variables of two sibling subtrees with equal
    signatures, fx and fy the rows touching each.  Returns the first
    renaming delta: X -> Y, in ascending-id order of X and of each
    variable's candidates, that maps fx exactly onto fy; None if there is
    none.  The depth-first search keeps its own stack, so subtree size is
    not limited by the recursion limit.
    """
    inside_x = set(X)
    sig_x = _variable_signatures(inside_x, fx)
    sig_y = _variable_signatures(set(Y), fy)
    by_sig_y: dict[tuple, list[int]] = {}
    for w in Y:
        by_sig_y.setdefault(sig_y[w], []).append(w)
    # per pool, the sorted positions of its candidates not placed yet: the
    # next free candidate is one binary search away, not a walk past every
    # used one
    free_of_sig = {sig: list(range(len(pool))) for sig, pool in by_sig_y.items()}
    candidates = []
    for v in X:
        pool = by_sig_y.get(sig_x[v])
        if not pool:
            return None
        candidates.append((pool, free_of_sig[sig_x[v]]))

    target_keys = {c.sort_key() for c in fy}
    var_to_rows: dict[int, list[int]] = {v: [] for v in X}
    pending = []
    for ci, c in enumerate(fx):
        vs = [v for v, _ in c.terms if v in inside_x]
        pending.append(len(vs))
        for v in vs:
            var_to_rows[v].append(ci)

    delta: dict[int, int] = {}
    # pool positions of X[k] already tried at depth k; while X[k] is placed,
    # the last of them is delta[X[k]]'s
    tried = [0] * len(X)

    def unplace(k: int) -> None:
        v = X[k]
        for ci in var_to_rows[v]:
            pending[ci] += 1
        del delta[v]
        insort(candidates[k][1], tried[k] - 1)

    def place_next(k: int) -> bool:
        """Map X[k] to its next untried free candidate whose completed rows
        all land in fy; False once the candidates run out."""
        v, (pool, free) = X[k], candidates[k]
        while (i := bisect_left(free, tried[k])) < len(free):
            pos = free.pop(i)
            tried[k] = pos + 1
            delta[v] = pool[pos]
            ok = True
            for ci in var_to_rows[v]:
                pending[ci] -= 1
                if ok and pending[ci] == 0:
                    ok = _renamed_key(fx[ci], delta) in target_keys
            if ok:
                return True
            unplace(k)
        tried[k] = 0
        return False

    k = 0
    while k >= 0:
        if k == len(X):
            image = {_renamed_key(c, delta) for c in fx}
            if None not in image and image == target_keys:
                return delta
        elif place_next(k):
            k += 1
            continue
        k -= 1
        if k >= 0:
            unplace(k)
    return None


def test_equivalence(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition,
    x: int,
    y: int,
) -> EquivalenceWitness | None:
    """Certified equivalence check for two distinct siblings.

    Returns a witness whose delta maps the constraints touching T_x
    exactly onto those touching T_y, or None.
    """
    if x == y:
        raise KernelError("x and y must be distinct")
    if decomposition.parent.get(x, None) is None or decomposition.parent.get(y, None) is None:
        raise KernelError("x and y must be nodes of the decomposition")
    if decomposition.parent[x] != decomposition.parent[y]:
        raise KernelError(f"{x} and {y} are not siblings")

    X = decomposition.subtree(x)
    Y = decomposition.subtree(y)
    fx = constraints_touching(instance, X)
    fy = constraints_touching(instance, Y)
    if _signature(set(X), fx) != _signature(set(Y), fy):
        return None
    delta = _find_renaming(X, fx, Y, fy)
    return None if delta is None else EquivalenceWitness(x=x, y=y, delta=delta)


# ---------------------------------------------------------------------------
# pruning


class _Pruner:
    """Variable-to-row index of one instance, plus the subtrees pruned so far.

    Every row lies on one root path of the decomposition, so sibling
    subtrees never share a row: pruning one sibling leaves every other
    sibling's touching rows, signature and twins unchanged.  Each sibling
    set therefore needs a single pass.
    """

    def __init__(self, instance: IlpInstance, decomposition: TreedepthDecomposition):
        self.constraints = instance.constraints
        self.decomposition = decomposition
        self.rows_of: dict[int, list[int]] = {v: [] for v in instance.ids()}
        for i, c in enumerate(instance.constraints):
            for v, _ in c.terms:
                self.rows_of[v].append(i)
        # nodes whose subtree holds an objective variable are never pruned
        self.holders: set[int] = set()
        for v in instance.objective.variables():
            while v != ROOT and v not in self.holders:
                self.holders.add(v)
                v = decomposition.parent[v]
        self.gone_vars: set[int] = set()
        self.gone_rows: set[int] = set()

    def _subtree(self, x: int) -> tuple[int, ...]:
        # pruned nodes always form whole subtrees, so filtering is enough
        return tuple(v for v in self.decomposition.subtree(x) if v not in self.gone_vars)

    def _touching(self, nodes: tuple[int, ...]) -> tuple[int, ...]:
        rows = {i for v in nodes for i in self.rows_of[v]}
        return tuple(sorted(rows - self.gone_rows))

    def prune(self, kids: Iterable[int]) -> list[tuple[EquivalenceWitness, tuple[int, ...]]]:
        """Prune every objective-free sibling in kids (ascending ids) that
        has a smaller-id twin.  Returns (witness from the class's smallest
        id, pruned subtree) in trace order: classes by smallest id, then
        ascending pruned id."""
        kids = [c for c in kids if c not in self.holders]
        if len(kids) < 2:
            return []
        groups: dict[tuple, list] = {}
        for c in kids:
            nodes = self._subtree(c)
            rows = self._touching(nodes)
            fc = tuple(self.constraints[i] for i in rows)
            groups.setdefault(_signature(set(nodes), fc), []).append((c, nodes, rows, fc))
        hits = []
        for members in groups.values():
            keepers: list = []
            for member in members:
                c, nodes, rows, fc = member
                for k, k_nodes, _, k_fc in keepers:
                    delta = _find_renaming(k_nodes, k_fc, nodes, fc)
                    if delta is not None:
                        hits.append((EquivalenceWitness(x=k, y=c, delta=delta), nodes, rows))
                        break
                else:
                    keepers.append(member)
        hits.sort(key=lambda hit: (hit[0].x, hit[0].y))
        for _, nodes, rows in hits:
            self.gone_vars.update(nodes)
            self.gone_rows.update(rows)
        return [(witness, nodes) for witness, nodes, _ in hits]


def _trace_step(
    instance: IlpInstance, witness: EquivalenceWitness, gone: tuple[int, ...]
) -> TraceStep:
    return TraceStep(
        omitted=gone,
        keeper_root=witness.x,
        delta=dict(witness.delta),
        names={v: instance.name_of(v) for v in sorted(set(gone) | set(witness.delta))},
    )


def find_equivalent_pair(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition,
    z: int | None,
) -> EquivalenceWitness | None:
    """First equivalent objective-free pair of children of z, in (min id,
    max id) order; z=None addresses the virtual root above all trees."""
    kids = decomposition.roots() if z is None else decomposition.children(z)
    hits = _Pruner(instance, decomposition).prune(kids)
    return hits[0][0] if hits else None


def prune_step(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition,
    z: int | None,
) -> tuple[IlpInstance, TreedepthDecomposition, TraceStep] | None:
    """Omit one equivalent sibling subtree under z, if any; None otherwise."""
    witness = find_equivalent_pair(instance, decomposition, z)
    if witness is None:
        return None
    gone = decomposition.subtree(witness.y)
    step = _trace_step(instance, witness, gone)
    return omit_variables(instance, gone), decomposition.drop_nodes(gone), step


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
    decomposition are returned as the kernel.
    """
    if set(decomposition.parent) != set(instance.ids()):
        raise KernelError("decomposition nodes differ from instance variables")
    if not verify_treedepth_decomposition(build_primal_graph(instance), decomposition):
        raise KernelError("decomposition closure misses a primal edge")

    pruner = _Pruner(instance, decomposition)
    by_depth: dict[int, list[int]] = {}
    for v in decomposition.nodes():
        by_depth.setdefault(decomposition.depth_of(v), []).append(v)
    # the objective's support is a primal clique, so it lies in one tree,
    # which the pruner keeps: the virtual root is always safe to process
    sibling_sets = [
        decomposition.children(z)
        for depth in range(decomposition.height - 1, 0, -1)
        for z in by_depth[depth]
    ]
    sibling_sets.append(decomposition.roots())

    steps = tuple(
        _trace_step(instance, witness, gone)
        for kids in sibling_sets
        for witness, gone in pruner.prune(kids)
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
