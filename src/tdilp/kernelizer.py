"""Pruning of interchangeable sibling subtrees of a treedepth decomposition.

Two sibling subtrees T_x, T_y are equivalent when some bijective renaming
delta of T_x's variables onto T_y's maps the set of constraints touching
T_x exactly onto the set touching T_y (ancestor variables stay fixed).
If neither subtree carries an objective variable, T_y can be dropped
without changing feasibility or the optimal value, and any solution of
the smaller instance lifts back by copying values through delta.

Each sibling's touching rows are viewed once; the views give a
renaming-invariant signature that groups the candidates (equivalent
subtrees always collide).  The renaming that keeps the variables' order
certifies a pair of a group when it works, a colour-refined search otherwise.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
# touching sets and signatures


def constraints_touching(instance: IlpInstance, Y: Iterable[int]) -> tuple[LinearConstraint, ...]:
    """All constraints with at least one variable in Y."""
    ys = set(Y)
    return tuple(c for c in instance.constraints if ys & set(c.variables()))


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

    __slots__ = ("nodes", "rows", "inside", "views", "signature", "form")

    def __init__(self, nodes: tuple[int, ...], rows: tuple[LinearConstraint, ...]):
        self.nodes, self.rows, self.inside = nodes, rows, set(nodes)
        self.views = [_constraint_view(c, self.inside) for c in rows]
        self.signature = (len(nodes), tuple(sorted(self.views)))
        self.form = None

    def ordered_form(self) -> frozenset:
        """The rows with the i-th smallest variable written as -1 - i (ids are not
        negative): equal forms make twins under the order-keeping renaming."""
        if self.form is None:
            slot = {v: -1 - i for i, v in enumerate(self.nodes)}.get
            self.form = frozenset(
                (tuple(sorted([(slot(v, v), k) for v, k in c.terms])), c.rhs) for c in self.rows
            )
        return self.form


def subtree_signature(instance: IlpInstance, nodes: Iterable[int]) -> tuple:
    """Renaming-invariant fingerprint of a subtree: equivalent subtrees
    always collide; the converse is settled by test_equivalence."""
    nodes = tuple(sorted(set(nodes)))
    return _Sibling(nodes, constraints_touching(instance, nodes)).signature


# ---------------------------------------------------------------------------
# equivalence testing


def _refined_colours(x: _Sibling, y: _Sibling) -> dict[int, int]:
    """Colour refinement over the variables of both siblings at once.

    Every variable starts with one colour.  A round recolours each by, for
    each of its rows, the row's view, its own coefficient there and the
    sorted (coefficient, colour) pairs of the row's inside variables; the
    first round gives each variable's (coefficient, view) multiset.  Rounds
    stop when no colour class splits.  A renaming that maps x's rows onto
    y's keeps every round's colours.
    """
    views: dict[tuple, int] = {}  # each view's number
    rows = [(views.setdefault(view, len(views)), [(v, k) for v, k in c.terms if v in s.inside])
            for s in (x, y) for c, view in zip(s.rows, s.views)]
    colour, classes = dict.fromkeys((*x.nodes, *y.nodes), 0), 1
    while True:
        seen: dict[int, list] = {v: [] for v in colour}
        for view, inner in rows:
            around = (view, tuple(sorted([(k, colour[v]) for v, k in inner])))
            for v, k in inner:
                seen[v].append((k, around))
        ids: dict[tuple, int] = {}
        colour = {v: ids.setdefault(tuple(sorted(s)), len(ids)) for v, s in seen.items()}
        if len(ids) == classes:
            return colour
        classes = len(ids)


def _find_renaming(x: _Sibling, y: _Sibling) -> dict[int, int] | None:
    """The certified bijection search behind every equivalence verdict.

    x and y are sibling subtrees with equal signatures.  Returns the first
    renaming delta: x.nodes -> y.nodes, in ascending-id order of x's
    variables and of each one's candidates, that maps x's rows exactly onto
    y's, or None.  The search keeps its own stack, so subtree size is not
    limited by the recursion limit.  Equal signatures leave no row over both
    subtrees (seen from y it names an id of x's, which no view from x does),
    so renamed ids never collide and a renamed row's key is a plain
    (sorted terms, rhs) tuple.
    """
    # when the renaming that keeps the order works, the search takes each
    # variable's first candidate, the next smallest of y's, and returns it
    if x.ordered_form() == y.ordered_form():
        return dict(zip(x.nodes, y.nodes))
    X, fx, target_keys = x.nodes, x.rows, {(c.terms, c.rhs) for c in y.rows}
    # a variable's candidates are y's variables of its colour: a renaming
    # keeps colours, so it takes no other, and unequal classes rule it out
    colour = _refined_colours(x, y)
    if sorted(map(colour.get, X)) != sorted(map(colour.get, y.nodes)):
        return None
    pools: dict[int, list[int]] = {}
    for w in y.nodes:
        pools.setdefault(colour[w], []).append(w)
    # per pool, its candidates and the sorted positions of those not placed
    # yet (the next one is a binary search away)
    slots = {key: (pool, list(range(len(pool)))) for key, pool in pools.items()}
    candidates = [slots[colour[v]] for v in X]
    var_rows: dict[int, list[int]] = {v: [] for v in X}
    for ci, c in enumerate(fx):
        for v, _ in c.terms:
            if v in x.inside:
                var_rows[v].append(ci)
    pending = [len(inner) for _, inner, _ in x.views]
    delta: dict[int, int] = {}
    get = delta.get
    # pool positions of X[k] already tried at depth k; while X[k] is placed,
    # the last of them is delta[X[k]]'s
    tried, k = [0] * len(X), 0
    while 0 <= k < len(X):
        v, (pool, free) = X[k], candidates[k]
        if v in delta:  # take X[k]'s candidate back before trying the next
            del delta[v]
            for ci in var_rows[v]:
                pending[ci] += 1
            insort(free, tried[k] - 1)
        i = bisect_left(free, tried[k])
        if i == len(free):  # X[k]'s candidates ran out: back up
            tried[k] = 0
            k -= 1
            continue
        pos = free.pop(i)
        tried[k] = pos + 1
        delta[v] = pool[pos]
        ok = True
        for ci in var_rows[v]:
            pending[ci] -= 1
            if ok and pending[ci] == 0:
                c = fx[ci]
                ok = (tuple(sorted([(get(u, u), a) for u, a in c.terms])), c.rhs) in target_keys
        if ok:
            k += 1
    # each of x's rows landed on one of y's as it completed, renaming is
    # injective on their ids and equal signatures mean as many rows: all of y's
    return delta if k == len(X) else None


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

    sx, sy = (_Sibling(s, constraints_touching(instance, s))
              for s in (decomposition.subtree(x), decomposition.subtree(y)))
    if sx.signature != sy.signature:
        return None
    delta = _find_renaming(sx, sy)
    return None if delta is None else EquivalenceWitness(x, y, delta)


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

    def _subtree(self, x: int) -> tuple[int, ...]:
        # pruned nodes always form whole subtrees, so filtering is enough
        return tuple(v for v in self.decomposition.subtree(x) if v not in self.gone_vars)

    def _touching(self, nodes: tuple[int, ...]) -> tuple[LinearConstraint, ...]:
        rows = {i for v in nodes for i in self.rows_of[v]} - self.gone_rows
        return tuple(self.constraints[i] for i in sorted(rows))

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
            nodes = self._subtree(c)
            sibling = _Sibling(nodes, self._touching(nodes))
            groups.setdefault(sibling.signature, []).append((c, sibling))
        hits = []
        for members in groups.values():
            keepers: list[tuple[int, _Sibling]] = []
            for c, sibling in members:
                for k, keeper in keepers:
                    delta = _find_renaming(keeper, sibling)
                    if delta is not None:
                        hits.append(EquivalenceWitness(k, c, delta))
                        break
                else:
                    keepers.append((c, sibling))
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


def find_equivalent_pair(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition,
    z: int | None,
) -> EquivalenceWitness | None:
    """First equivalent objective-free pair of children of z, in (min id,
    max id) order; z=None addresses the virtual root above all trees."""
    kids = decomposition.roots() if z is None else decomposition.children(z)
    hits = _Pruner(instance, decomposition).prune(kids)
    return hits[0] if hits else None


def prune_step(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition,
    z: int | None,
) -> tuple[IlpInstance, TreedepthDecomposition, TraceStep] | None:
    """Omit one equivalent sibling subtree under z, if any; None otherwise."""
    witness = find_equivalent_pair(instance, decomposition, z)
    if witness is None:
        return None
    step = _trace_step(instance, witness)
    return omit_variables(instance, step.omitted), decomposition.drop_nodes(step.omitted), step


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
