"""The colour-refined twin search, and the kernel's one-step public wrappers.

``kernelizer`` groups sibling subtrees by signature and certifies a
colliding pair itself when the order-keeping renaming works; it imports
this module only to search any other pair, so a solve whose twins all keep
a common order never compiles it.

The wrappers (``test_equivalence``, ``find_equivalent_pair``,
``prune_step``, ``constraints_touching``, ``subtree_signature``) serve
tests and callers that step through the kernel one pair at a time; no
solve calls them.  Their old names in ``kernelizer`` still resolve here.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable

from .instance import IlpInstance, LinearConstraint, omit_variables
from .kernelizer import EquivalenceWitness, KernelError, TraceStep, _Pruner, _Sibling, _trace_step
from .structure import TreedepthDecomposition


def constraints_touching(instance: IlpInstance, Y: Iterable[int]) -> tuple[LinearConstraint, ...]:
    """All constraints with at least one variable in Y."""
    ys = set(Y)
    return tuple(c for c in instance.constraints if ys & set(c.variables()))


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
    """The certified bijection search, which the pruner runs on unequal ordered forms.

    x and y are sibling subtrees with equal signatures.  Returns the first
    renaming delta: x.nodes -> y.nodes, in ascending-id order of x's
    variables and of each one's candidates, that maps x's rows exactly onto
    y's, or None.  The search keeps its own stack, so subtree size is not
    limited by the recursion limit.  Equal signatures leave no row over both
    subtrees (seen from y it names an id of x's, which no view from x does),
    so renamed ids never collide and a renamed row's key is a plain
    (sorted terms, rhs) tuple.
    """
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
# one pruning step


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
