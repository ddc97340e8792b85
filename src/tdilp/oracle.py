"""Brute-force reference implementations.

Deliberately naive and kept apart from the real algorithms so that
agreement between the two sides means something.  The only shared
vocabulary is plain data: instances, graphs, decompositions, outcomes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from functools import lru_cache

from .instance import IlpError, IlpInstance, LinearConstraint
from .outcome import INFEASIBLE, OPTIMAL, SolveOutcome
from .structure import Graph, StructureError, TreedepthDecomposition


class OracleBudgetError(Exception):
    """The requested enumeration exceeds the oracle's budget."""


_CHUNK_ROWS = 1 << 17
_INT64_SAFE = 2**62


def brute_force_ilp(instance: IlpInstance, box: int, budget: int = 10**8) -> SolveOutcome:
    """Enumerate every point of [-box, box]^n and keep the best feasible one.

    Never reports unboundedness.  Ties are broken toward the first point
    in the solver's leaf order: variable ids ascending, values ascending,
    except descending on variables with a positive objective coefficient.
    """
    try:
        import numpy as np  # only here, so that numpy stays off the solve path
    except ImportError:
        raise IlpError(
            "the ILP oracle needs numpy; install the 'test' extra: pip install -e '.[test]'"
        ) from None
    if box < 0:
        raise ValueError("box radius must be non-negative")
    ids = instance.ids()
    n = len(ids)
    width = 2 * box + 1
    total = width**n
    if total > budget:
        raise OracleBudgetError(f"{total} points exceed the budget of {budget}")
    if n == 0:
        return SolveOutcome(OPTIMAL, 0, {})

    biggest = 0
    for c in instance.constraints:
        biggest = max(biggest, abs(c.rhs), *(abs(coeff) for _, coeff in c.terms))
    for _, coeff in instance.objective.terms:
        biggest = max(biggest, abs(coeff))
    if biggest * max(box, 1) * n > _INT64_SAFE:
        raise OracleBudgetError("coefficients too large for the oracle's fixed-width sweep")

    pos = {vid: j for j, vid in enumerate(ids)}
    m = instance.n_constraints
    A = np.zeros((m, n), dtype=np.int64)
    rhs = np.zeros(m, dtype=np.int64)
    for i, c in enumerate(instance.constraints):
        for v, coeff in c.terms:
            A[i, pos[v]] = coeff
        rhs[i] = c.rhs
    s = np.zeros(n, dtype=np.int64)
    for v, coeff in instance.objective.terms:
        s[pos[v]] = coeff

    places = np.array([width ** (n - 1 - j) for j in range(n)], dtype=np.int64)
    # sweep in the solver's leaf order: ascending values, except descending
    # on variables with a positive objective coefficient, so the first
    # maximum found here is the same certificate the solver commits to
    flip = s > 0
    best_val: int | None = None
    best_idx: int | None = None
    for start in range(0, total, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = (idx[:, None] // places[None, :]) % width
        values = np.where(flip[None, :], box - digits, digits - box)
        feasible = (values @ A.T <= rhs).all(axis=1) if m else np.ones(len(idx), dtype=bool)
        if not feasible.any():
            continue
        objs = values @ s
        objs[~feasible] = np.iinfo(np.int64).min
        arg = int(np.argmax(objs))
        val = int(objs[arg])
        if best_val is None or val > best_val:
            best_val = val
            best_idx = start + arg
    if best_val is None:
        return SolveOutcome(INFEASIBLE)
    assignment = {}
    for j in range(n):
        digit = (best_idx // int(places[j])) % width
        assignment[ids[j]] = int(box - digit) if flip[j] else int(digit - box)
    return SolveOutcome(OPTIMAL, best_val, assignment)


def has_recession_ray(instance: IlpInstance) -> bool:
    """Exact test for an integer d with A d <= 0 and obj . d >= 1.

    A rational solution scales to an integer one, so Fourier-Motzkin
    elimination over the rationals decides it.  (Sweeping rays in a small
    box, as the acceptance suite does, misses rays with large entries.)
    """
    ids = instance.ids()
    rows = {(tuple(c.coefficient(v) for v in ids), 0) for c in instance.constraints}
    rows.add((tuple(-instance.objective.coefficient(v) for v in ids), -1))
    for j in range(len(ids)):
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        rows = {r for r in rows if r[0][j] == 0}
        for (a, s), (b, t) in itertools.product(pos, neg):
            # -b_j * (a . d <= s) + a_j * (b . d <= t) has no d_j term
            coeffs = tuple(-b[j] * x + a[j] * y for x, y in zip(a, b))
            rhs = -b[j] * s + a[j] * t
            g = math.gcd(*coeffs, rhs) or 1
            rows.add((tuple(x // g for x in coeffs), rhs // g))
    return all(rhs >= 0 for _, rhs in rows)


def subset_sum_dp(values, target: int | None = None) -> bool:
    """Classic reachability bitset over sums 0..target.

    Accepts either (iterable, target) or a single object carrying ``Q``
    and ``r`` attributes.
    """
    if target is None:
        target = values.r
        values = values.Q
    qs = list(values)
    if target < 0 or any(q <= 0 for q in qs):
        raise ValueError("subset-sum wants positive values and a non-negative target")
    if target > 10**6:
        raise OracleBudgetError(f"target {target} beyond the oracle's scale")
    mask = (1 << (target + 1)) - 1
    reach = 1
    for q in qs:
        reach = (reach | (reach << q)) & mask
    return bool((reach >> target) & 1)


def brute_three_coloring(graph: Graph, cap: int = 12) -> bool:
    """3^n sweep over colorings."""
    if graph.n > cap:
        raise OracleBudgetError(f"{graph.n} vertices beyond the 3-coloring cap {cap}")
    index = {v: i for i, v in enumerate(graph.vertices)}
    edges = [(index[u], index[v]) for u, v in sorted(graph.edges)]
    for coloring in itertools.product(range(3), repeat=graph.n):
        if all(coloring[u] != coloring[v] for u, v in edges):
            return True
    return False


def brute_vertex_cover(graph: Graph, nu: int, cap: int = 16) -> bool:
    """Subset sweep: does some |S| <= nu cover every edge?"""
    if graph.n > cap:
        raise OracleBudgetError(f"{graph.n} vertices beyond the vertex-cover cap {cap}")
    if nu < 0:
        return False
    edges = sorted(graph.edges)
    if not edges:
        return True
    for size in range(0, min(nu, graph.n) + 1):
        for subset in itertools.combinations(graph.vertices, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return True
    return False


def induced_subgraph(graph: Graph, keep: Iterable[int]) -> Graph:
    """The subgraph that the vertices in keep induce."""
    kept = set(keep)
    unknown = kept - set(graph.vertices)
    if unknown:
        raise StructureError(f"unknown vertices {sorted(unknown)}")
    return Graph(kept, [(u, v) for u, v in graph.edges if u in kept and v in kept])


def treedepth_reference(graph: Graph, cap: int = 12) -> int:
    """Treedepth by the defining recursion.

    Singleton: 1.  Connected: 1 + min over a deleted vertex.  Otherwise:
    max over components.  Memoized on vertex subsets; without the memo
    the recursion visits n! orderings and desk scale is already out of
    reach at n = 9.
    """
    if graph.n > cap:
        raise OracleBudgetError(f"{graph.n} vertices beyond the treedepth cap {cap}")
    vs = graph.vertices
    index = {v: i for i, v in enumerate(vs)}
    nbr = [0] * len(vs)
    for u, v in graph.edges:
        nbr[index[u]] |= 1 << index[v]
        nbr[index[v]] |= 1 << index[u]

    def components(mask: int) -> list[int]:
        comps = []
        rest = mask
        while rest:
            comp = rest & -rest
            frontier = comp
            while frontier:
                grow = 0
                bits = frontier
                while bits:
                    b = bits & -bits
                    bits ^= b
                    grow |= nbr[b.bit_length() - 1]
                frontier = grow & mask & ~comp
                comp |= frontier
            comps.append(comp)
            rest &= ~comp
        return comps

    @lru_cache(maxsize=None)
    def td(mask: int) -> int:
        if mask == 0:
            return 0
        comps = components(mask)
        if len(comps) > 1:
            return max(td(c) for c in comps)
        if mask & (mask - 1) == 0:
            return 1
        best = mask.bit_count()
        bits = mask
        while bits:
            b = bits & -bits
            bits ^= b
            best = min(best, 1 + td(mask & ~b))
        return best

    return td((1 << len(vs)) - 1)


def longest_path_vertices(graph: Graph, cap: int = 14) -> int:
    """Most vertices on any simple path, by the subset endpoint sweep."""
    if graph.n > cap:
        raise OracleBudgetError(f"{graph.n} vertices beyond the longest-path cap {cap}")
    if graph.n == 0:
        return 0
    vs = graph.vertices
    index = {v: i for i, v in enumerate(vs)}
    nbr = [0] * len(vs)
    for u, v in graph.edges:
        nbr[index[u]] |= 1 << index[v]
        nbr[index[v]] |= 1 << index[u]
    n = len(vs)
    ends = [0] * (1 << n)
    for i in range(n):
        ends[1 << i] = 1 << i
    best = 1
    for mask in range(1, 1 << n):
        e = ends[mask]
        if not e:
            continue
        best = max(best, mask.bit_count())
        bits = e
        while bits:
            b = bits & -bits
            bits ^= b
            grow = nbr[b.bit_length() - 1] & ~mask
            while grow:
                w = grow & -grow
                grow ^= w
                ends[mask | w] |= w
    return best


def _touching(instance: IlpInstance, nodes) -> list[LinearConstraint]:
    inside = set(nodes)
    return [c for c in instance.constraints if inside & set(c.variables())]


def _renames_onto(fx, delta: dict[int, int], target: set) -> bool:
    """Whether renaming fx through delta gives exactly the rows whose sort
    keys are target."""
    image = set()
    for c in fx:
        merged: dict[int, int] = {}
        for v, k in c.terms:
            w = delta.get(v, v)
            merged[w] = merged.get(w, 0) + k
        terms = tuple(sorted((v, k) for v, k in merged.items() if k))
        if not terms:
            # the rename cancelled a constraint to nothing; not a match
            return False
        image.add((terms, c.rhs))
    return image == target


def equivalence_reference(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition,
    x: int,
    y: int,
    cap: int = 6,
) -> dict[int, int] | None:
    """Try every bijection between the two subtrees' variables.

    Returns a renaming that maps the constraints touching T_x exactly
    onto those touching T_y, or None when no bijection works.
    """
    X = decomposition.subtree(x)
    Y = decomposition.subtree(y)
    if len(X) > cap:
        raise OracleBudgetError(f"subtree of {len(X)} nodes beyond the bijection cap {cap}")
    if len(X) != len(Y):
        return None
    fx, fy = _touching(instance, X), _touching(instance, Y)
    if len(fx) != len(fy):
        return None
    target = {(c.terms, c.rhs) for c in fy}
    for perm in itertools.permutations(Y):
        delta = dict(zip(X, perm))
        if _renames_onto(fx, delta, target):
            return delta
    return None


def witness_is_sound(instance: IlpInstance, decomposition: TreedepthDecomposition, witness) -> bool:
    """Re-derive the defining property of an equivalence witness from scratch:
    its delta maps T_x onto T_y and the rows touching T_x onto those
    touching T_y."""
    X = decomposition.subtree(witness.x)
    Y = decomposition.subtree(witness.y)
    delta = witness.delta
    if sorted(delta) != sorted(X) or sorted(delta.values()) != sorted(Y):
        return False
    target = {(c.terms, c.rhs) for c in _touching(instance, Y)}
    return _renames_onto(_touching(instance, X), delta, target)
