"""Exact bounded-box solver and the full kernelize-solve-lift pipeline.

The search is branch and bound over integer boxes: interval propagation
per constraint, bisection branching, and an outer bisection on the
objective value.  A certified box radius guarantees that a feasible
instance has a feasible point inside the box, so "infeasible in the box"
is a real infeasibility verdict whenever the box was not user-shrunk.
Unboundedness reduces to feasibility of the integer recession system,
solved by the same engine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .instance import (
    IlpInstance,
    InternalError,
    LinearConstraint,
    check_feasible,
    evaluate_objective,
    max_abs_coefficient,
)
from .kernelizer import KernelTrace, kernelize, lift_solution
from .outcome import SolveOutcome
from .structure import TreedepthDecomposition, decompose


@dataclass(frozen=True)
class BoxBound:
    """Search box [-radius, radius]^n."""

    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("box radius must be positive")


def solution_bound(instance: IlpInstance) -> BoxBound:
    """Certified radius B = n * (m*a)^(2m+1), a = max(coefficient bound, 1).

    The classical magnitude bound for integer programs: a feasible
    instance has a feasible point with every coordinate in [-B, B].
    """
    n = instance.n_variables
    m = instance.n_constraints
    a = max(max_abs_coefficient(instance), 1)
    return BoxBound(max(1, n * (m * a) ** (2 * m + 1)))


# ---------------------------------------------------------------------------
# core search


def _primitive(terms, rhs: int):
    """Divide a row by the gcd of its coefficients, flooring the rhs.

    Integer-equivalent to the original row, and it puts every row into a
    canonical direction so proportional rows become literally opposite.
    """
    g = 0
    for _, c in terms:
        g = math.gcd(g, c)
    if g > 1:
        return tuple((j, c // g) for j, c in terms), rhs // g
    return tuple(terms), rhs


class _SearchProgram:
    """Instance compiled to index-based rows for the propagation loop."""

    __slots__ = ("ids", "rows", "obj", "cut_terms", "cut_gcd", "var_rows", "n")

    def __init__(self, instance: IlpInstance):
        self.ids = instance.ids()
        index = {v: j for j, v in enumerate(self.ids)}
        self.n = len(self.ids)
        self.rows: list[tuple[tuple[tuple[int, int], ...], int]] = [
            _primitive(tuple((index[v], c) for v, c in row.terms), row.rhs)
            for row in instance.constraints
        ]
        self.obj = [0] * self.n
        for v, c in instance.objective.terms:
            self.obj[index[v]] = c
        # value-threshold cut: -obj . x <= -t, kept as a separate row shape
        self.cut_gcd = max(math.gcd(*(abs(c) for c in self.obj), 0), 1)
        self.cut_terms = tuple(
            (j, -c // self.cut_gcd) for j, c in enumerate(self.obj) if c != 0
        )
        self.var_rows: list[list[int]] = [[] for _ in range(self.n)]
        for ri, (terms, _) in enumerate(self.rows):
            for j, _ in terms:
                self.var_rows[j].append(ri)


def _opposing_pair_infeasible(rows) -> bool:
    """True when two rows a.x <= b1, -a.x <= b2 combine into 0 <= b1+b2 < 0.

    Interval propagation converges one unit per pass on such a pair, so
    over a certified box it never finishes; the pair itself is a complete
    infeasibility proof and costs one dictionary sweep.  Rows arrive
    gcd-normalized, which makes every proportional pair exactly opposite.
    """
    best: dict[tuple[tuple[int, int], ...], int] = {}
    for terms, rhs in rows:
        if not terms:
            continue
        key = tuple(sorted(terms))
        if rhs < best.get(key, rhs + 1):
            best[key] = rhs
    for key, rhs in best.items():
        other = best.get(tuple((j, -c) for j, c in key))
        if other is not None and rhs + other < 0:
            return True
    return False


def _propagate(
    program: _SearchProgram,
    lo: list[int],
    hi: list[int],
    cut_rhs: int | None,
) -> bool:
    """Tighten [lo, hi] per row to a (capped) fixpoint; False iff infeasible.

    The update cap stops one-step-at-a-time creep on huge boxes; stopping
    early is sound because propagation only ever narrows.
    """
    rows = list(program.rows)
    if cut_rhs is not None and program.cut_terms:
        rows.append((program.cut_terms, cut_rhs))
    n_rows = len(rows)
    if n_rows == 0:
        return all(lo[j] <= hi[j] for j in range(program.n))
    budget = 4 * n_rows + 8 * program.n + 32
    queue = deque(range(n_rows))
    queued = [True] * n_rows
    var_rows = program.var_rows
    cut_row = n_rows - 1 if (cut_rhs is not None and program.cut_terms) else None

    def rows_of(j: int):
        if cut_row is not None and program.obj[j] != 0:
            return var_rows[j] + [cut_row]
        return var_rows[j]

    while queue:
        ri = queue.popleft()
        queued[ri] = False
        terms, rhs = rows[ri]
        floor_sum = 0
        for j, c in terms:
            floor_sum += c * lo[j] if c > 0 else c * hi[j]
        if floor_sum > rhs:
            return False
        for j, c in terms:
            own = c * lo[j] if c > 0 else c * hi[j]
            room = rhs - (floor_sum - own)
            if c > 0:
                new_hi = room // c
                if new_hi < hi[j]:
                    hi[j] = new_hi
                    if lo[j] > hi[j]:
                        return False
                    floor_sum = floor_sum - own + c * lo[j]
                    budget -= 1
                    if budget <= 0:
                        return True
                    for other in rows_of(j):
                        if not queued[other]:
                            queued[other] = True
                            queue.append(other)
            else:
                new_lo = -(room // -c)
                if new_lo > lo[j]:
                    lo[j] = new_lo
                    if lo[j] > hi[j]:
                        return False
                    floor_sum = floor_sum - own + c * hi[j]
                    budget -= 1
                    if budget <= 0:
                        return True
                    for other in rows_of(j):
                        if not queued[other]:
                            queued[other] = True
                            queue.append(other)
    return True


def _pick_branch_var(
    program: _SearchProgram, lo: list[int], hi: list[int], widest_last: bool
) -> int | None:
    if widest_last:
        best_j, best_w = None, None
        for j in range(program.n):
            w = hi[j] - lo[j]
            if w > 0 and (best_w is None or w < best_w):
                best_j, best_w = j, w
        return best_j
    for j in range(program.n):
        if lo[j] < hi[j]:
            return j
    return None


def _dive(
    program: _SearchProgram,
    radius: int,
    threshold: int | None,
    min_domain_branching: bool,
) -> tuple[list[int], int] | None:
    """First leaf of {rows, obj >= threshold} in the fixed leaf order.

    The leaf order is: bisect the lowest-id unfixed variable (narrowest
    domain under min_domain_branching), upper half first exactly when the
    variable's objective coefficient is positive.
    """
    n = program.n
    cut_rhs = None if threshold is None else (-threshold) // program.cut_gcd
    probe_rows = list(program.rows)
    if cut_rhs is not None and program.cut_terms:
        probe_rows.append((program.cut_terms, cut_rhs))
    if _opposing_pair_infeasible(probe_rows):
        return None
    stack: list[tuple[list[int], list[int]]] = [([-radius] * n, [radius] * n)]
    while stack:
        lo, hi = stack.pop()
        if not _propagate(program, lo, hi, cut_rhs):
            continue
        j = _pick_branch_var(program, lo, hi, min_domain_branching)
        if j is None:
            point = lo
            feasible = all(
                sum(c * point[k] for k, c in terms) <= rhs for terms, rhs in program.rows
            )
            if not feasible:
                continue
            value = sum(c * point[k] for k, c in enumerate(program.obj) if c)
            if threshold is not None and value < threshold:
                continue
            return point, value
        mid = (lo[j] + hi[j]) // 2
        lower = (list(lo), list(hi))
        lower[1][j] = mid
        upper = (list(lo), list(hi))
        upper[0][j] = mid + 1
        if program.obj[j] > 0:
            stack.append(lower)
            stack.append(upper)
        else:
            stack.append(upper)
            stack.append(lower)
    return None


def bounded_search(
    instance: IlpInstance,
    bound: BoxBound | int,
    *,
    first_feasible: bool = False,
    min_domain_branching: bool = False,
) -> SolveOutcome:
    """Exact maximum over the box, or infeasible-in-box.  Never unbounded.

    The maximum is found by bisecting on the objective value: each probe
    asks for the first leaf satisfying the rows plus obj >= t, so the
    work per probe stays logarithmic in the box radius instead of
    creeping upward one incumbent at a time.  The final probe runs at the
    optimum itself, which makes the certificate the first optimum in the
    fixed leaf order; deterministic and independent of probe history.
    """
    radius = bound.radius if isinstance(bound, BoxBound) else int(bound)
    if radius < 0:
        raise ValueError("box radius must be non-negative")
    program = _SearchProgram(instance)
    hit = _dive(program, radius, None, min_domain_branching)
    if hit is None:
        return SolveOutcome.infeasible()
    point, value = hit
    if first_feasible or not any(program.obj):
        return SolveOutcome.optimal(
            value, {program.ids[k]: point[k] for k in range(program.n)}
        )
    lo = value
    hi = sum(abs(c) for c in program.obj) * radius
    while lo < hi:
        mid = lo + (hi - lo + 1) // 2
        probe = _dive(program, radius, mid, min_domain_branching)
        if probe is None:
            hi = mid - 1
        else:
            lo = probe[1]
    point, value = _dive(program, radius, lo, min_domain_branching)
    return SolveOutcome.optimal(
        value, {program.ids[k]: point[k] for k in range(program.n)}
    )


# ---------------------------------------------------------------------------
# unboundedness


def detect_unbounded(instance: IlpInstance) -> bool:
    """Feasibility of the integer recession system {A d <= 0, obj . d >= 1}.

    For a feasible instance this is exactly unboundedness of the
    objective: any such direction can be added to a feasible point
    forever, and conversely an unbounded rational ray scales to one.
    """
    if instance.objective.is_zero():
        return False
    rows = [LinearConstraint(c.terms, 0) for c in instance.constraints]
    rows.append(
        LinearConstraint.make({v: -c for v, c in instance.objective.terms}, -1)
    )
    recession = IlpInstance(instance.variables, rows, instance.objective)
    outcome = bounded_search(recession, solution_bound(recession), first_feasible=True)
    return outcome.is_optimal()


# ---------------------------------------------------------------------------
# domain presolve (the --propagate pass)


def _propagation_presolve(instance: IlpInstance) -> IlpInstance:
    """Generic integer-structure presolve used under the propagate flag.

    Three sound rewrites, each derived from row shapes alone:
      * equality detection: a row plus its negation pin a hyperplane;
      * remainder aliasing: two equalities g = p*m1 + r1 = p*m2 + r2 with
        both remainders confined to [0, p-1] force r1 = r2 at every
        integer point, so the equality rows are added explicitly;
      * modular envelope: when g >= 0 occurs only in such remainder
        equalities (m private to its pair, everything objective-free),
        any feasible point translates to one with g < lcm(p), so the
        bound g <= lcm(p) - 1 is added.
    """
    keys = {c.sort_key() for c in instance.constraints}

    def row_present(var: int, coeff: int, rhs: int) -> bool:
        return (((var, coeff),), rhs) in keys

    equalities: list[LinearConstraint] = []
    for c in instance.constraints:
        neg = (tuple((v, -k) for v, k in c.terms), -c.rhs)
        if neg in keys and c.sort_key() < neg:
            equalities.append(c)

    patterns: list[tuple[int, int, int, int]] = []  # (g, p, m, r)
    for c in equalities:
        if c.rhs != 0 or len(c.terms) != 3:
            continue
        for sign in (1, -1):
            coeffs = [(v, sign * k) for v, k in c.terms]
            ones = [v for v, k in coeffs if k == 1]
            neg_ones = [v for v, k in coeffs if k == -1]
            neg_big = [(v, k) for v, k in coeffs if k <= -2]
            if len(ones) == 1 and len(neg_ones) == 1 and len(neg_big) == 1:
                g, r = ones[0], neg_ones[0]
                m, mk = neg_big[0]
                patterns.append((g, -mk, m, r))

    ranged = [
        (g, p, m, r)
        for g, p, m, r in patterns
        if row_present(r, -1, 0) and row_present(r, 1, p - 1)
    ]

    extra: list[LinearConstraint] = []

    by_gp: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for g, p, m, r in ranged:
        by_gp.setdefault((g, p), []).append((m, r))
    for (_, _), entries in sorted(by_gp.items()):
        entries.sort()
        base_r = entries[0][1]
        for _, other_r in entries[1:]:
            if other_r == base_r:
                continue
            extra.append(LinearConstraint.make({base_r: 1, other_r: -1}, 0))
            extra.append(LinearConstraint.make({base_r: -1, other_r: 1}, 0))

    occurrences: dict[int, int] = {}
    for c in instance.constraints:
        for v in c.variables():
            occurrences[v] = occurrences.get(v, 0) + 1

    def m_private(m: int) -> bool:
        if instance.objective.coefficient(m) != 0:
            return False
        expected = 2 + (1 if row_present(m, -1, 0) else 0)
        return occurrences.get(m, 0) == expected

    by_g: dict[int, list[tuple[int, int, int]]] = {}
    for g, p, m, r in ranged:
        if m_private(m):
            by_g.setdefault(g, []).append((p, m, r))
    for g in sorted(by_g):
        if instance.objective.coefficient(g) != 0:
            continue
        if not row_present(g, -1, 0):
            continue
        pats = by_g[g]
        allowed = {(((g, -1),), 0)}
        for p, m, r in pats:
            eq = LinearConstraint.make({g: 1, m: -p, r: -1}, 0)
            allowed.add(eq.sort_key())
            allowed.add((tuple((v, -k) for v, k in eq.terms), 0))
        qualifying = True
        for c in instance.constraints:
            if g not in c.variables():
                continue
            key = c.sort_key()
            if key in allowed:
                continue
            if len(c.terms) == 1 and c.terms[0] == (g, 1):
                continue  # an existing upper bound on g only helps
            qualifying = False
            break
        if not qualifying:
            continue
        modulus = math.lcm(*(p for p, _, _ in pats))
        extra.append(LinearConstraint.make({g: 1}, modulus - 1))

    if not extra:
        return instance
    return IlpInstance(
        instance.variables,
        tuple(instance.constraints) + tuple(extra),
        instance.objective,
    )


# ---------------------------------------------------------------------------
# outer solve layers


def solve_core(
    instance: IlpInstance,
    *,
    propagate: bool = False,
    bound: int | None = None,
) -> SolveOutcome:
    """Infeasible / Unbounded / Optimal on one instance, no kernelization.

    A user-supplied bound below the certified radius turns an
    infeasible-in-box verdict into bound_exhausted; a feasible point
    found inside the smaller box is still reported optimal for that box.
    """
    certified = solution_bound(instance).radius
    radius = certified if bound is None else bound
    search_instance = _propagation_presolve(instance) if propagate else instance

    probe = bounded_search(
        search_instance,
        radius,
        first_feasible=True,
        min_domain_branching=propagate,
    )
    if not probe.is_optimal():
        if bound is not None and bound < certified:
            return SolveOutcome.bound_exhausted()
        return SolveOutcome.infeasible()

    if instance.objective.is_zero():
        outcome = probe
    else:
        if detect_unbounded(instance):
            return SolveOutcome.unbounded()
        outcome = bounded_search(
            search_instance, radius, min_domain_branching=propagate
        )

    if not check_feasible(instance, outcome.assignment):
        raise InternalError("search returned an infeasible point")
    if evaluate_objective(instance, outcome.assignment) != outcome.value:
        raise InternalError("search returned an inconsistent objective value")
    return outcome


@dataclass(frozen=True)
class PipelineInfo:
    """Side facts about a solve, for reporting."""

    td_mode: str
    decomposition: TreedepthDecomposition
    kernel: IlpInstance
    trace: KernelTrace
    certified_radius: int
    radius: int


def solve_pipeline(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition | None = None,
    *,
    use_kernel: bool = True,
    propagate: bool = False,
    bound: int | None = None,
) -> tuple[SolveOutcome, PipelineInfo]:
    """kernelize -> core solve -> lift, with the decomposition made or
    checked by structure.decompose."""
    decomposition, td_mode = decompose(instance, decomposition)

    if use_kernel:
        kernel, _, trace = kernelize(instance, decomposition)
    else:
        kernel, trace = instance, KernelTrace()

    outcome = solve_core(kernel, propagate=propagate, bound=bound)

    if outcome.is_optimal():
        lifted = lift_solution(trace, outcome.assignment)
        if set(lifted) != set(instance.ids()):
            raise InternalError("lifted assignment does not cover the instance")
        if not check_feasible(instance, lifted):
            raise InternalError("lifted assignment violates a constraint")
        value = evaluate_objective(instance, lifted)
        if value != outcome.value:
            raise InternalError("lifting changed the objective value")
        outcome = SolveOutcome.optimal(value, lifted)

    outcome = outcome.with_counts(kernel.n_variables, instance.n_variables)
    certified = solution_bound(kernel).radius
    info = PipelineInfo(
        td_mode=td_mode,
        decomposition=decomposition,
        kernel=kernel,
        trace=trace,
        certified_radius=certified,
        radius=certified if bound is None else bound,
    )
    return outcome, info


def solve(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition | None = None,
    **options,
) -> SolveOutcome:
    return solve_pipeline(instance, decomposition, **options)[0]
