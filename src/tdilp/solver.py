"""Exact bounded-box solver and the full kernelize-solve-lift pipeline.

The search is branch and bound over integer boxes: interval propagation
per constraint plus the residue classes that equality rows with two free
variables imply, endpoint-first or bisection branching, and an outer
search on the objective value down from the top of the propagated box.  A
certified box radius guarantees that a feasible instance has a feasible
point inside the box, so "infeasible in the box" is a real infeasibility
verdict whenever the box was not user-shrunk.  Unboundedness reduces to
feasibility of the integer recession system, solved by the same engine,
and the ray it finds is checked like an assignment.  Parts of an instance
that share no row are independent, and each is searched on its own.
"""

from __future__ import annotations

import math
from collections import deque

from .instance import (
    IlpInstance,
    InternalError,
    LinearConstraint,
    LinearObjective,
    Record,
    check_feasible,
    evaluate_objective,
    max_abs_coefficient,
)
from .kernelizer import kernelize, lift_solution
from .outcome import BOUND_EXHAUSTED, BOX_OPTIMAL, INFEASIBLE, OPTIMAL, UNBOUNDED, SolveOutcome
from .structure import TreedepthDecomposition, decompose


class BoxBound(Record):
    """Search box [-radius, radius]^n."""

    __slots__ = ("radius",)

    def __init__(self, radius: int):
        if radius < 1:
            raise ValueError("box radius must be positive")
        super().__init__(radius)


def solution_bound(instance: IlpInstance) -> BoxBound:
    """Certified radius: the smaller of two classical magnitude bounds.

    A feasible instance has a feasible point with every coordinate in
    [-B, B]; a finite optimum and, for an unbounded objective, an integer
    recession ray are attained there too.  Papadimitriou's bound (JACM
    1981) is n * (m*a)^(2m+1), a = max(coefficient bound, 1).  The bound of
    Cook, Gerards, Schrijver and Tardos (Math. Programming 1986; Schrijver,
    Theory of Linear and Integer Programming, Thm. 17.1) is (n+1) * Delta,
    Delta the largest absolute subdeterminant of [A b].  By Hadamard's
    inequality Delta is at most the product of the Euclidean norms of the
    nonzero rows of [A b], and at most that of its nonzero columns, so
    isqrt of the smaller squared product, plus one, bounds Delta in exact
    integers.  Without rows only the first bound applies.
    """
    n = instance.n_variables
    m = instance.n_constraints
    a = max(max_abs_coefficient(instance), 1)
    bound = max(1, n * (m * a) ** (2 * m + 1))
    if m:
        # squared norms; every row has a term, but b can be a zero column,
        # which is in no nonzero subdeterminant
        rows_sq, b_sq, cols_sq = 1, 0, {}
        for row in instance.constraints:
            row_sq = row.rhs * row.rhs
            b_sq += row_sq
            for v, c in row.terms:
                row_sq += c * c
                cols_sq[v] = cols_sq.get(v, 0) + c * c
            rows_sq *= row_sq
        delta_sq = min(rows_sq, math.prod(cols_sq.values()) * (b_sq or 1))
        bound = min(bound, (n + 1) * (math.isqrt(delta_sq) + 1))
    return BoxBound(bound)


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
    """Instance compiled to index-based rows for the propagation loop.

    Under propagate, the rows that ``presolve._presolve_rows`` derives
    join the instance's rows in the instance's canonical row order, and the
    search branches on the narrowest domain (min_domain, see _dive).
    """

    __slots__ = (
        "ids", "rows", "obj", "cut_terms", "cut_gcd", "lo_readers", "hi_readers",
        "n", "rows_contradict", "cut_opposite", "equalities", "var_eqs", "min_domain",
    )

    def __init__(self, instance: IlpInstance, propagate: bool = False):
        self.min_domain = propagate
        self.ids = instance.ids()
        index = {v: j for j, v in enumerate(self.ids)}
        self.n = n = len(self.ids)
        self.obj = obj = [0] * n
        for v, c in instance.objective.terms:
            obj[index[v]] = c
        # value-threshold cut: -obj . x <= -t, kept as a separate row shape
        self.cut_gcd = max(math.gcd(*(abs(c) for c in obj), 0), 1)
        self.cut_terms = cut_terms = tuple(
            (j, -c // self.cut_gcd) for j, c in enumerate(obj) if c != 0
        )
        # ids ascend with the index, so these rows keep the instance's sorted
        # order and their terms stay sorted by index: a row's terms serve as
        # its key in tightest as they stand
        raw = [
            (tuple((index[v], c) for v, c in row.terms), row.rhs)
            for row in instance.constraints
        ]
        rows = [_primitive(terms, rhs) for terms, rhs in raw]
        if propagate:
            from .presolve import _presolve_rows  # compiled only by --propagate solves

            # the derived rows take their places in sorted(extra | raw), and
            # like every row are made primitive after that sort
            raw = sorted({*raw, *_presolve_rows(rows, obj)})
            rows = [_primitive(terms, rhs) for terms, rhs in raw]
        self.rows = rows

        # The rows whose floor sum reads lo[j] (x_j has a positive
        # coefficient) and hi[j] (a negative one): _propagate requeues only
        # those when that bound moves.  A row over one variable bounds it by
        # its rhs alone, so after one pass it never tightens again and is
        # listed in neither.  The value cut is listed as row len(rows), by
        # the same rule.
        self.lo_readers = lo_readers = [[] for _ in range(n)]
        self.hi_readers = hi_readers = [[] for _ in range(n)]
        # Two rows a.x <= b1, -a.x <= b2 with b1 + b2 < 0 are a complete
        # infeasibility proof, and interval propagation, converging one unit
        # per pass on such a pair, never finishes it over a certified box.
        # Rows are gcd-normalized, so every proportional pair is exactly
        # opposite: index the tightest rhs per direction once, and leave each
        # dive only its own cut row to check against the index.
        tightest = {}
        for ri, (terms, rhs) in enumerate(rows):
            if len(terms) > 1:
                for j, c in terms:
                    (lo_readers if c > 0 else hi_readers)[j].append(ri)
            if tightest.get(terms, rhs) >= rhs:
                tightest[terms] = rhs
        if len(cut_terms) > 1:
            for j, c in cut_terms:
                (lo_readers if c > 0 else hi_readers)[j].append(len(rows))
        # a.x = b, once per pair: the row whose first coefficient is positive;
        # a contradicting pair also has exactly one such row
        self.rows_contradict = False
        self.equalities = []
        for key, rhs in tightest.items():
            if key[0][1] > 0:
                opposite = tightest.get(_opposite(key))
                if opposite is not None:
                    if rhs + opposite < 0:
                        self.rows_contradict = True
                    elif rhs + opposite == 0:
                        self.equalities.append((key, rhs))
        self.cut_opposite = tightest.get(_opposite(cut_terms))
        self.var_eqs = [[] for _ in range(n)]
        for ei, (terms, _) in enumerate(self.equalities):
            for j, _ in terms:
                self.var_eqs[j].append(ei)


def _opposite(terms) -> tuple[tuple[int, int], ...]:
    return tuple((j, -c) for j, c in terms)


def _crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """x = r1 (mod m1) and x = r2 (mod m2) as one class (r, lcm), or None."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    step = m2 // g
    k = (r2 - r1) // g * pow(m1 // g, -1, step) % step
    return (r1 + m1 * k) % (m1 * step), m1 * step


def _implied_classes(terms, rhs: int, lo: list[int], hi: list[int]):
    """Classes (j, r, m), meaning x_j = r (mod m > 1), implied by a.x = rhs.

    With exactly two unfixed variables the row reads c_x x + c_y y = rest,
    and with g = gcd(c_x, c_y) it puts x in the class of
    (rest/g) * (c_x/g)^-1 modulo |c_y|/g, and y likewise.  Otherwise there
    is nothing to derive ([]).  None when the row cannot hold.
    """
    free = []
    for j, c in terms:
        if lo[j] < hi[j]:
            free.append((j, c))
        else:
            rhs -= c * lo[j]
    if len(free) != 2:
        return None if not free and rhs != 0 else []
    (x, cx), (y, cy) = free
    g = math.gcd(cx, cy)
    if rhs % g:
        return None
    return [
        (j, rhs // g * pow(c // g, -1, m) % m, m)
        for j, c, m in ((x, cx, abs(cy) // g), (y, cy, abs(cx) // g))
        if m > 1
    ]


def _propagate(
    program: _SearchProgram,
    lo: list[int],
    hi: list[int],
    classes: dict[int, tuple[int, int]],
    cut_rhs: int | None,
    branched: int | None = None,
) -> bool | None:
    """Tighten [lo, hi] and the residue classes toward their fixpoint.
    None iff infeasible; otherwise whether the fixpoint was reached (False
    when the update cap stopped the pass first).

    classes[j] = (r, m) means x_j = r (mod m); a variable without an entry
    has m = 1.  Rows tighten interval bounds.  Each time the row queue
    drains, one queued equality adds the classes _implied_classes derives,
    each joined with the variable's class by the Chinese remainder
    theorem, and every bound snaps into its variable's class.  Rows alone
    meet such congruences one at a time and walk a variable from residue
    to residue.  The update cap stops whatever creep remains on huge
    boxes; stopping early is sound because propagation only ever narrows.

    A moved bound requeues only the rows whose floor sum reads it (see
    _SearchProgram.lo_readers), and x_j's equalities only once x_j is fixed:
    _implied_classes reads only the fixed variables.  A row's pass moves
    only bounds its own floor sum does not read, so the row never needs to
    run again for its own moves.  branched=j says the state is a fixpoint of
    the same rows and cut except for x_j's domain, so only what reads x_j is
    queued; None queues everything.
    """
    rows = program.rows
    cut_row = len(rows)  # the cut's index in the reader lists
    has_cut = cut_rhs is not None and bool(program.cut_terms)
    n_rows = cut_row + has_cut
    budget = 4 * n_rows + 8 * program.n + 32
    equalities = program.equalities
    lo_readers, hi_readers, var_eqs = program.lo_readers, program.hi_readers, program.var_eqs

    def wake(j: int, readers: list[int]) -> None:
        # the row loop below inlines this
        for other in readers:
            if not queued[other]:
                queued[other] = 1
                queue.append(other)
        if lo[j] == hi[j]:
            for ei in var_eqs[j]:
                if not eq_queued[ei]:
                    eq_queued[ei] = 1
                    eq_queue.append(ei)

    if branched is None:
        queue = deque(range(n_rows))
        queued = bytearray(b"\x01") * (cut_row + 1)
        eq_queue = deque(range(len(equalities)))
        eq_queued = bytearray(b"\x01") * len(equalities)
    else:
        queue, queued = deque(), bytearray(cut_row + 1)
        # without a cut its entry reads as queued, so it is never queued
        queued[cut_row] = not has_cut
        eq_queue, eq_queued = deque(), bytearray(len(equalities))
        wake(branched, lo_readers[branched] + hi_readers[branched])

    while queue or eq_queue:
        if not queue:
            ei = eq_queue.popleft()
            eq_queued[ei] = 0
            implied = _implied_classes(*equalities[ei], lo, hi)
            if implied is None:
                return None
            for j, r, m in implied:
                joined = _crt(*classes.get(j, (0, 1)), r, m)
                if joined is None:
                    return None
                r, m = classes[j] = joined
                new_lo = lo[j] + (r - lo[j]) % m
                new_hi = hi[j] - (hi[j] - r) % m
                if new_lo > new_hi:
                    return None
                rose, fell = new_lo != lo[j], new_hi != hi[j]
                if rose or fell:
                    lo[j], hi[j] = new_lo, new_hi
                    budget -= 1
                    if budget <= 0:
                        return False
                    if rose:
                        wake(j, lo_readers[j])
                    if fell:
                        wake(j, hi_readers[j])
            continue
        ri = queue.popleft()
        queued[ri] = 0
        terms, slack = rows[ri] if ri != cut_row else (program.cut_terms, cut_rhs)
        for j, c in terms:
            slack -= c * lo[j] if c > 0 else c * hi[j]
        if slack < 0:
            return None
        # x_j's own floor term leaves it slack // |c| of room
        for j, c in terms:
            if c > 0:
                new_hi = lo[j] + slack // c
                if new_hi >= hi[j]:
                    continue
                if j in classes:
                    r, m = classes[j]
                    new_hi -= (new_hi - r) % m
                hi[j] = new_hi
                readers = hi_readers[j]
            else:
                new_lo = hi[j] - slack // -c
                if new_lo <= lo[j]:
                    continue
                if j in classes:
                    r, m = classes[j]
                    new_lo += (r - new_lo) % m
                lo[j] = new_lo
                readers = lo_readers[j]
            if lo[j] > hi[j]:
                return None
            budget -= 1
            if budget <= 0:
                return False
            for other in readers:
                if not queued[other]:
                    queued[other] = 1
                    queue.append(other)
            if lo[j] == hi[j]:
                for ei in var_eqs[j]:
                    if not eq_queued[ei]:
                        eq_queued[ei] = 1
                        eq_queue.append(ei)
    return True


def _pick_branch_var(
    program: _SearchProgram, lo: list[int], hi: list[int], start: int
) -> int | None:
    """The narrowest unfixed variable under min_domain, else the lowest-id
    one; every variable below start is known to be fixed."""
    if program.min_domain:
        best_j, best_w = None, None
        for j in range(program.n):
            w = hi[j] - lo[j]
            if w > 0 and (best_w is None or w < best_w):
                best_j, best_w = j, w
        return best_j
    for j in range(start, program.n):
        if lo[j] < hi[j]:
            return j
    return None


def _dive(
    program: _SearchProgram, radius: int, threshold: int | None
) -> tuple[list[int], int] | None:
    """First leaf of {rows, obj >= threshold} in the fixed leaf order.

    The leaf order is: branch on the lowest-id unfixed variable (narrowest
    domain under the program's min_domain), higher values first exactly when
    the variable's objective coefficient is positive.  Every variable below
    the lowest-id unfixed one is fixed, so in that mode the first leaf is
    the lexicographically first feasible point whatever the split points
    are; the split tries the preferred endpoint alone before bisecting the
    rest, which finds a bound that propagation already reached in one node
    instead of one node per bit of the radius.  Under min_domain the
    branch variable depends on the domain widths, so that mode keeps
    plain bisection, and with it its leaf order.
    """
    if radius < 0:
        raise ValueError("box radius must be non-negative")
    n = program.n
    cut_rhs = None if threshold is None else (-threshold) // program.cut_gcd
    if program.rows_contradict:
        return None
    if cut_rhs is not None and program.cut_opposite is not None:
        if cut_rhs + program.cut_opposite < 0:
            return None
    # a node: its parent's lo, hi and residue classes (see _propagate), the
    # propagation seed (None at the root and below a cap exit), and the
    # sub-domain [a, b] of the parent's branch variable j (None at the
    # root).  A child copies the parent's state when it is popped, since a
    # class derived from a child's fixed values does not hold for its
    # siblings; the parent's state is not written after its children are
    # pushed, so the children a dive never pops copy nothing
    stack = [([-radius] * n, [radius] * n, {}, None, None, 0, 0)]
    while stack:
        lo, hi, classes, branched, j, a, b = stack.pop()
        if j is not None:
            lo, hi, classes = list(lo), list(hi), dict(classes)
            lo[j], hi[j] = a, b
        done = _propagate(program, lo, hi, classes, cut_rhs, branched=branched)
        if done is None:
            continue
        # under lowest-id branching every variable below the parent's branch
        # variable is fixed; after a cap exit (no seed) the scan starts at 0
        j = _pick_branch_var(program, lo, hi, branched or 0)
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
        up = program.obj[j] > 0
        first, last = lo[j], hi[j]
        parts = []  # sub-domains of x_j in leaf order
        if not program.min_domain:
            if up:
                parts.append((last, last))
                last -= 1
            else:
                parts.append((first, first))
                first += 1
        mid = (first + last) // 2
        halves = [(first, mid), (mid + 1, last)]
        parts += [h for h in (halves[::-1] if up else halves) if h[0] <= h[1]]
        r, m = classes.get(j, (0, 1))
        # a child differs from this node only in x_j, so after a fixpoint it
        # re-propagates only what reads x_j; after a cap exit, everything
        seed = j if done else None
        for a, b in reversed(parts):
            a, b = a + (r - a) % m, b - (b - r) % m
            if a <= b:
                stack.append((lo, hi, classes, seed, j, a, b))
    return None


def _maximize(
    program: _SearchProgram, radius: int, hit: tuple[list[int], int]
) -> tuple[list[int], int]:
    """Search on the objective value upward from a first-feasible dive.

    Each probe asks for the first leaf satisfying the rows plus obj >= t.
    The probes start from the top: the objective's maximum over the box
    that propagating every row (no cut) leaves, which is sound because
    propagation removes only points that break a row.  They gallop down
    (top, top-1, top-3, top-7, ...) to the first success and bisect between
    it and the last failure, so their count follows log2(top - optimum),
    not the bit length of the radius.  The certificate is the first
    optimum in the fixed leaf order.  Under lowest-id branching that is the
    last successful probe's point: it is the lexicographically first point
    of value >= t for some t <= optimum, and its value is the optimum.
    Under min_domain the tree depends on the cut, so one more dive runs at
    the optimum itself.
    """
    if not program.cut_terms:
        return hit
    box_lo, box_hi = [-radius] * program.n, [radius] * program.n
    _propagate(program, box_lo, box_hi, {}, None)
    top = sum(c * (box_hi[j] if c > 0 else box_lo[j]) for j, c in enumerate(program.obj) if c)
    # lo is reached and every value above hi is refuted
    lo, hi, t, drop = hit[1], top, top, 1
    while t > lo:
        probe = _dive(program, radius, t)
        if probe is not None:
            hit = probe
            lo = probe[1]
            break
        hi, t, drop = t - 1, t - drop, 2 * drop
    while lo < hi:
        mid = lo + (hi - lo + 1) // 2
        probe = _dive(program, radius, mid)
        if probe is None:
            hi = mid - 1
        else:
            hit = probe
            lo = probe[1]
    if program.min_domain:
        hit = _dive(program, radius, lo)
    return hit


def bounded_search(instance: IlpInstance, radius: int) -> SolveOutcome:
    """Exact maximum over the box [-radius, radius]^n, or infeasible-in-box.
    Never unbounded.

    The first optimum in the fixed leaf order (see _dive and _maximize).
    """
    program = _SearchProgram(instance)
    hit = _dive(program, radius, None)
    if hit is None:
        return SolveOutcome(INFEASIBLE)
    point, value = _maximize(program, radius, hit)
    return SolveOutcome(OPTIMAL, value, dict(zip(program.ids, point)))


# ---------------------------------------------------------------------------
# unboundedness


def detect_unbounded(instance: IlpInstance) -> dict[int, int] | None:
    """An integer point of the recession system {A d <= 0, obj . d >= 1},
    keyed by variable id, or None when it has none.

    For a feasible instance such a ray exists exactly when the objective is
    unbounded: it can be added to a feasible point forever, and conversely
    an unbounded rational ray scales to one.
    """
    if instance.objective.is_zero():
        return None
    rows = [LinearConstraint(c.terms, 0) for c in instance.constraints]
    # the objective's terms are sorted, merged and nonzero, so this row is canonical
    rows.append(LinearConstraint(tuple((v, -c) for v, c in instance.objective.terms), -1))
    recession = IlpInstance(instance.variables, rows, instance.objective)
    radius = solution_bound(recession).radius
    program = _SearchProgram(recession)
    hit = _dive(program, radius, None)
    return None if hit is None else dict(zip(program.ids, hit[0]))


# ---------------------------------------------------------------------------
# outer solve layers


def _parts(instance: IlpInstance) -> list[IlpInstance]:
    """The instance split into parts that share no row, in order of their
    lowest variable id; [instance] itself when it does not split."""
    root = {v: v for v in instance.ids()}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for row in instance.constraints:
        first = find(row.terms[0][0])
        for v, _ in row.terms[1:]:
            root[find(v)] = first
    parts = {}  # root -> (variables, rows, objective terms)
    for var in instance.variables:
        parts.setdefault(find(var.id), ([], [], []))[0].append(var)
    if len(parts) < 2:
        return [instance]
    for row in instance.constraints:
        parts[find(row.terms[0][0])][1].append(row)
    for term in instance.objective.terms:
        parts[find(term[0])][2].append(term)
    return [IlpInstance(vs, rows, LinearObjective(tuple(obj))) for vs, rows, obj in parts.values()]


def solve_core(
    instance: IlpInstance,
    *,
    propagate: bool = False,
    bound: int | None = None,
) -> SolveOutcome:
    """Infeasible / Unbounded / Optimal on one instance, no kernelization.

    Parts that share no row (see _parts) are searched one by one, each in
    the instance's certified box: the instance is infeasible when one part
    is, unbounded when every part is feasible and one has a recession ray,
    and its optimum is the sum of the parts' optima.  Under lowest-id
    branching the joined point is the instance's first optimum in the leaf
    order, since that order prefers each variable's values on their own.
    A user-supplied bound below the certified radius turns an
    infeasible-in-box verdict into bound_exhausted.  The maximum found in
    such a box is optimal only when no point of the certified box beats
    it; otherwise it is reported as box_optimal.
    """
    certified = solution_bound(instance).radius
    radius = certified if bound is None else bound
    searched = []
    for part in _parts(instance):
        program = _SearchProgram(part, propagate)
        hit = _dive(program, radius, None)
        if hit is None:
            return SolveOutcome(BOUND_EXHAUSTED if radius < certified else INFEASIBLE)
        searched.append((part, program, hit))

    # the rays first: on an unbounded objective the probes chase a maximum that does not exist
    for part, _, _ in searched:
        ray = detect_unbounded(part)
        if ray is not None:
            # checked like an assignment, on its part: A d <= 0 and obj . d >= 1
            if part.objective.evaluate(ray) < 1 or any(
                row.evaluate(ray) > 0 for row in part.constraints
            ):
                raise InternalError("search returned an invalid recession ray")
            return SolveOutcome(UNBOUNDED)

    status, value, assignment = OPTIMAL, 0, {}
    for _, program, hit in searched:
        if program.cut_terms:
            hit = _maximize(program, radius, hit)
            if radius < certified and _dive(program, certified, hit[1] + 1) is not None:
                status = BOX_OPTIMAL
        value += hit[1]
        assignment.update(zip(program.ids, hit[0]))
    outcome = SolveOutcome(status, value, assignment)

    if not check_feasible(instance, outcome.assignment):
        raise InternalError("search returned an infeasible point")
    if evaluate_objective(instance, outcome.assignment) != outcome.value:
        raise InternalError("search returned an inconsistent objective value")
    return outcome


class PipelineInfo(Record):
    """Side facts about a solve, for reporting; td_mode is "given" or "dfs"."""

    __slots__ = ("td_mode", "kernel", "trace")


def solve_pipeline(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition | None = None,
    *,
    propagate: bool = False,
    bound: int | None = None,
) -> tuple[SolveOutcome, PipelineInfo]:
    """kernelize -> core solve -> lift, along the given decomposition
    ("given") or the DFS forest ("dfs"); kernelize checks it."""
    td_mode = "dfs" if decomposition is None else "given"
    kernel, _, trace = kernelize(instance, decompose(instance, decomposition))
    core = solve_core(kernel, propagate=propagate, bound=bound)

    lifted = core.assignment
    if lifted is not None:
        lifted = lift_solution(trace, lifted)
        if set(lifted) != set(instance.ids()):
            raise InternalError("lifted assignment does not cover the instance")
        if not check_feasible(instance, lifted):
            raise InternalError("lifted assignment violates a constraint")
        if evaluate_objective(instance, lifted) != core.value:
            raise InternalError("lifting changed the objective value")

    outcome = SolveOutcome(core.status, core.value, lifted, kernel.n_variables, instance.n_variables)
    return outcome, PipelineInfo(td_mode, kernel, trace)


def solve(
    instance: IlpInstance,
    decomposition: TreedepthDecomposition | None = None,
    **options,
) -> SolveOutcome:
    return solve_pipeline(instance, decomposition, **options)[0]
