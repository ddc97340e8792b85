"""Exact solve: box bound, search, unboundedness, and the full pipeline."""

import math
import random
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdilp import (
    BoxBound,
    IlpError,
    InstanceBuilder,
    SolveOutcome,
    TreedepthDecomposition,
    parse_instance,
    solution_bound,
    solve,
    solve_core,
    solve_pipeline,
)
import tdilp.kernelizer
import tdilp.presolve
import tdilp.solver
import tdilp.structure
from tdilp.cli import run
from tdilp.instance import InternalError, check_feasible, evaluate_objective, max_abs_coefficient
from tdilp.oracle import brute_force_ilp, brute_three_coloring, brute_vertex_cover, has_recession_ray
from tdilp.reductions import reduce_three_coloring, reduce_vertex_cover
from tdilp.solver import (
    _crt,
    _dive,
    _maximize,
    _propagate,
    _SearchProgram,
    _undo,
    bounded_search,
    detect_unbounded,
)
from tdilp.structure import ROOT, build_primal_graph, compute_treedepth_exact

from conftest import (
    all_graphs,
    boxed_chain,
    complete_graph,
    cycle_graph,
    deadline,
    deep_twin_paths,
    odd_wheel,
    petersen,
    run_in_child,
)


def _parse(text):
    return parse_instance(text)


def test_solution_bound_values():
    # the smaller of n * (m*a)^(2m+1) and (n+1) * (isqrt(min(prod_rows
    # |r|^2, prod_cols |c|^2)) + 1) over the nonzero rows and columns of [A b]
    ins = _parse("max: x\nx <= 1\n")
    assert solution_bound(ins).radius == 1  # 1 * (1*1)^3 against 2 * (1 + 1)
    # rows [1 5]: 26; columns 1 and 25: 25; so 2 * (5 + 1), not 1 * 5^3
    assert solution_bound(_parse("max: x\nx <= 5\n")).radius == 12
    # columns: x 3, b 25 + 25 + 16: 2 * (isqrt(198) + 1)
    assert solution_bound(_parse("max: x\nx <= 5\n-x <= 5\nx <= 4\n")).radius == 30
    # rows 4 + 4 + 4 = 12 beat columns 4 * 4 * 4: 3 * (isqrt(12) + 1)
    assert solution_bound(_parse("max: x\n2 x + 2 y <= 2\n")).radius == 12
    # no constraints: falls back to the minimum box
    assert solution_bound(_parse("max: x\n")).radius == 1


def _papadimitriou_bound(instance):
    """The radius before the Hadamard bound joined it."""
    n, m = instance.n_variables, instance.n_constraints
    a = max(max_abs_coefficient(instance), 1)
    return BoxBound(max(1, n * (m * a) ** (2 * m + 1)))


@st.composite
def free_rows(draw):
    """1-4 rows over 1-2 unboxed variables, so verdicts include unbounded.
    Drawn over 1-3 variables, 9 of 500 such instances ran past 5 s under
    the old radius; over 1-2, every draw finishes in milliseconds."""
    n = draw(st.integers(min_value=1, max_value=2))
    b = InstanceBuilder()
    names = [b.var(f"v{i}") for i in range(n)]
    coefficient = st.integers(min_value=-2, max_value=2)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        coeffs = {name: draw(coefficient) for name in names}
        if all(c == 0 for c in coeffs.values()):
            coeffs[names[0]] = 1
        b.add_le(coeffs, draw(st.integers(min_value=-4, max_value=4)))
    b.set_objective({name: draw(coefficient) for name in names})
    return b.build()


@given(free_rows())
@settings(max_examples=150, deadline=None)
def test_hadamard_radius_keeps_verdicts_and_values(ins):
    new = solve_core(ins)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tdilp.solver, "solution_bound", _papadimitriou_bound)
        old = solve_core(ins)
    assert (new.status, new.value) == (old.status, old.value)
    if new.status != "infeasible" and not ins.objective.is_zero():
        assert (new.status == "unbounded") == has_recession_ray(ins)


def test_box_bound_validation():
    with pytest.raises(ValueError):
        BoxBound(0)
    with pytest.raises(AttributeError):
        BoxBound(3).radius = 5


def test_outcome_validation():
    with pytest.raises(ValueError):
        SolveOutcome("maybe")
    with pytest.raises(ValueError):
        SolveOutcome("optimal", 3)
    with pytest.raises(ValueError):
        SolveOutcome("infeasible", None, {0: 1})
    with pytest.raises(AttributeError):
        SolveOutcome("infeasible").status = "optimal"
    assert SolveOutcome("optimal", 3, {0: 3}) == SolveOutcome("optimal", 3, {0: 3})
    assert SolveOutcome("optimal", 3, {0: 3}) != SolveOutcome("optimal", 3, {0: 3}, 1, 1)
    assert hash(SolveOutcome("infeasible")) == hash(SolveOutcome("infeasible"))


def test_simple_maximum():
    out = solve_core(_parse("max: x\nx <= 5\n"))
    assert out.status == "optimal"
    assert out.value == 5
    assert out.assignment == {0: 5}


def test_integrality_rounding():
    out = solve_core(_parse("max: x\n2 x <= 3\n"))
    assert out.value == 1
    assert out.assignment == {0: 1}


def test_infeasible():
    out = solve_core(_parse("max: x\nx <= 0\n-x <= -1\n"))
    assert out.status == "infeasible"


def test_unbounded():
    out = solve_core(_parse("max: x\n-x <= 0\n"))
    assert out.status == "unbounded"


def test_zero_objective_never_unbounded():
    out = solve_core(_parse("max: 0\n-x <= 0\n"))
    assert out.status == "optimal"
    assert out.value == 0


def test_empty_instance():
    out = solve_core(_parse("max: 0\n"))
    assert out.status == "optimal"
    assert out.value == 0
    assert out.assignment == {}


def test_two_variable_sum():
    out = solve_core(_parse("max: x + y\nx <= 2\ny <= 3\n-x <= 0\n-y <= 0\n"))
    assert out.value == 5
    assert out.assignment == {0: 2, 1: 3}


def test_detect_unbounded_directly():
    # the recession dive's point, keyed by id: -d <= 0 and d >= 1 hold, and x
    # has a positive objective coefficient, so the dive takes the box's top
    assert detect_unbounded(_parse("max: x\n-x <= 0\n")) == {0: 4}
    assert detect_unbounded(_parse("max: x\nx <= 5\n")) is None
    assert detect_unbounded(_parse("max: 0\n-x <= 0\n")) is None


@pytest.mark.parametrize("corrupt", [
    lambda ray: dict.fromkeys(ray, 0),  # obj . d = 0
    lambda ray: {**ray, 1: 0},  # x - y = d_x > 0
], ids=["objective", "row"])
def test_a_corrupt_recession_ray_is_an_internal_error(monkeypatch, tmp_path, capsys, corrupt):
    text = "max: x\nx - y <= 0\n"
    ray = detect_unbounded(_parse(text))
    assert ray[0] >= 1 and ray[0] - ray[1] <= 0
    monkeypatch.setattr(tdilp.solver, "detect_unbounded", lambda ins: corrupt(ray))
    with pytest.raises(InternalError, match="recession ray"):
        solve_core(_parse(text))
    path = tmp_path / "ray.ilp"
    path.write_text(text)
    assert run(["solve", str(path)]) == 4
    assert capsys.readouterr().out == ""


def test_bounded_search_within_explicit_box():
    ins = _parse("max: x\nx <= 9\n")
    assert bounded_search(ins, 3).value == 3
    assert bounded_search(ins, 20).value == 9


def test_user_bound_semantics():
    ins = _parse("max: x\nx <= 5\n")
    # certified radius is 12; a too-small box that still contains the
    # optimum stays optimal
    assert solve_core(ins, bound=5).value == 5
    # a box that misses every feasible point of a feasible instance is
    # reported as exhausted, not infeasible
    tight = _parse("max: x\nx <= 40\n-x <= -30\n")
    out = solve_core(tight, bound=7)
    assert out.status == "bound_exhausted"
    assert solve_core(tight).value == 40


def test_box_maximum_beaten_outside_the_box():
    ins = _parse("max: x\nx <= 5\n")
    out = solve_core(ins, bound=1)
    assert (out.status, out.value, out.assignment) == ("box_optimal", 1, {0: 1})
    # the pipeline lifts a box incumbent like an optimum
    piped = solve(_parse("max: z\nz <= 5\nz - a1 <= 0\nz - a2 <= 0\n"), bound=2)
    assert (piped.status, piped.value, len(piped.assignment)) == ("box_optimal", 2, 3)


@pytest.mark.parametrize("text, calls", [
    ("max: 0\nx <= 5\n", 1),
    ("max: x\nx <= 1\n-x <= -2\n", 1),  # infeasible
    ("max: x\nx <= 5\n", 2),  # the kernel, then its recession system
    ("max: x\n-x <= 0\n", 2),  # unbounded
])
def test_one_certified_radius_per_system(monkeypatch, text, calls):
    counted = []
    real = tdilp.solver.solution_bound

    def counting(instance):
        counted.append(None)
        return real(instance)

    monkeypatch.setattr(tdilp.solver, "solution_bound", counting)
    solve_pipeline(_parse(text))
    assert len(counted) == calls


def test_pipeline_two_blocks():
    text = (
        "max: z\n"
        "z <= 5\n"
        "z - a1 <= 0\n"
        "a1 <= 4\n"
        "z - a2 <= 0\n"
        "a2 <= 4\n"
    )
    ins = _parse(text)
    outcome, info = solve_pipeline(ins)
    assert outcome.status == "optimal"
    assert outcome.value == 4
    assert outcome.kernel_vars == 2
    assert outcome.original_vars == 3
    assert len(info.trace) == 1
    assert check_feasible(ins, outcome.assignment)
    assert evaluate_objective(ins, outcome.assignment) == 4


def test_pipeline_accepts_supplied_decomposition():
    ins = _parse("max: z\nz - a1 <= 0\na1 <= 4\nz - a2 <= 0\na2 <= 4\n")
    dec = TreedepthDecomposition({2: ROOT, 0: 2, 1: 2})
    outcome, info = solve_pipeline(ins, dec)
    assert outcome.value == 4
    assert info.td_mode == "given"


@pytest.mark.parametrize("parent", [
    {0: ROOT, 1: ROOT, 2: 0},  # z (id 2) and a2 (id 1) are not vertical
    {2: ROOT, 0: 2},  # a2 is missing
])
def test_pipeline_rejects_bad_decomposition(parent):
    ins = _parse("max: z\nz - a1 <= 0\na1 <= 4\nz - a2 <= 0\na2 <= 4\n")
    with pytest.raises(IlpError):
        solve_pipeline(ins, TreedepthDecomposition(parent))


def test_decomposition_is_checked_once_per_solve(monkeypatch):
    # decompose picks the decomposition and kernelize checks it on its own row
    # index: a given witness costs no primal graph, the DFS forest one to build
    # it, and neither runs the graph-based verify
    calls = {"build": 0, "verify": 0}
    real_build = tdilp.structure.build_primal_graph
    real_verify = tdilp.structure.verify_treedepth_decomposition

    def build(instance):
        calls["build"] += 1
        return real_build(instance)

    def verify(graph, decomposition):
        calls["verify"] += 1
        return real_verify(graph, decomposition)

    for name in ("build_primal_graph", "verify_treedepth_decomposition"):
        assert not hasattr(tdilp.kernelizer, name)
    monkeypatch.setattr(tdilp.structure, "build_primal_graph", build)
    monkeypatch.setattr(tdilp.structure, "verify_treedepth_decomposition", verify)
    ins = _parse("max: z\nz - a1 <= 0\na1 <= 4\nz - a2 <= 0\na2 <= 4\n")
    witness = TreedepthDecomposition({2: ROOT, 0: 2, 1: 2})
    assert solve_pipeline(ins, witness)[1].td_mode == "given"
    assert calls == {"build": 0, "verify": 0}
    assert solve_pipeline(ins)[1].td_mode == "dfs"
    assert calls == {"build": 1, "verify": 0}


def test_solve_with_and_without_kernel_agree():
    ins = _parse("max: z\nz - a1 <= 0\na1 <= 4\nz - a2 <= 0\na2 <= 4\n")
    with_kernel = solve(ins)
    without = solve_core(ins)
    assert with_kernel.status == without.status == "optimal"
    assert with_kernel.value == without.value == 4
    assert with_kernel.assignment == without.assignment
    assert with_kernel.kernel_vars == 2


def test_certificates_match_oracle_order():
    # ties on the objective: the solver's flipped leaf order is the
    # contract, and the oracle implements the same order independently
    ins = _parse("max: x + y\nx + y <= 0\n")
    out = solve_core(ins, bound=3)
    ora = brute_force_ilp(ins, box=3)
    assert out.value == ora.value == 0
    assert out.assignment == ora.assignment == {0: 3, 1: -3}


def test_propagate_solves_remainder_pattern():
    # g = 5m + r with 0 <= r <= 4 and g pinned to 17 forces (m, r) = (3, 2)
    text = (
        "max: r\n"
        "g - 5 m - r = 0\n"
        "-r <= 0\n"
        "r <= 4\n"
        "-m <= 0\n"
        "g <= 17\n"
        "-g <= -17\n"
    )
    ins = _parse(text)
    plain = solve_core(ins)
    assisted = solve_core(ins, propagate=True)
    assert plain.status == assisted.status == "optimal"
    assert plain.value == assisted.value == 2
    assert assisted.assignment[ins.id_of("r")] == 2
    assert assisted.assignment[ins.id_of("m")] == 3


def test_propagate_agrees_on_infeasible_remainder():
    # g fixed to 7 but g = 3m and m >= 0 has no solution with r = 0 slack
    text = "max: 0\ng - 3 m = 0\n-m <= 0\ng <= 7\n-g <= -7\n"
    ins = _parse(text)
    assert solve_core(ins).status == "infeasible"
    assert solve_core(ins, propagate=True).status == "infeasible"


def test_outcome_json_shape():
    ins = _parse("max: x\nx <= 5\n")
    out = solve(ins)
    import json

    doc = json.loads(out.to_json())
    assert doc["status"] == "optimal"
    assert doc["value"] == 5
    assert doc["assignment"] == {"0": 5}
    assert doc["kernel_vars"] == 1
    assert doc["original_vars"] == 1
    named = json.loads(out.to_json(name_of=ins.name_of))
    assert named["assignment"] == {"x": 5}


# names that json.dumps escapes: quotes, backslashes, the short escapes,
# other control characters, DEL, non-ASCII, non-BMP and a lone surrogate
_NAME_CHARS = '"\\\b\f\n\r\t\x00\x01\x1f ~\x7f\x80\u00e9\u2028\uffff\U00010000\U0010ffff\ud800'
_names = st.one_of(
    st.text(max_size=6),
    st.text(st.sampled_from('ab "\\~'), max_size=6),  # printable ASCII only
    st.text(st.sampled_from(_NAME_CHARS), max_size=6),
)
# past the 4,300 digits that int <-> str allows by default
_huge = st.builds(lambda digits, sign: sign * (10**digits - 3), st.integers(4300, 4400), st.sampled_from([1, -1]))
_ints = st.one_of(st.integers(), _huge)


@st.composite
def outcomes_and_names(draw):
    status = draw(st.sampled_from(["optimal", "infeasible", "unbounded", "bound_exhausted", "box_optimal"]))
    value = assignment = None
    if status in ("optimal", "box_optimal"):
        value = draw(_ints)
        assignment = draw(st.dictionaries(st.integers(0, 40), _ints, max_size=5))
    counts = st.one_of(st.none(), st.integers(0, 10**6))
    outcome = SolveOutcome(status, value, assignment, draw(counts), draw(counts))
    name_of = None
    if assignment is not None and draw(st.booleans()):
        keys = sorted(assignment)
        name_of = dict(zip(keys, draw(st.lists(_names, min_size=len(keys), max_size=len(keys))))).get
    return outcome, name_of


@given(outcomes_and_names())
@settings(max_examples=300, deadline=None)
def test_outcome_json_is_the_bytes_of_json_dumps(drawn):
    import json

    outcome, name_of = drawn
    name = str if name_of is None else name_of
    doc = {"status": outcome.status, "value": outcome.value, "assignment": None}
    if outcome.assignment is not None:
        doc["assignment"] = {name(k): v for k, v in sorted(outcome.assignment.items())}
    if outcome.kernel_vars is not None:
        doc["kernel_vars"] = outcome.kernel_vars
    if outcome.original_vars is not None:
        doc["original_vars"] = outcome.original_vars
    # lifted as cli.run lifts it
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert outcome.to_json(name_of=name_of) == json.dumps(doc, indent=2)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_determinism():
    text = "max: x + 2 y\nx + y <= 4\n-x <= 2\n-y <= 1\n"
    first = solve_core(_parse(text))
    second = solve_core(_parse(text))
    assert first == second


@st.composite
def boxed_instances(draw):
    """Instances whose variables all carry explicit domain rows, so a
    small oracle box is exact."""
    n = draw(st.integers(min_value=1, max_value=3))
    b = InstanceBuilder()
    names = [b.var(f"v{i}") for i in range(n)]
    for name in names:
        b.add_le({name: 1}, 2)
        b.add_ge({name: 1}, -2)
    extra = draw(st.integers(min_value=0, max_value=2))
    for _ in range(extra):
        coeffs = {
            name: draw(st.integers(min_value=-2, max_value=2)) for name in names
        }
        if all(c == 0 for c in coeffs.values()):
            coeffs[names[0]] = 1
        b.add_le(coeffs, draw(st.integers(min_value=-2, max_value=4)))
    obj = {name: draw(st.integers(min_value=-2, max_value=2)) for name in names}
    b.set_objective(obj)
    return b.build()


@given(boxed_instances())
@settings(max_examples=60, deadline=None)
def test_solver_matches_oracle_on_boxed_instances(ins):
    got = solve_core(ins)
    want = brute_force_ilp(ins, box=2)
    assert got.status == want.status
    if got.status == "optimal":
        assert got.value == want.value
        assert got.assignment == want.assignment


@given(boxed_instances())
@settings(max_examples=30, deadline=None)
def test_pipeline_equals_core_on_boxed_instances(ins):
    core = solve_core(ins)
    piped = solve(ins)
    assert piped.status == core.status
    if core.status == "optimal":
        assert piped.value == core.value
        assert check_feasible(ins, piped.assignment)
        assert evaluate_objective(ins, piped.assignment) == core.value


@st.composite
def small_block_instances(draw):
    """A hub z beside 1-5 blocks of one or two boxed variables, each block
    drawn from at most two shapes so that twins are common, plus up to two
    rows over any variables: 2-11 variables in all."""
    b = InstanceBuilder()
    b.add_le({"z": 1}, draw(st.integers(min_value=0, max_value=6)))
    if draw(st.booleans()):
        b.add_ge({"z": 1}, -2)
    small = st.integers(min_value=-2, max_value=2)
    shape = st.tuples(st.integers(1, 2), st.integers(0, 3), st.integers(-1, 1))
    shapes = draw(st.lists(shape, min_size=1, max_size=2))
    names = ["z"]
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        size, cap, link = draw(st.sampled_from(shapes))
        block = [f"b{i}_{k}" for k in range(size)]
        for name in block:
            b.add_le({name: 1}, cap)
            b.add_ge({name: 1}, 0)
        b.add_le({"z": 1, block[0]: -1}, link)
        if size == 2:
            b.add_le({block[0]: 1, block[1]: 1}, cap)
        names += block
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        u, v = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        b.add_le({u: draw(small), v: draw(small) or 1}, draw(st.integers(-2, 4)))
    b.set_objective({"z": draw(small), draw(st.sampled_from(names)): draw(small)})
    return b.build()


@given(small_block_instances())
@settings(max_examples=80, deadline=None)
def test_exact_treedepth_changes_no_solve(ins):
    # a solve takes the DFS forest; an optimal decomposition must give it
    # the same verdict and value, and both certificates must hold
    dfs, info = solve_pipeline(ins)
    exact, _ = solve_pipeline(ins, compute_treedepth_exact(build_primal_graph(ins))[1])
    assert info.td_mode == "dfs"
    assert (dfs.status, dfs.value) == (exact.status, exact.value)
    for outcome in (dfs, exact):
        if outcome.assignment is not None:
            assert check_feasible(ins, outcome.assignment)


@st.composite
def box_programs(draw):
    """Rows over 1-5 variables searched in a small box, so the oracle sweep
    of the same box is the reference.  Some rows come as equality pairs
    over 2-3 variables with one coefficient of magnitude 2-5, so that two
    free variables fall into residue classes."""
    n = draw(st.integers(min_value=1, max_value=5))
    b = InstanceBuilder()
    names = [b.var(f"v{i}") for i in range(n)]
    coefficient = st.integers(min_value=-2, max_value=2)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        coeffs = {name: draw(coefficient) for name in names}
        if all(c == 0 for c in coeffs.values()):
            coeffs[names[0]] = 1
        b.add_le(coeffs, draw(st.integers(min_value=-3, max_value=3)))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if n > 1 else 0):
        picked = draw(st.permutations(names))[: draw(st.integers(2, min(n, 3)))]
        coeffs = {name: draw(st.sampled_from([-2, -1, 1, 2])) for name in picked}
        coeffs[picked[0]] = draw(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]))
        b.add_eq(coeffs, draw(st.integers(min_value=-3, max_value=3)))
    if draw(st.booleans()):
        b.set_objective({name: draw(coefficient) for name in names})
    return b.build(), draw(st.integers(min_value=1, max_value=2))


@given(box_programs())
@settings(max_examples=200, deadline=None)
def test_bounded_search_follows_the_oracle_leaf_order(case):
    # lowest-id branching returns the lexicographically first optimum
    # (ids ascending, values descending exactly where the objective
    # coefficient is positive) whatever its split points are
    ins, box = case
    want = brute_force_ilp(ins, box)
    got = bounded_search(ins, box)
    assert (got.status, got.value, got.assignment) == (
        want.status, want.value, want.assignment
    )
    narrow = _narrow_search(ins, box)
    assert (narrow.status, narrow.value) == (want.status, want.value)


def _narrow_search(ins, radius):
    """bounded_search on the program a --propagate solve builds: its
    presolve rows and min-domain branching."""
    program = _SearchProgram(ins, True)
    hit = _dive(program, radius, None)
    if hit is None:
        return SolveOutcome("infeasible")
    point, value = _maximize(program, radius, hit)
    return SolveOutcome("optimal", value, dict(zip(program.ids, point)))


@st.composite
def disjoint_unions(draw):
    """Two boxed_instances draws side by side, named so that the ids of
    their variables interleave: an instance of at least two parts."""
    first, second = draw(boxed_instances()), draw(boxed_instances())
    names = [f"u{k}" for k in draw(st.permutations(range(first.n_variables + second.n_variables)))]
    b = InstanceBuilder()
    objective = {}
    for ins, own in ((first, names[: first.n_variables]), (second, names[first.n_variables :])):
        name = dict(zip(ins.ids(), own))
        for row in ins.constraints:
            b.add_le({name[v]: c for v, c in row.terms}, row.rhs)
        objective.update((name[v], c) for v, c in ins.objective.terms)
    b.set_objective(objective)
    return b.build()


@given(disjoint_unions(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_split_search_matches_the_whole_instance_search(ins, narrow):
    # solve_core searches each part on its own; the reference searches the
    # whole union in the same certified box.  Under lowest-id branching the
    # certificate is the same too
    got = solve_core(ins, propagate=narrow)
    want = (_narrow_search if narrow else bounded_search)(ins, solution_bound(ins).radius)
    assert (got.status, got.value) == (want.status, want.value)
    if not narrow:
        assert got.assignment == want.assignment


def _bisect_maximize(program, radius, hit):
    """The objective search that probes start from the top replaced, kept as
    the reference: bisection from the first dive's value up to
    sum|c| * radius."""
    if not program.cut_terms:
        return hit
    lo, hi = hit[1], sum(abs(c) for c in program.obj) * radius
    while lo < hi:
        mid = lo + (hi - lo + 1) // 2
        probe = _dive(program, radius, mid)
        if probe is None:
            hi = mid - 1
        else:
            hit, lo = probe, probe[1]
    if program.min_domain:
        hit = _dive(program, radius, lo)
    return hit


@given(box_programs(), st.integers(min_value=1, max_value=6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_bound_first_probes_match_plain_bisection(case, radius, narrow):
    # same value and same certificate, in both branching modes
    ins, _ = case
    program = _SearchProgram(ins, narrow)
    hit = _dive(program, radius, None)
    assume(hit is not None)
    assert _maximize(program, radius, hit) == _bisect_maximize(program, radius, hit)


@pytest.mark.parametrize("n", [500, 1000])
def test_boxed_chain_probes_ignore_the_radius(monkeypatch, n):
    # bisecting up to sum|c| * radius took one dive per radius bit (518 at
    # n = 500); the top of the propagated box is already the optimum, so the
    # first dive and the recession dive are all that run
    dives = []

    def counted(*args):
        dives.append(args[2])
        return _dive(*args)

    monkeypatch.setattr(tdilp.solver, "_dive", counted)
    outcome = solve(boxed_chain(n))
    assert (outcome.status, outcome.value, outcome.kernel_vars) == ("optimal", 6, n)
    assert len(dives) <= 4


_CHAIN_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from conftest import boxed_chain
from tdilp import solve
outcome = solve(boxed_chain(16_000))
print(outcome.status, outcome.value, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_a_16000_variable_chain_solves_under_a_memory_cap():
    """The search on boxed_chain(16000) is 16,000 levels deep.  Its dives
    keep one state each and undo it along a trail, so a child whose address
    space is capped at 1 GB solves it with a peak RSS under 200 MB; a copy
    of the state per pending node ran out of memory there."""
    done = run_in_child(_CHAIN_CHILD)
    assert done.returncode == 0, done.stderr[-2000:]
    status, value, peak_kb = done.stdout.split()
    assert (status, value) == ("optimal", "6")
    assert int(peak_kb) < 200 * 1024  # ru_maxrss is in KB on Linux


def test_boxed_chain_of_4000_solves_in_seconds():
    # CPU time of this process, so that other load on the host does not count
    ins = boxed_chain(4000)
    start = time.process_time()
    outcome = solve(ins)
    assert time.process_time() - start < 1
    assert (outcome.status, outcome.value) == ("optimal", 6)


def test_crt_joins_residue_classes():
    assert _crt(0, 1, 4, 7) == (4, 7)
    assert _crt(2, 3, 3, 5) == (8, 15)  # coprime moduli
    assert _crt(1, 4, 3, 6) == (9, 12)  # gcd 2, and 1 = 3 (mod 2)
    assert _crt(1, 4, 2, 6) is None  # 1 and 2 differ mod 2


def test_bounded_search_joins_two_moduli(monkeypatch):
    # 2x - 3y = 1 and 2x - 5z = 1 put x in 2 mod 3 and 3 mod 5, joined as
    # 8 mod 15: of x in [-8, 8] only -7 and 8 are left to branch on
    joins = []

    def spy(r1, m1, r2, m2):
        joins.append({m1, m2})
        return _crt(r1, m1, r2, m2)

    monkeypatch.setattr(tdilp.solver, "_crt", spy)
    ins = _parse("max: y - z\n2 x - 3 y = 1\n2 x - 5 z = 1\n")
    want = brute_force_ilp(ins, 8)
    assert (want.status, want.value) == ("optimal", 2)
    for got in (bounded_search(ins, 8), _narrow_search(ins, 8)):
        assert (got.status, got.value, got.assignment) == (
            want.status, want.value, want.assignment
        )
    assert {3, 5} in joins


def test_distinct_star_search_ignores_the_radius_bit_length(propagate_calls):
    # max z <= 5 over 18 pairwise distinct caps a_i >= z of about 10^200: no
    # twins, and a 682-bit certified radius that a per-bit search would pay
    # per variable
    propagate_calls(200)
    caps = [10**200 + i for i in range(1, 19)]
    random.Random(18).shuffle(caps)
    b = InstanceBuilder()
    b.set_objective({"z": 1})
    b.add_le({"z": 1}, 5)
    for i, cap in enumerate(caps, start=1):
        b.add_le({"z": 1, f"a{i:03d}": -1}, 0)
        b.add_le({f"a{i:03d}": 1}, cap)
    outcome, info = solve_pipeline(b.build())
    assert solution_bound(info.kernel).radius.bit_length() == 682
    assert (outcome.status, outcome.value, outcome.kernel_vars) == ("optimal", 5, 19)


def test_deep_twin_path_kernel_solves(propagate_calls):
    # two identical 1,100-variable paths beside the objective; the kernel
    # keeps one path, and the search fixes each link in one endpoint node,
    # whose propagation reads only the rows of the link it fixed
    propagate_calls(1200)
    outcome = solve(deep_twin_paths(1100))
    assert (outcome.status, outcome.value, outcome.kernel_vars) == ("optimal", 5, 1101)


# unbounded (ray (0, -1, 1, 0)); the same text as bench/test_checker.py's
STALL_REPRODUCER = """max: x0 + x2
-2 x0 + x1 <= 1
-2 x0 - 2 x2 - 2 x3 <= -1
-x0 + 2 x1 <= 5
x0 + 2 x1 + 2 x2 <= -1
x0 - 2 x1 - 2 x2 <= -1
"""


def test_stall_reproducer_is_unbounded(propagate_calls):
    # under the old 54-bit radius the first feasibility dive ran for minutes;
    # the Hadamard radius is 2,235
    counted = propagate_calls(600)
    ins = _parse(STALL_REPRODUCER)
    assert solution_bound(ins).radius == 2235
    assert solve(ins).status == "unbounded"
    assert len(counted) == 534


# draw 263 of _random_rows(random.Random(7), 3 + k % 2, None) in
# bench/workloads.py: free rows over 4 variables, with a recession ray
RAY_BEFORE_PROBES = """max: x1 - 2 x2 + x3
-2 x0 + 2 x2 - 2 x3 <= 2
-x0 + 2 x1 - 2 x2 - x3 <= 9
-x0 + 2 x2 <= 0
-x0 - 2 x1 <= 4
2 x1 - 2 x2 + 2 x3 <= 8
"""


def test_the_ray_is_found_before_any_objective_probe():
    # solve_core checks for a recession ray before _maximize probes: with
    # the probes first this draw ran for 11 s on a 2-vCPU host, chasing a
    # maximum that does not exist; with the ray first it takes about a
    # millisecond there
    with deadline(2):
        outcome, _ = solve_pipeline(_parse(RAY_BEFORE_PROBES))
    assert outcome.status == "unbounded"


@given(box_programs(), st.data())
@settings(max_examples=300, deadline=None)
def test_seeded_propagation_reaches_the_full_queue_fixpoint(case, data):
    # a child that differs from its parent's fixpoint only in x_j reaches the
    # same fixpoint from the rows that read x_j as from every row; whatever
    # the child's propagation returns, undoing the trail to the parent's
    # mark gives back the parent's state exactly
    ins, _ = case
    program = _SearchProgram(ins)
    box = data.draw(st.integers(min_value=1, max_value=20))
    threshold = data.draw(st.none() | st.integers(min_value=-6, max_value=6))
    cut_rhs = None if threshold is None else (-threshold) // program.cut_gcd
    lo, hi, classes, trail = [-box] * program.n, [box] * program.n, [(0, 1)] * program.n, []
    assume(_propagate(program, lo, hi, classes, trail, cut_rhs) is True)
    parent, mark = (list(lo), list(hi), list(classes)), len(trail)
    unfixed = [j for j in range(program.n) if lo[j] < hi[j]]
    assume(unfixed)
    j = data.draw(st.sampled_from(unfixed))
    a = data.draw(st.integers(min_value=lo[j], max_value=hi[j]))
    b = data.draw(st.integers(min_value=a, max_value=hi[j]))
    r, m = classes[j]
    a, b = a + (r - a) % m, b - (b - r) % m
    assume(a <= b)
    ends = []
    for branched in (j, None):
        trail.append((j, lo[j], hi[j], classes[j]))
        lo[j], hi[j] = a, b
        done = _propagate(program, lo, hi, classes, trail, cut_rhs, branched=branched)
        ends.append((done, (list(lo), list(hi), list(classes))))
        _undo(trail, mark, lo, hi, classes)
        assert (lo, hi, classes) == parent
        assert len(trail) == mark
    (seeded, seeded_state), (full, full_state) = ends
    assume(seeded is not False and full is not False)  # neither hit the cap
    assert seeded == full
    if seeded:
        assert seeded_state == full_state


def test_undo_drops_a_class_derived_below_the_mark():
    # fixing x at 1 leaves y + 2 z = -3, which puts y in 1 mod 2 before any
    # row moves y's bounds (they are odd already): only the class snap's
    # own trail entry can take that class back
    program = _SearchProgram(_parse("max: y\n3 x + y + 2 z = 0\n"))
    lo, hi, classes, trail = [-5] * 3, [5] * 3, [(0, 1)] * 3, []
    assert _propagate(program, lo, hi, classes, trail, None) is True
    parent, mark = (list(lo), list(hi), list(classes)), len(trail)
    trail.append((0, lo[0], hi[0], classes[0]))
    lo[0] = hi[0] = 1
    assert _propagate(program, lo, hi, classes, trail, None, branched=0) is True
    assert (lo[1], hi[1], classes[1]) == (-5, 5, (1, 2))
    _undo(trail, mark, lo, hi, classes)
    assert (lo, hi, classes) == parent


@pytest.mark.parametrize("graph, calls", [
    (cycle_graph(5), 25),
    (cycle_graph(6), 35),
    (cycle_graph(7), 43),
    (cycle_graph(8), 55),
    (complete_graph(4), 23),
    (odd_wheel(), 23),
    (petersen(), 73),
], ids=["C5", "C6", "C7", "C8", "K4", "W5", "petersen"])
def test_three_coloring_search_derives_residue_classes(propagate_calls, graph, calls):
    # once a vertex fixes r = 0, each row g - p*m - r = 0 puts g in a class
    # mod p; rows alone walk g from residue to residue up to the update cap.
    # The counts are exact: the presolve rows, their order and the update
    # budget all shape the search, so a change to any of them shows here.
    ins, witness = reduce_three_coloring(graph)
    counted = propagate_calls(calls)
    outcome, _ = solve_pipeline(ins, witness, propagate=True)
    assert len(counted) == calls
    assert outcome.status == ("optimal" if brute_three_coloring(graph) else "infeasible")
    if outcome.status == "optimal":
        assert check_feasible(ins, outcome.assignment)


@pytest.mark.parametrize("graph, derivations", [
    (cycle_graph(5), 218),
    (cycle_graph(6), 260),
    (cycle_graph(7), 302),
    (complete_graph(4), 243),
    (odd_wheel(), 299),
], ids=["C5", "C6", "C7", "K4", "W5"])
def test_an_equality_wakes_only_when_a_move_fixes_one_of_its_variables(
    monkeypatch, graph, derivations
):
    # _implied_classes reads only which of a row's variables are fixed, so a
    # move that leaves x_j unfixed derives nothing new from x_j's equalities;
    # waking them on every move made 540/835/1,124/438/640 derivations here
    calls = []
    real = tdilp.solver._implied_classes

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(tdilp.solver, "_implied_classes", counted)
    ins, witness = reduce_three_coloring(graph)
    outcome, _ = solve_pipeline(ins, witness, propagate=True)
    assert len(calls) == derivations
    assert outcome.status == ("optimal" if brute_three_coloring(graph) else "infeasible")


_SMALL_GRAPHS ={f"n{n}-{i}": g for n in range(5) for i, g in enumerate(all_graphs(n))}


@pytest.mark.parametrize(
    "graph",
    [*_SMALL_GRAPHS.values(), cycle_graph(5), complete_graph(4), odd_wheel()],
    ids=[*_SMALL_GRAPHS, "C5", "K4", "W5"],
)
def test_three_coloring_given_decomposition_matches_the_dfs_forest(graph):
    # the encoding's own witness and the DFS forest of its primal graph are
    # different decompositions of one instance; the verdicts must agree
    ins, witness = reduce_three_coloring(graph)
    given, given_info = solve_pipeline(ins, witness, propagate=True)
    computed, computed_info = solve_pipeline(ins, propagate=True)
    assert (given_info.td_mode, computed_info.td_mode) == ("given", "dfs")
    assert given.status == computed.status
    assert given.status == ("optimal" if brute_three_coloring(graph) else "infeasible")
    for outcome in (given, computed):
        if outcome.status == "optimal":
            assert check_feasible(ins, outcome.assignment)


_NONEMPTY_GRAPHS = {name: g for name, g in _SMALL_GRAPHS.items() if g.n}


@pytest.mark.parametrize("graph", _NONEMPTY_GRAPHS.values(), ids=_NONEMPTY_GRAPHS)
def test_vertex_cover_exact_decomposition_matches_the_dfs_forest(graph):
    # an optimal decomposition given to the solve and the DFS forest it
    # computes itself must give one outcome, the oracle's verdict
    for budget in range(1, graph.n + 1):
        ins = reduce_vertex_cover(graph, budget)
        given, given_info = solve_pipeline(ins, compute_treedepth_exact(build_primal_graph(ins))[1])
        computed, computed_info = solve_pipeline(ins)
        assert (given_info.td_mode, computed_info.td_mode) == ("given", "dfs")
        assert given == computed, budget  # certificate and kernel size too
        assert given.status == ("optimal" if brute_vertex_cover(graph, budget) else "infeasible")
        if given.status == "optimal":
            assert check_feasible(ins, given.assignment)


def _naive_primitive(terms, rhs):
    g = math.gcd(*(c for _, c in terms))
    return tuple((j, c // g) for j, c in terms), rhs // g


def _naive_opposite(terms):
    return tuple((j, -c) for j, c in terms)


def _reference_index(rows, n, cut_terms):
    """Every field of a search program's index over rows, computed the plain way."""
    rows = [_naive_primitive(terms, rhs) for terms, rhs in rows]
    reads = [{j: c for j, c in terms} for terms, _ in rows]
    cut = dict(cut_terms) if len(cut_terms) > 1 else {}
    tightest = {}
    for terms, rhs in rows:
        key = tuple(sorted(terms))
        tightest[key] = min(rhs, tightest.get(key, rhs))
    equalities = [
        (key, rhs) for key, rhs in tightest.items()
        if key[0][1] > 0 and tightest.get(_naive_opposite(key)) == -rhs
    ]

    def readers(sign):
        listed = [
            [ri for ri, read in enumerate(reads) if len(read) > 1 and read.get(j, 0) * sign > 0]
            for j in range(n)
        ]
        for j, c in cut.items():
            if c * sign > 0:
                listed[j].append(len(rows))
        return listed

    return {
        "rows": rows,
        "lo_readers": readers(1),
        "hi_readers": readers(-1),
        "rows_contradict": any(
            rhs + tightest.get(_naive_opposite(key), -rhs) < 0 for key, rhs in tightest.items()
        ),
        "cut_opposite": tightest.get(_naive_opposite(cut_terms)),
        "equalities": equalities,
        "var_eqs": [[ei for ei, (key, _) in enumerate(equalities) if j in dict(key)] for j in range(n)],
    }


def _assert_single_pass_index(ins):
    # the reference indexes the instance's rows, hands that index's rows to
    # the presolve, and indexes sorted(extra | rows) again from scratch
    program = _SearchProgram(ins, True)
    n, cut_terms = program.n, program.cut_terms
    index = {v: j for j, v in enumerate(ins.ids())}
    raw = [(tuple((index[v], c) for v, c in row.terms), row.rhs) for row in ins.constraints]
    first = _reference_index(raw, n, cut_terms)
    extra = tdilp.presolve._presolve_rows(first["rows"], program.obj)
    want = _reference_index(sorted(extra.union(raw)), n, cut_terms)
    got = {name: getattr(program, name) for name in want}
    for name in want:
        assert got[name] == want[name], name
    return extra


@pytest.mark.parametrize(
    "graph",
    [cycle_graph(5), cycle_graph(6), cycle_graph(7), cycle_graph(8), complete_graph(4),
     odd_wheel(), petersen()],
    ids=["C5", "C6", "C7", "C8", "K4", "W5", "petersen"],
)
def test_search_program_indexes_once_as_two_passes_would(graph):
    ins, _ = reduce_three_coloring(graph)
    assert _assert_single_pass_index(ins)  # the presolve fires on every one


@st.composite
def remainder_programs(draw):
    """Boxed instances with remainder rows g - p*m - r = 0, 0 <= r <= p-1,
    m >= 0 and 0 <= g <= 3, so that every variable stays in [-3, 3].  The
    first two share g and p, so the presolve always aliases their
    remainders; a third block, a second g, an extra row and the objective
    are drawn."""
    b = InstanceBuilder()
    gs = ["g0", "g1"][: draw(st.integers(1, 2))]
    for g in gs:
        b.add_ge({g: 1}, 0)
        b.add_le({g: 1}, draw(st.integers(0, 3)))
    p = draw(st.sampled_from([2, 3]))
    blocks = [(gs[0], p), (gs[0], p)]
    if len(gs) == 1 and draw(st.booleans()):
        blocks.append((gs[0], draw(st.sampled_from([2, 3]))))
    names = list(gs)
    for i, (g, p) in enumerate(blocks):
        m, r = f"m{i}", f"r{i}"
        b.add_eq({g: 1, m: -p, r: -1}, 0)
        b.add_ge({m: 1}, 0)
        b.add_ge({r: 1}, 0)
        b.add_le({r: 1}, p - 1)
        names += [m, r]
    coefficient = st.integers(min_value=-2, max_value=2)
    if draw(st.booleans()):
        coeffs = {name: draw(coefficient) for name in draw(st.permutations(names))[:2]}
        if not any(coeffs.values()):
            coeffs[names[0]] = 1
        b.add_le(coeffs, draw(st.integers(min_value=-1, max_value=4)))
    b.set_objective({name: draw(coefficient) for name in names})
    return b.build()


@given(remainder_programs())
@settings(max_examples=60, deadline=10_000)
def test_propagate_presolve_matches_plain_search_and_oracle(ins):
    propagated = solve_core(ins, propagate=True)
    plain = solve_core(ins, propagate=False)
    want = brute_force_ilp(ins, box=3)
    assert (propagated.status, propagated.value) == (plain.status, plain.value)
    assert (propagated.status, propagated.value) == (want.status, want.value)
    assert _assert_single_pass_index(ins)


@given(box_programs())
@settings(max_examples=100, deadline=None)
def test_search_program_index_matches_two_passes_on_drawn_programs(case):
    _assert_single_pass_index(case[0])
