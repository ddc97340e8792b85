"""Pruning, lifting, bounds, and the trace format."""

import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import Phase, event, given, note, settings
from hypothesis import strategies as st

from tdilp import (
    Astronomical,
    InstanceBuilder,
    KernelError,
    TreedepthDecomposition,
    compute_bounds,
    format_bound,
    kernelize,
    lift_solution,
    parse_instance,
    serialize_instance,
    trace_from_json,
    trace_to_json,
    witness_to_json,
)
from tdilp.instance import (
    IlpInstance,
    LinearConstraint,
    LinearObjective,
    check_feasible,
    evaluate_objective,
    omit_variables,
)
from tdilp import kernelizer, twins
from tdilp.kernelizer import (
    EquivalenceWitness,
    TraceStep,
    find_equivalent_pair,
    prune_step,
    subtree_signature,
    test_equivalence as check_equivalence,
)
from tdilp.oracle import brute_force_ilp, equivalence_reference, witness_is_sound
from tdilp.solver import solve_pipeline
from tdilp.structure import (
    ROOT,
    build_primal_graph,
    dfs_treedepth_heuristic,
    verify_treedepth_decomposition,
    witness_from_json,
)

from conftest import boxed_chain, deadline, deep_twin_paths, random_forests


def _blocks_instance(caps, objective_on_z=True):
    """max z (optionally) subject to z <= a_i <= caps[i] for each block.

    ids by name rank: a1..a9 first, z last.
    """
    b = InstanceBuilder()
    z = b.var("z")
    names = []
    for i, cap in enumerate(caps, start=1):
        names.append(b.var(f"a{i}"))
    for name, cap in zip(names, caps):
        b.add_le({z: 1, name: -1}, 0)
        b.add_le({name: 1}, cap)
    if objective_on_z:
        b.set_objective({z: 1})
    ins = b.build()
    z_id = ins.id_by_name("z") if hasattr(ins, "id_by_name") else len(caps)
    parent = {z_id: ROOT}
    for i in range(len(caps)):
        parent[i] = z_id
    return ins, TreedepthDecomposition(parent)


def test_two_block_prune():
    ins, dec = _blocks_instance([4, 4])
    kernel, kdec, trace = kernelize(ins, dec)
    assert kernel.ids() == (0, 2)
    assert kdec.nodes() == (0, 2)
    assert len(trace) == 1
    step = trace[0]
    assert step.omitted == (1,)
    assert step.keeper_root == 0
    assert step.delta == {0: 1}
    assert step.names == {0: "a1", 1: "a2"}


def test_triple_block_prune_and_names_survive():
    ins, dec = _blocks_instance([4, 4, 4])
    kernel, _, trace = kernelize(ins, dec)
    assert kernel.n_variables == 2
    assert len(trace) == 2
    assert sum(len(step.omitted) for step in trace) == 2
    assert kernel.name_of(0) == "a1"
    assert kernel.name_of(3) == "z"


def test_unequal_blocks_are_kept():
    ins, dec = _blocks_instance([4, 3])
    kernel, kdec, trace = kernelize(ins, dec)
    assert kernel.n_variables == 3
    assert len(trace) == 0
    # nothing pruned: the inputs come back, not copies rebuilt from them
    assert kernel is ins
    assert kdec is dec


def test_objective_holding_block_is_never_pruned():
    # objective sits on a1, so only a2 is eligible and no pair exists
    b = InstanceBuilder()
    z = b.var("z")
    a1 = b.var("a1")
    a2 = b.var("a2")
    b.add_le({z: 1, a1: -1}, 0)
    b.add_le({a1: 1}, 4)
    b.add_le({z: 1, a2: -1}, 0)
    b.add_le({a2: 1}, 4)
    b.set_objective({a1: 1})
    ins = b.build()
    dec = TreedepthDecomposition({2: ROOT, 0: 2, 1: 2})
    kernel, _, trace = kernelize(ins, dec)
    assert kernel.n_variables == 3
    assert len(trace) == 0


def test_kernelize_rejects_wrong_node_set():
    ins, _ = _blocks_instance([4, 4])
    with pytest.raises(KernelError):
        kernelize(ins, TreedepthDecomposition({0: ROOT, 1: 0}))


def _abc_instance(objective, *rows):
    """Variables a, b, c (ids 0, 1, 2) under the given objective and <= 1 rows."""
    b = InstanceBuilder()
    for name in "abc":
        b.var(name)
    for row in rows:
        b.add_le(row, 1)
    b.set_objective(objective)
    return b.build()


def test_kernelize_rejects_uncovered_edge():
    cases = [
        # z (id 2) adjacent to both blocks, but this forest separates z from a2
        (_blocks_instance([4, 4])[0], TreedepthDecomposition({0: ROOT, 2: 0, 1: ROOT})),
        # every row is a chain, the objective's a and b are siblings below c
        (_abc_instance({"a": 1, "b": 1}, {"a": 1, "c": 1}, {"b": 1, "c": 1}),
         TreedepthDecomposition({2: ROOT, 0: 2, 1: 2})),
        # a + b + c: a is above b and c, which are siblings
        (_abc_instance({}, {"a": 1, "b": 1, "c": 1}),
         TreedepthDecomposition({0: ROOT, 1: 0, 2: 0})),
    ]
    for ins, bad in cases:
        assert not verify_treedepth_decomposition(build_primal_graph(ins), bad)
        for prune in (kernelize, lambda i, d: find_equivalent_pair(i, d, None),
                      lambda i, d: prune_step(i, d, None)):
            with pytest.raises(KernelError, match="closure misses a primal edge"):
                prune(ins, bad)


def test_kernel_value_matches_original_after_lift():
    ins, dec = _blocks_instance([4, 4, 4])
    kernel, _, trace = kernelize(ins, dec)
    out = brute_force_ilp(kernel, box=6)
    assert out.value == 4
    lifted = lift_solution(trace, out.assignment)
    assert sorted(lifted) == list(ins.ids())
    assert check_feasible(ins, lifted)
    assert evaluate_objective(ins, lifted) == 4
    # the oracle agrees on the original directly
    assert brute_force_ilp(ins, box=6).value == 4


def test_lift_missing_source_value():
    trace = (TraceStep((7,), 5, {5: 7}, {5: "a", 7: "b"}),)
    with pytest.raises(KernelError):
        lift_solution(trace, {3: 0})
    with pytest.raises(KernelError):
        lift_solution(trace, {"c": 0}, by_name=True)


def test_lift_by_name_matches_lift_by_id():
    ins, dec = _blocks_instance([4, 4, 4])
    kernel, _, trace = kernelize(ins, dec)
    by_id = lift_solution(trace, {v: 10 + v for v in kernel.ids()})
    by_name = lift_solution(
        trace, {kernel.name_of(v): 10 + v for v in kernel.ids()}, by_name=True
    )
    assert by_name == {ins.name_of(v): value for v, value in by_id.items()}
    assert by_name == {"a1": 10, "a2": 10, "a3": 10, "z": 13}


def test_equivalence_argument_validation():
    ins, dec = _blocks_instance([4, 4])
    with pytest.raises(KernelError):
        check_equivalence(ins, dec, 0, 0)
    with pytest.raises(KernelError):
        check_equivalence(ins, dec, 0, 9)
    with pytest.raises(KernelError):
        check_equivalence(ins, dec, 0, 2)  # parent and child, not siblings


def test_equivalence_witness_is_sound_and_corruptible():
    ins, dec = _blocks_instance([4, 4])
    w = check_equivalence(ins, dec, 0, 1)
    assert w is not None
    assert w.x == 0 and w.y == 1 and w.delta == {0: 1}
    assert witness_is_sound(ins, dec, w)

    class Fake:
        x, y, delta = 0, 1, {0: 0}

    assert not witness_is_sound(ins, dec, Fake())


def test_find_equivalent_pair_is_deterministic():
    ins, dec = _blocks_instance([4, 4, 4])
    z_id = 3
    first = find_equivalent_pair(ins, dec, z_id)
    second = find_equivalent_pair(ins, dec, z_id)
    assert first == second
    assert (first.x, first.y) == (0, 1)


def test_kernelize_is_a_fixpoint():
    ins, dec = _blocks_instance([4, 4, 4, 4])
    kernel, kdec, _ = kernelize(ins, dec)
    again, _, trace = kernelize(kernel, kdec)
    assert len(trace) == 0
    assert again.ids() == kernel.ids()


def test_virtual_root_collapses_duplicate_components():
    # two disjoint copies of p + q <= 3, no objective anywhere
    b = InstanceBuilder()
    p1, p2 = b.var("p1"), b.var("p2")
    q1, q2 = b.var("q1"), b.var("q2")
    b.add_le({p1: 1, q1: 1}, 3)
    b.add_le({p2: 1, q2: 1}, 3)
    ins = b.build()
    # ids: p1 0, p2 1, q1 2, q2 3
    dec = TreedepthDecomposition({0: ROOT, 2: 0, 1: ROOT, 3: 1})
    kernel, kdec, trace = kernelize(ins, dec)
    assert kernel.n_variables == 2
    assert len(trace) == 1
    assert trace[0].delta == {0: 1, 2: 3}


def test_virtual_root_skips_objective_component():
    b = InstanceBuilder()
    p1, p2 = b.var("p1"), b.var("p2")
    q1, q2 = b.var("q1"), b.var("q2")
    b.add_le({p1: 1, q1: 1}, 3)
    b.add_le({p2: 1, q2: 1}, 3)
    b.set_objective({p1: 1})
    ins = b.build()
    dec = TreedepthDecomposition({0: ROOT, 2: 0, 1: ROOT, 3: 1})
    kernel, _, trace = kernelize(ins, dec)
    # the p1 tree holds the objective; the p2 tree has no twin left
    assert kernel.n_variables == 4
    assert len(trace) == 0


def test_compute_bounds_small_cases():
    kb = compute_bounds(1, 1)
    assert kb.d == {1: 0}
    assert kb.e == {1: 1}
    assert kb.e[1] == 1

    kb = compute_bounds(1, 2)
    assert kb.d[1] == 2**27 + 1
    assert kb.e[1] == 2**27 + 2

    kb = compute_bounds(0, 2)
    # factor (2*0+1)^3 = 1: d_1 = 2^1 + 1 = 3, e_1 = 4
    assert kb.d[1] == 3
    assert kb.e[1] == 4


def test_compute_bounds_validation():
    with pytest.raises(ValueError):
        compute_bounds(-1, 2)
    with pytest.raises(ValueError):
        compute_bounds(1, 0)


def test_compute_bounds_goes_astronomical():
    kb = compute_bounds(1, 3)
    assert isinstance(kb.e[1], Astronomical)
    assert str(kb.e[1]) == (
        "(((2^195845982777569926302400674 + 1) * 2417851639229258349412354) + 1)"
    )


@pytest.mark.parametrize("ell,k", [(2, 5), (2, 6), (3, 4), (3, 5), (3, 6)])
def test_compute_bounds_never_prints_a_huge_int(ell, k):
    # these ladders hold ints of millions of digits; no note may convert them
    kb = compute_bounds(ell, k)
    notes = [str(v) for v in (*kb.d.values(), *kb.e.values()) if isinstance(v, Astronomical)]
    assert notes and all(len(note) <= 80 for note in notes)
    assert "astronomically large" in notes


def test_astronomical_note_is_capped():
    assert Astronomical("2^{}", 10**77).note == "2^1" + "0" * 77
    assert Astronomical("2^{}", 10**78).note == "astronomically large"
    assert Astronomical("2^{}", 10**100_000).note == "astronomically large"
    a = Astronomical("2^{}", 12345)
    assert str((a + 1) * 3) == "((2^12345 + 1) * 3)"
    assert str(2 * a**4) == "((2^12345)^4 * 2)"
    assert str(a * a) == "(2^12345 * 2^12345)"


def test_num_classes_values():
    # d_i - 1 is the class count 2^((2 ell + 1)^(k+1) * e_{i+1}^i)
    assert compute_bounds(0, 2).d[1] - 1 == 2
    assert compute_bounds(1, 2).d[1] - 1 == 2**27
    kb = compute_bounds(0, 3)
    assert kb.d[2] - 1 == 2 ** (kb.e[3] ** 2) and kb.d[1] - 1 == 2 ** kb.e[2]


def test_format_bound():
    assert format_bound(514) == "514"
    assert format_bound(2**125 + 2) == str(2**125 + 2)
    big = 2**200
    assert format_bound(big) == "~2^200 (201 bits)"
    astro = compute_bounds(1, 3).e[1]
    assert "2^" in format_bound(astro)


def test_trace_json_roundtrip():
    ins, dec = _blocks_instance([4, 4, 4])
    _, _, trace = kernelize(ins, dec)
    text = trace_to_json(trace)
    again = trace_from_json(text)
    assert again == trace
    # byte-for-byte stable serialization
    assert trace_to_json(again) == text


def test_trace_json_roundtrip_empty():
    assert trace_from_json(trace_to_json(())) == ()


def test_trace_json_rejects_non_object_delta():
    step = {"omitted": [1], "keeper_root": 0, "delta": [[0, 1]], "names": {"0": "a", "1": "b"}}
    with pytest.raises(KernelError, match="malformed trace step"):
        trace_from_json(json.dumps([step]))


def test_trace_json_rejects_unnamed_ids():
    step = {"omitted": [1], "keeper_root": 0, "delta": {"0": 1}, "names": {"0": "a"}}
    with pytest.raises(KernelError, match=r"ids \[1\]"):
        trace_from_json(json.dumps([step]))


@st.composite
def block_patterns(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return [
        (draw(st.integers(min_value=1, max_value=2)), draw(st.integers(min_value=2, max_value=4)))
        for _ in range(n)
    ]


@given(block_patterns())
@settings(max_examples=25, deadline=None)
def test_kernel_preserves_optimum_on_random_blocks(patterns):
    b = InstanceBuilder()
    z = b.var("z")
    b.add_le({z: 1}, 5)
    for i, (coeff, cap) in enumerate(patterns, start=1):
        a = b.var(f"a{i}")
        b.add_le({z: 1, a: -1}, 0)
        b.add_le({a: coeff}, cap)
    b.set_objective({z: 1})
    ins = b.build()
    z_id = len(patterns)
    parent = {z_id: ROOT}
    parent.update({i: z_id for i in range(len(patterns))})
    kernel, kdec, trace = kernelize(ins, TreedepthDecomposition(parent))

    # one representative per distinct block pattern survives
    assert kernel.n_variables == 1 + len(set(patterns))
    _, _, again = kernelize(kernel, kdec)
    assert len(again) == 0

    box = 8
    original = brute_force_ilp(ins, box)
    reduced = brute_force_ilp(kernel, box)
    assert original.status == reduced.status == "optimal"
    assert original.value == reduced.value
    lifted = lift_solution(trace, reduced.assignment)
    assert check_feasible(ins, lifted)
    assert evaluate_objective(ins, lifted) == original.value


def test_deep_twin_components_kernelize_without_recursion():
    """Two identical 1,100-variable paths beside the objective: certifying
    the pair searches 1,100 levels deep, past the interpreter's recursion
    limit."""
    ins = deep_twin_paths(1100)
    kernel, _, trace = kernelize(ins, dfs_treedepth_heuristic(build_primal_graph(ins)))
    assert len(trace) == 1
    assert kernel.n_variables == 1101


def _naive_kernelize(instance, decomposition):
    """Reference fixpoint: omit the smallest equivalent (keeper, twin) pair
    under each parent, rebuilding the instance after every step, until no
    pair is left."""
    ins, dec, steps = instance, decomposition, []

    def first_pair(kids):
        support = set(ins.objective.variables())
        groups = {}
        for c in kids:
            if not support & set(dec.subtree(c)):
                groups.setdefault(subtree_signature(ins, dec.subtree(c)), []).append(c)
        pairs = sorted(
            pair
            for members in groups.values()
            for pair in itertools.combinations(sorted(members), 2)
        )
        for a, b in pairs:
            witness = check_equivalence(ins, dec, a, b)
            if witness is not None:
                return witness
        return None

    def exhaust(z):
        nonlocal ins, dec
        while (w := first_pair(dec.roots() if z is None else dec.children(z))) is not None:
            gone = dec.subtree(w.y)
            names = {v: ins.name_of(v) for v in sorted(set(gone) | set(w.delta))}
            steps.append(TraceStep(gone, w.x, dict(w.delta), names))
            ins, dec = omit_variables(ins, gone), dec.drop_nodes(gone)

    for depth in range(decomposition.height - 1, 0, -1):
        for z in [v for v in dec.nodes() if dec.depth_of(v) == depth]:
            exhaust(z)
    support = set(ins.objective.variables())
    if sum(bool(support & set(dec.subtree(r))) for r in dec.roots()) <= 1:
        exhaust(None)
    return ins, dec, tuple(steps)


@st.composite
def planted_forests(draw):
    """An instance with a planted decomposition of height <= 3.

    Rows lie on root paths with coefficients in [-2, 2].  Sibling subtrees
    are often copies of one template (twins).  Gadget siblings u -> w all
    carry u + 2w <= 1 plus either w <= 2 or u <= 2: equal signatures, but
    twins only when they carry the same unit row.
    """
    coeff = st.integers(-2, 2)
    names, parent, rows = [], {}, []

    def node(path):
        name = f"v{len(names):03d}"
        names.append(name)
        parent[name] = path[-1] if path else None
        return path + [name]

    def template(depth):
        own = [
            (
                draw(st.lists(coeff, min_size=depth - 1, max_size=depth - 1))
                + [draw(st.sampled_from((-2, -1, 1, 2)))],
                draw(coeff),
            )
            for _ in range(draw(st.integers(0, 2)))
        ]
        kids = []
        if depth < 3:
            for _ in range(draw(st.integers(0, 2))):
                kids += [template(depth + 1)] * draw(st.integers(1, 3))
        if depth == 1 and draw(st.booleans()):
            outside = (draw(coeff), draw(coeff))
            for unit_on_u in (False, True):
                kids += [("gadget", outside, unit_on_u)] * draw(st.integers(1, 2))
        return own, kids

    def plant(spec, path):
        if spec[0] == "gadget":
            _, (a, b), unit_on_u = spec
            u_path = node(path)
            z, u, w = path[-1], u_path[-1], node(u_path)[-1]
            rows.append(({z: a, u: 1, w: 2}, 1))
            rows.append(({z: b, u if unit_on_u else w: 1}, 2))
            return
        own, kids = spec
        full = node(path)
        for coeffs, rhs in own:
            rows.append((dict(zip(full, coeffs)), rhs))
        for kid in kids:
            plant(kid, full)

    for _ in range(draw(st.integers(1, 3))):
        spec = template(1)
        for _ in range(draw(st.integers(1, 2))):
            plant(spec, [])

    b = InstanceBuilder()
    for name in names:
        b.var(name)
    for terms, rhs in rows:
        b.add_le(terms, rhs)
    holder = draw(st.sampled_from([None, *names]))
    if holder is not None:
        objective = {holder: draw(st.sampled_from((-1, 1, 2)))}
        if parent[holder] is not None and draw(st.booleans()):
            objective[parent[holder]] = 1
        b.set_objective(objective)
    ins = b.build()
    dec = TreedepthDecomposition(
        {ins.id_of(v): ROOT if p is None else ins.id_of(p) for v, p in parent.items()}
    )
    return ins, dec


@given(planted_forests())
@settings(max_examples=150, deadline=None)
def test_indexed_pass_matches_naive_fixpoint(case):
    ins, dec = case
    kernel, kdec, trace = kernelize(ins, dec)
    want_kernel, want_dec, want_trace = _naive_kernelize(ins, dec)
    assert kernel == want_kernel and kernel.ids() == want_kernel.ids()
    assert kdec == want_dec
    assert trace_to_json(trace) == trace_to_json(want_trace)


@st.composite
def forests_over_planted(draw):
    """A planted instance and a forest over its variables: the planted one,
    one with a node re-hung (a row over three or more variables may split
    across siblings), the planted one under a new objective over one or two
    variables (only the objective may break), or a random one."""
    ins, dec = draw(planted_forests())
    kind = draw(st.sampled_from(("planted", "rehung", "objective", "random")))
    if kind == "planted":
        return ins, dec
    if kind == "random":
        return ins, draw(random_forests(ins.ids()))
    if kind == "objective":
        support = draw(st.lists(st.sampled_from(ins.ids()), min_size=1, max_size=2, unique=True))
        objective = LinearObjective(tuple((v, 1) for v in sorted(support)))
        return IlpInstance(ins.variables, ins.constraints, objective), dec
    v = draw(st.sampled_from(dec.nodes()))
    below = set(dec.subtree(v))
    parent = dict(dec.parent)
    parent[v] = draw(st.sampled_from([ROOT, *(u for u in dec.nodes() if u not in below)]))
    return ins, TreedepthDecomposition(parent)


@given(forests_over_planted())
@settings(max_examples=300, deadline=2000)
def test_kernelize_rejects_exactly_the_forests_verify_rejects(case):
    ins, dec = case
    valid = verify_treedepth_decomposition(build_primal_graph(ins), dec)
    event("valid" if valid else "invalid")
    if valid:
        kernelize(ins, dec)
    else:
        with pytest.raises(KernelError, match="closure misses a primal edge"):
            kernelize(ins, dec)


def test_twin_search_takes_back_a_refuted_candidate():
    """Two 4-cycles of rows p + q <= 1, a-b-c-d-a and e-g-f-h-e, as chains
    below the objective's z.  Every variable has the same signature and the
    order-keeping renaming fails, so the search maps a -> e, refutes b -> f
    on a + b <= 1, puts f back, and certifies b -> g, c -> f, d -> h."""
    b = InstanceBuilder()
    for p, q in ("ab", "bc", "cd", "da", "eg", "gf", "fh", "he"):
        b.add_le({p: 1, q: 1}, 1)
    b.set_objective({"z": 1})
    ins = b.build()  # ids a..h are 0..7, z is 8
    dec = TreedepthDecomposition({8: ROOT, 0: 8, 1: 0, 2: 1, 3: 2, 4: 8, 5: 4, 6: 5, 7: 6})
    _, _, trace = kernelize(ins, dec)
    assert [step.delta for step in trace] == [{0: 4, 1: 6, 2: 5, 3: 7}]
    assert equivalence_reference(ins, dec, 0, 4) == {0: 4, 1: 6, 2: 5, 3: 7}
    # the recorder of the oracle differential sees this search
    pairs = _searched_pairs(ins, dec)
    assert [(gone, x.nodes, y.nodes, delta) for gone, x, y, delta in pairs] == [
        (frozenset(), (0, 1, 2, 3), (4, 5, 6, 7), {0: 4, 1: 6, 2: 5, 3: 7})
    ]


def _searched_pairs(ins, dec):
    """kernelize(ins, dec), recording every pair of siblings the pruner
    decides, as (variables pruned before it, keeper sibling, twin sibling,
    delta found or None).  Every trace step must come from a recorded pair,
    so a recorder that misses the pruner's decisions fails here."""
    pairs, gone = [], []
    prune, decide = kernelizer._Pruner.prune, kernelizer._renaming

    def recording_prune(self, kids):
        gone[:] = [frozenset(self.gone_vars)]
        return prune(self, kids)

    def recording_decide(x, fx, y, fy):
        delta = decide(x, fx, y, fy)
        pairs.append((gone[0], x, y, delta))
        return delta

    with mock.patch.object(kernelizer._Pruner, "prune", recording_prune), \
            mock.patch.object(kernelizer, "_renaming", recording_decide):
        _, _, trace = kernelize(ins, dec)
    found = sum(delta is not None for *_, delta in pairs)
    assert found == len(trace), "the recorder missed the twin search"
    return pairs


def _root_of(dec, nodes):
    return next(v for v in nodes if dec.parent[v] not in nodes)


def _renamed(ins, dec, rank):
    """ins and dec with variable i named by rank[i], so the ids of twins need
    not keep one order (planted copies are named in one order)."""
    name = {v: f"w{rank[i]:03d}" for i, v in enumerate(ins.ids())}
    b = InstanceBuilder()
    for v in ins.ids():
        b.var(name[v])
    for c in ins.constraints:
        b.add_le({name[v]: k for v, k in c.terms}, c.rhs)
    b.set_objective({name[v]: k for v, k in ins.objective.terms})
    new = b.build()
    new_id = {v: new.id_of(name[v]) for v in ins.ids()}
    return new, TreedepthDecomposition(
        {new_id[v]: ROOT if p == ROOT else new_id[p] for v, p in dec.parent.items()}
    )


def _sound_steps(ins, dec, trace):
    """Whether every step omits its delta's image and certifies a sound
    witness on the instance left before it."""
    for step in trace:
        if step.omitted != tuple(sorted(step.delta.values())):
            return False
        twin = next(v for v in step.omitted if dec.parent[v] not in step.omitted)
        if not witness_is_sound(ins, dec, EquivalenceWitness(step.keeper_root, twin, step.delta)):
            return False
        ins, dec = omit_variables(ins, step.omitted), dec.drop_nodes(step.omitted)
    return True


@pytest.mark.parametrize("links, seconds", [(24, 1), (200, 5)])
def test_renamed_twin_paths_are_certified_in_time(links, seconds):
    """Twin paths under names from a seeded shuffle: the order-keeping
    renaming fails and every inner variable has one (coefficient, view)
    multiset, so without colour refinement the search's time grows
    exponentially with the length.  Each deadline is far above the time the
    refined search takes."""
    ins = deep_twin_paths(links)
    rank = random.Random(1).sample(range(ins.n_variables), ins.n_variables)
    ins, dec = _renamed(ins, dfs_treedepth_heuristic(build_primal_graph(ins)), rank)
    with deadline(seconds):
        outcome, info = solve_pipeline(ins, dec)
    assert len(info.trace) == 1
    assert outcome.kernel_vars == links + 1
    assert _sound_steps(ins, dec, info.trace)
    assert outcome.value == 5


@st.composite
def graph_siblings(draw):
    """Sibling subtrees that are graphs on up to 6 vertices, one row
    p + q <= 1 per edge, each a chain below the objective's z.  A variable's
    signature is then its degree, so candidate pools are wide and the search
    backtracks; two siblings are twins exactly when their graphs are
    isomorphic, and copies of one graph are relabelled at random."""
    n = draw(st.integers(3, 6))
    pairs = list(itertools.combinations(range(n), 2))
    base = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=2 * n, unique=True))
    b = InstanceBuilder()
    chains = []
    for j in range(draw(st.integers(2, 4))):
        edges = base if draw(st.booleans()) else draw(
            st.lists(st.sampled_from(pairs), min_size=len(base), max_size=len(base), unique=True))
        label = draw(st.permutations(range(n)))
        names = [b.var(f"s{j}v{i}") for i in range(n)]
        for p, q in edges:
            b.add_le({names[label[p]]: 1, names[label[q]]: 1}, 1)
        chains.append(names)
    b.set_objective({"z": 1})
    ins = b.build()
    parent = {ins.id_of("z"): ROOT}
    for names in chains:
        for above, name in zip(["z", *names], names):
            parent[ins.id_of(name)] = ins.id_of(above)
    return ins, TreedepthDecomposition(parent)


@given(planted_forests() | graph_siblings(), st.data())
@settings(max_examples=200, deadline=10_000)
def test_twin_search_matches_the_bijection_oracle(case, data):
    """Every pair the pruner compares, on the instance left at that point,
    gets the verdict and delta that trying every bijection in ascending-id
    order gives (tdilp.oracle, which shares no code with the search), also
    with the variables renamed so that twins are not order-isomorphic."""
    ins, dec = case
    if data.draw(st.booleans()):
        ins, dec = _renamed(ins, dec, data.draw(st.permutations(range(ins.n_variables))))
    for gone, x, y, delta in _searched_pairs(ins, dec):
        keeper, twin = x.nodes, y.nodes
        if len(keeper) > 6:
            continue
        left, left_dec = omit_variables(ins, gone), dec.drop_nodes(gone)
        want = equivalence_reference(left, left_dec, _root_of(dec, keeper), _root_of(dec, twin))
        assert delta == want


@given(planted_forests() | graph_siblings(), st.data())
@settings(max_examples=200, deadline=10_000)
def test_order_keeping_twins_are_the_searchs_first_renaming(case, data):
    """The pruner certifies a pair whose ordered forms are equal by the
    order-keeping renaming, without searching: on every such pair the
    colour-refined search must return exactly that renaming, and on every
    other pair the pruner's verdict is the search's.  Also with the
    variables renamed, so that fewer twins keep a common order."""
    ins, dec = case
    if data.draw(st.booleans()):
        ins, dec = _renamed(ins, dec, data.draw(st.permutations(range(ins.n_variables))))
    for _, x, y, delta in _searched_pairs(ins, dec):
        searched = twins._find_renaming(x, y)
        if kernelizer._ordered_form(x) == kernelizer._ordered_form(y):
            event("equal ordered forms")
            assert searched == dict(zip(x.nodes, y.nodes))
        else:
            event("twins in no common order" if searched else "not twins")
        assert delta == searched


def _boxed(ins):
    """ins with every variable boxed to [-2, 2]."""
    box = (LinearConstraint(((v, sign),), 2) for v in ins.ids() for sign in (1, -1))
    return IlpInstance(ins.variables, (*ins.constraints, *box), ins.objective)


@given(planted_forests() | graph_siblings(), st.data())
@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_kernels_do_not_depend_on_names(case, data):
    """Renamed variables keep the kernel's size, every step is sound at any
    subtree size (the oracle comparison stops at 6), and the solve keeps its
    verdict.  The solves box every variable.  They run under a 10 s alarm,
    without shrinking, as in test_boxed_planted_solves_match_the_oracle, so
    a stall fails with its own draw instead of hanging.  About 1% of these
    draws stalled a search of the whole kernel; split into parts, no solve
    of 6,000 draws took over 0.2 s."""
    ins, dec = case
    renamed, renamed_dec = _renamed(ins, dec, data.draw(st.permutations(range(ins.n_variables))))
    kernel, _, trace = kernelize(renamed, renamed_dec)
    assert kernel.n_variables == kernelize(ins, dec)[0].n_variables
    assert _sound_steps(renamed, renamed_dec, trace)
    boxed = _boxed(renamed)
    with deadline(10):
        outcome, _ = solve_pipeline(boxed, renamed_dec)
        want, _ = solve_pipeline(_boxed(ins), dec)
    assert (outcome.status, outcome.value) == (want.status, want.value)
    assert outcome.assignment is None or check_feasible(boxed, outcome.assignment)


def _assert_boxed_solves_agree(ins, planted):
    """ins boxed to [-2, 2], solved along the planted decomposition and the
    DFS forest, with propagate off and on: one verdict and value from all
    four, a feasible lifted certificate from each, and brute_force_ilp's
    verdict and value whenever its sweep of 5^n points fits (n <= 8)."""
    boxed = _boxed(ins)
    got = set()
    for dec in (planted, None):
        for propagate in (False, True):
            outcome, _ = solve_pipeline(boxed, dec, propagate=propagate)
            got.add((outcome.status, outcome.value))
            if outcome.assignment is not None:
                assert check_feasible(boxed, outcome.assignment)
                assert evaluate_objective(boxed, outcome.assignment) == outcome.value
    assert len(got) == 1
    if ins.n_variables <= 8:
        want = brute_force_ilp(boxed, 2)
        assert got == {(want.status, want.value)}


@given(planted_forests())
@settings(max_examples=150, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_boxed_planted_solves_match_the_oracle(case):
    """Without shrinking: a draw that stalls the search costs the deadline
    on every run, so a failure reports the draw itself, whose instance and
    decomposition text the notes give."""
    ins, planted = case
    event("brute_force_ilp checks it" if ins.n_variables <= 8 else "only the four solves agree")
    note(serialize_instance(ins))
    note(witness_to_json(planted))
    with deadline(10):
        _assert_boxed_solves_agree(ins, planted)


def _thrash(k):
    """k variables a_i in [0, i + 1] beside the odd triangle x + y = y + z =
    x + z = 1 over {0, 1}, zero objective: infeasible, and a search that
    branches on the a_i first refutes the triangle under each of their
    boxes.  Planted decomposition: each a_i a root, and the path x - y - z."""
    b = InstanceBuilder()
    for i in range(k):
        b.add_ge({f"a{i}": 1}, 0)
        b.add_le({f"a{i}": 1}, i + 1)
    for u in "xyz":
        b.add_ge({u: 1}, 0)
        b.add_le({u: 1}, 1)
    for u, v in ("xy", "yz", "xz"):
        b.add_eq({u: 1, v: 1}, 1)
    ins = b.build()
    parent = {ins.id_of(f"a{i}"): ROOT for i in range(k)}
    parent.update({ins.id_of("x"): ROOT, ins.id_of("y"): ins.id_of("x"), ins.id_of("z"): ins.id_of("y")})
    return ins, TreedepthDecomposition(parent)


def _chain(n):
    """boxed_chain(n) with its path x_0 - x_1 - ... - x_{n-1} as the decomposition."""
    ins = boxed_chain(n)
    ids = ins.ids()
    return ins, TreedepthDecomposition({v: ROOT if i == 0 else ids[i - 1] for i, v in enumerate(ids)})


@pytest.mark.parametrize("build, size", [
    *(pytest.param(_thrash, k, id=f"thrash-{k}") for k in (1, 2, 3)),
    *(pytest.param(_chain, n, id=f"chain-{n}") for n in (5, 6, 7, 8)),
])
def test_boxed_families_match_the_oracle(build, size):
    with deadline(10):
        _assert_boxed_solves_agree(*build(size))


@pytest.mark.parametrize("propagate, limit", [(False, 40), (True, 50)])
def test_thrash_searches_each_part_on_its_own(propagate_calls, propagate, limit):
    """The a_i and the triangle share no row, so the search refutes the
    triangle once instead of under each box of the a_i: at k = 7 the
    search of the whole instance made 143,727 _propagate calls.  Each a_i
    part is searched before the triangle's, whose ids are higher; under
    --propagate by plain bisection, which takes more calls per part."""
    propagate_calls(limit)
    outcome, _ = solve_pipeline(*_thrash(10), propagate=propagate)
    assert outcome.status == "infeasible"


# the draw of test_boxed_planted_solves_match_the_oracle that stalled the
# search of the whole kernel with propagate off (--hypothesis-seed=106): its
# kernel has three parts, of 10, 1 and 12 variables
SEED_106_DRAW = """max: 0 v002 + 0 v022 + v053 + v056
-2 v000 - v001 <= -1
-2 v020 - v021 <= -1
-2 v040 + v041 - v042 <= 0
-2 v040 + v041 - v043 <= 0
-2 v040 + v047 - v048 <= 0
-2 v040 + v047 - v049 <= 0
-2 v040 + v053 - v054 <= 0
-2 v040 + v053 - v055 <= 0
-2 v040 + v060 <= 2
-2 v040 + v062 <= 2
-2 v040 + v063 <= 2
-2 v041 + 2 v044 <= 1
-2 v041 + 2 v045 <= 1
-2 v041 + 2 v046 <= 1
-2 v047 + 2 v050 <= 1
-2 v047 + 2 v051 <= 1
-2 v047 + 2 v052 <= 1
-2 v053 + 2 v056 <= 1
-2 v053 + 2 v057 <= 1
-2 v053 + 2 v058 <= 1
-v000 + 2 v006 - 2 v008 <= 2
-v000 + 2 v009 - 2 v011 <= 2
-v000 + v006 - 2 v007 <= 0
-v000 + v009 - 2 v010 <= 0
-v020 + 2 v026 - 2 v028 <= 2
-v020 + 2 v029 - 2 v031 <= 2
-v020 + v026 - 2 v027 <= 0
-v020 + v029 - 2 v030 <= 0
2 v000 + v012 + 2 v013 <= 1
2 v000 + v014 + 2 v015 <= 1
2 v000 + v016 + 2 v017 <= 1
2 v000 + v018 + 2 v019 <= 1
2 v020 + v032 + 2 v033 <= 1
2 v020 + v034 + 2 v035 <= 1
2 v020 + v036 + 2 v037 <= 1
2 v020 + v038 + 2 v039 <= 1
2 v040 + 2 v041 + v044 <= 0
2 v040 + 2 v041 + v045 <= 0
2 v040 + 2 v041 + v046 <= 0
2 v040 + 2 v047 + v050 <= 0
2 v040 + 2 v047 + v051 <= 0
2 v040 + 2 v047 + v052 <= 0
2 v040 + 2 v053 + v056 <= 0
2 v040 + 2 v053 + v057 <= 0
2 v040 + 2 v053 + v058 <= 0
v000 + 2 v006 <= 2
v000 + 2 v009 <= 2
v000 + v001 - v003 <= 2
v000 + v001 - v004 <= 2
v000 + v001 - v005 <= 2
v000 + v013 <= 2
v000 + v015 <= 2
v000 + v016 <= 2
v000 + v018 <= 2
v020 + 2 v026 <= 2
v020 + 2 v029 <= 2
v020 + v021 - v023 <= 2
v020 + v021 - v024 <= 2
v020 + v021 - v025 <= 2
v020 + v033 <= 2
v020 + v035 <= 2
v020 + v036 <= 2
v020 + v038 <= 2
v059 + 2 v060 <= 1
v061 + 2 v062 <= 1
v063 + 2 v064 <= 1
"""
SEED_106_WITNESS = (
    '{"kind": "treedepth", "parent": [-1, 0, 1, 1, 1, 1, 0, 6, 6, 0, 9, 9, 0, 12, 0, 14, '
    '0, 16, 0, 18, -1, 20, 21, 21, 21, 21, 20, 26, 26, 20, 29, 29, 20, 32, 20, 34, 20, '
    '36, 20, 38, -1, 40, 41, 41, 41, 41, 41, 40, 47, 47, 47, 47, 47, 40, 53, 53, 53, 53, '
    '53, 40, 59, 40, 61, 40, 63]}'
)


def test_planted_draw_that_stalled_the_whole_kernel_search():
    with deadline(10):
        _assert_boxed_solves_agree(parse_instance(SEED_106_DRAW), witness_from_json(SEED_106_WITNESS))


@given(planted_forests(), st.data())
@settings(max_examples=150, deadline=10_000)
def test_equivalence_matches_the_oracle_under_unverified_forests(case, data):
    """A drawn forest over the same variables is rarely a decomposition, so
    rows span siblings; test_equivalence accepts it and must still agree
    with the oracle on every sibling pair of at most 6 variables each."""
    ins, _ = case
    ids = ins.ids()
    dec = TreedepthDecomposition(
        {v: data.draw(st.sampled_from((ROOT, *ids[:i]))) for i, v in enumerate(ids)}
    )
    spanned = False
    for kids in (dec.roots(), *map(dec.children, ids)):
        for a, b in itertools.combinations(kids, 2):
            X, Y = dec.subtree(a), dec.subtree(b)
            if len(X) > 6 or len(Y) > 6:
                continue
            witness = check_equivalence(ins, dec, a, b)
            assert (witness and witness.delta) == equivalence_reference(ins, dec, a, b)
            shared = any(set(X) & set(c.variables()) and set(Y) & set(c.variables())
                         for c in ins.constraints)
            spanned = spanned or shared
    event("a sibling pair shares a row" if spanned else "no sibling pair shares a row")
