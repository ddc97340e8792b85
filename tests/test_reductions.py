"""Generators: vertex cover, 3-coloring via prime encoding, subset sum."""

import collections
import itertools
import random

import pytest

from tdilp import (
    Graph,
    check_feasible,
    max_abs_coefficient,
    solve,
    verify_tree_decomposition,
    verify_treedepth_decomposition,
)
from tdilp.oracle import (
    brute_force_ilp,
    brute_three_coloring,
    brute_vertex_cover,
    subset_sum_dp,
)
from tdilp.reductions import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    GadgetSpec,
    SubsetSumInstance,
    build_gadget,
    nth_prime,
    reduce_subset_sum,
    reduce_three_coloring,
    reduce_vertex_cover,
)
from tdilp.structure import ROOT, build_primal_graph

from conftest import all_graphs, complete_graph, cycle_graph, odd_wheel, path_graph, petersen


def test_nth_prime_values():
    assert nth_prime(1) == 2
    assert nth_prime(2) == 3
    assert nth_prime(4) == 7
    assert nth_prime(25) == 97
    assert nth_prime(100) == 541


def test_nth_prime_rejects_zero():
    with pytest.raises(ValueError):
        nth_prime(0)


# ---------------------------------------------------------------------------
# vertex cover


def test_vertex_cover_triangle():
    tri = complete_graph(3)
    assert solve(reduce_vertex_cover(tri, 2)).status == "optimal"
    assert solve(reduce_vertex_cover(tri, 1)).status == "infeasible"


def test_vertex_cover_coefficients_are_unit():
    for g in (complete_graph(4), path_graph(5), Graph(range(1, 4), [])):
        for nu in (1, g.n):
            assert max_abs_coefficient(reduce_vertex_cover(g, nu)) == 1


def test_vertex_cover_validation():
    with pytest.raises(ValueError):
        reduce_vertex_cover(complete_graph(3), 0)
    with pytest.raises(ValueError):
        reduce_vertex_cover(complete_graph(3), 4)


def test_vertex_cover_matches_oracle_on_paths_and_cycles():
    for g in (path_graph(4), cycle_graph(5), complete_graph(4)):
        for nu in range(1, g.n + 1):
            got = solve(reduce_vertex_cover(g, nu)).status == "optimal"
            assert got == brute_vertex_cover(g, nu), (sorted(g.edges), nu)


# ---------------------------------------------------------------------------
# three coloring


def test_three_coloring_k3_feasible_with_constructed_assignment():
    ins, dec = reduce_three_coloring(complete_graph(3))
    # color classes {1}, {2}, {3}: g_j = product of primes of class j
    primes = {1: 2, 2: 3, 3: 5}
    a = {}
    for j, color_vertex in enumerate((1, 2, 3), start=1):
        g = primes[color_vertex]
        a[ins.id_of(f"g{j}")] = g
        for v in (1, 2, 3):
            p = nth_prime(v)
            a[ins.id_of(f"m_{v}_{j}")] = g // p
            a[ins.id_of(f"r_{v}_{j}")] = g % p
            a[ins.id_of(f"u_{v}_{j}")] = 1 if g % p else 0
    for u, v in sorted(complete_graph(3).edges):
        for j in range(1, 4):
            g = a[ins.id_of(f"g{j}")]
            for w in (u, v):
                p = nth_prime(w)
                a[ins.id_of(f"me_{u}_{v}_{w}_{j}")] = g // p
                a[ins.id_of(f"re_{u}_{v}_{w}_{j}")] = g % p
                a[ins.id_of(f"ue_{u}_{v}_{w}_{j}")] = 1 if g % p else 0
    assert check_feasible(ins, a)
    assert verify_treedepth_decomposition(build_primal_graph(ins), dec)
    assert dec.height <= 8


def test_three_coloring_solver_agreement():
    for g, want in ((complete_graph(3), True), (complete_graph(4), False)):
        ins, dec = reduce_three_coloring(g)
        out = solve(ins, dec, propagate=True)
        assert (out.status == "optimal") == want
        assert want == brute_three_coloring(g)


def test_three_coloring_coefficient_bound_is_last_prime():
    for g in (complete_graph(3), cycle_graph(5)):
        ins, _ = reduce_three_coloring(g)
        assert max_abs_coefficient(ins) == nth_prime(g.n)


def test_three_coloring_witness_height_eight():
    for g in (complete_graph(3), cycle_graph(4), path_graph(5)):
        ins, dec = reduce_three_coloring(g)
        assert verify_treedepth_decomposition(build_primal_graph(ins), dec)
        assert dec.height <= 8


def _named_parent(name):
    """The 3-coloring witness's parent of a variable, read off its name."""
    kind, *idx = name.split("_")
    if kind in ("g1", "g2", "g3"):
        return {"g1": None, "g2": "g1", "g3": "g2"}[kind]
    if kind == "u":
        i, j = idx
        return "g3" if j == "1" else f"u_{i}_{int(j) - 1}"
    if kind in ("r", "m"):
        i, j = idx
        return f"u_{i}_3" if kind == "r" else f"r_{i}_{j}"
    a, b, t, j = idx
    if kind == "ue":
        return "g3" if t == a else f"ue_{a}_{b}_{a}_{j}"
    assert kind in ("re", "me"), name
    return f"ue_{a}_{b}_{b}_{j}" if kind == "re" else f"re_{a}_{b}_{t}_{j}"


def test_three_coloring_witness_follows_the_naming_rule():
    # counters chain on top; each vertex's u chain and each edge's ue pair
    # hangs from g3, and every remainder pair r -> m hangs from the last u
    graphs = [g for n in range(5) for g in all_graphs(n)]
    for g in graphs + [cycle_graph(5), complete_graph(4), odd_wheel(), petersen()]:
        ins, dec = reduce_three_coloring(g)
        assert dec.nodes() == tuple(ins.ids())
        for v in ins.ids():
            p = dec.parent[v]
            got = None if p == ROOT else ins.name_of(p)
            assert got == _named_parent(ins.name_of(v)), (sorted(g.edges), ins.name_of(v))


def test_three_coloring_edgeless_graph():
    g = Graph(range(1, 4), [])
    ins, dec = reduce_three_coloring(g)
    assert solve(ins, dec, propagate=True).status == "optimal"
    assert verify_treedepth_decomposition(build_primal_graph(ins), dec)


# ---------------------------------------------------------------------------
# doubling gadgets


def _gadget_y_values(spec, x_value=None, box=40):
    """All feasible y values, by sweeping h_0 and replaying the chain."""
    ins = build_gadget(spec)
    values = set()
    # chain variables are forced once h_0 and x are pinned, so brute
    # force over the whole instance at a small box is affordable only
    # for tiny q; instead pin the feeder and read off both h_0 branches
    b = ins
    names = {b.name_of(v): v for v in b.ids()}
    for h0 in (0, 1):
        a = {}
        hs = {0: h0}
        m = spec.b_max()
        for i in range(m):
            hs[i + 1] = hs[i] * 2
        bits = set(spec.bits())
        z = {}
        feeder = x_value if spec.variant == OPEN else 0
        z[0] = (hs[0] if 0 in bits else 0) + (feeder or 0)
        for i in range(m):
            z[i + 1] = z[i] + (hs[i + 1] if i + 1 in bits else 0)
        for name, vid in names.items():
            if spec.variant == OPEN and name == spec.x:
                a[vid] = x_value
            elif name == spec.y:
                a[vid] = z[m]
            elif name.startswith("hp"):
                a[vid] = hs[int(name.rsplit("_", 1)[1])]
            elif name.startswith("h"):
                a[vid] = hs[int(name.rsplit("_", 1)[1])]
            elif name.startswith("z"):
                a[vid] = z[int(name.rsplit("_", 1)[1])]
        if check_feasible(ins, a):
            values.add(z[m])
    return values


def test_gadget_open_q5():
    spec = GadgetSpec(q=5)
    assert spec.bits() == (0, 2)
    assert spec.b_max() == 2
    assert _gadget_y_values(spec, x_value=7) == {7, 12}


def test_gadget_half_open_q8():
    spec = GadgetSpec(q=8, variant=HALF_OPEN)
    assert spec.bits() == (3,)
    assert _gadget_y_values(spec) == {0, 8}


def test_gadget_closed_q1():
    ins = build_gadget(GadgetSpec(q=1, variant=CLOSED))
    out = brute_force_ilp(ins, box=2)
    assert out.status == "optimal"
    # h_0 pinned to 1 forces y = 1
    y = ins.id_of("y")
    assert all(
        a.get(y) == 1
        for a in [out.assignment]
    )
    assert _gadget_y_values(GadgetSpec(q=1, variant=CLOSED)) == {1}


def test_gadget_exact_value_sets_by_brute_force():
    # small enough to sweep the whole box: every feasible point's y
    # lands in the advertised set and both branches are hit
    for q, variant, want in [
        (3, HALF_OPEN, {0, 3}),
        (2, CLOSED, {2}),
    ]:
        ins = build_gadget(GadgetSpec(q=q, variant=variant))
        y = ins.id_of("y")
        ids = ins.ids()
        seen = set()
        for point in itertools.product(range(0, q + 2), repeat=len(ids)):
            a = dict(zip(ids, point))
            if check_feasible(ins, a):
                seen.add(a[y])
        assert seen == want


def test_gadget_size_linear_in_bits():
    for q in (1, 5, 37, 64, 1023):
        spec = GadgetSpec(q=q, variant=HALF_OPEN)
        ins = build_gadget(spec)
        assert ins.n_variables <= 4 * (spec.b_max() + 1) + 2
        assert ins.n_constraints <= 6 * (spec.b_max() + 1) + 4
        assert max_abs_coefficient(ins) == 1


def test_gadget_spec_validation():
    with pytest.raises(ValueError):
        GadgetSpec(q=0)
    with pytest.raises(ValueError):
        GadgetSpec(q=3, variant="weird")
    with pytest.raises(ValueError):
        GadgetSpec(q=3, variant=CLOSED, x="x")
    assert GadgetSpec(q=3).x == "x"  # feeder name defaults on OPEN


# ---------------------------------------------------------------------------
# subset sum


def test_subset_sum_instance_validation():
    with pytest.raises(ValueError):
        SubsetSumInstance((), 4)
    with pytest.raises(ValueError):
        SubsetSumInstance((1, -2), 4)
    with pytest.raises(ValueError):
        SubsetSumInstance((1, 2), 0)
    s = SubsetSumInstance((3, 1, 2), 4)
    assert s.n == 3


def test_subset_sum_known_answers():
    for Q, r, want in [
        ((1, 2, 3), 6, True),
        ((2, 4), 5, False),
        ((7,), 7, True),
        ((7,), 6, False),
        ((3, 5, 7), 12, True),
    ]:
        s = SubsetSumInstance(Q, r)
        ins, _ = reduce_subset_sum(s)
        got = solve(ins, propagate=True).status == "optimal"
        assert got == want == subset_sum_dp(s)


def test_subset_sum_witness_width_two():
    rng = random.Random(5)
    drawn = [
        ([rng.randint(1, 300) for _ in range(rng.randint(1, 5))], rng.randint(1, 900))
        for _ in range(30)
    ]
    for Q, r in [((1, 2, 3), 6), ((5,), 5), ((10, 23, 31), 41), *drawn]:
        ins, witness = reduce_subset_sum(SubsetSumInstance(Q, r))
        assert verify_tree_decomposition(build_primal_graph(ins), witness)
        assert witness.width <= 2
        assert max_abs_coefficient(ins) == 1
        # a gadget's bags are its spine and ladders, grouped by the prefix
        # of their h/hp/z variables: 3 per bit after the first, plus 2
        names = {node: [ins.name_of(v) for v in bag] for node, bag in witness.bags.items()}
        gadget_of = {}
        for node, bag in names.items():
            (prefix,) = {n.split("_")[0].lstrip("hpz") for n in bag if not n.startswith("y_")}
            gadget_of[node] = prefix
        want = {str(k): q for k, q in enumerate(Q, 1)} | {"c": r}
        assert collections.Counter(gadget_of.values()) == {
            prefix: 3 * (q.bit_length() - 1) + 2 for prefix, q in want.items()
        }
        # each junction sits in two bags, one the other's parent
        for k in range(1, len(Q) + 1):
            a, b = [node for node, bag in names.items() if f"y_{k}" in bag]
            assert witness.tree[a] == b or witness.tree[b] == a


def test_subset_sum_gadgets_share_only_junctions():
    ins, _ = reduce_subset_sum(SubsetSumInstance((5, 3), 7))
    names = [ins.name_of(v) for v in ins.ids()]
    junctions = [n for n in names if n.startswith("y_")]
    assert junctions == ["y_1", "y_2"]
    # every non-junction name is namespaced by its gadget prefix
    for n in names:
        if n.startswith("y_"):
            continue
        assert n.split("_")[0][-1].isdigit() or n.startswith(("hc", "hpc", "zc")), n


def test_subset_sum_junction_values():
    # Q = {5}: y_1 must land on 0 or 5; the closed tail then demands r
    ins, _ = reduce_subset_sum(SubsetSumInstance((5,), 5))
    out = solve(ins, propagate=True)
    assert out.status == "optimal"
    y1 = ins.id_of("y_1")
    assert out.assignment[y1] == 5
