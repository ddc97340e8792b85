"""End-to-end sweeps over the toolkit's headline guarantees.

Each test drives one guarantee over an exhaustive or seeded family and
records a single verdict line (replayed after the run; use -s to watch
them live).  Every expected value here comes from an independent
brute-force oracle or a first-principles recount, never from the code
under test.
"""

import itertools
import random

import numpy as np

from tdilp import (
    Graph,
    InstanceBuilder,
    build_primal_graph,
    check_feasible,
    compute_bounds,
    compute_treedepth_exact,
    evaluate_objective,
    kernelize,
    max_abs_coefficient,
    parse_instance,
    serialize_instance,
    solve,
    solve_core,
    solve_pipeline,
    treedepth_to_tree_decomposition,
    verify_tree_decomposition,
    verify_treedepth_decomposition,
)
from tdilp.cli import run
from tdilp.kernelizer import test_equivalence as check_equivalence
from tdilp.oracle import (
    brute_force_ilp,
    brute_three_coloring,
    brute_vertex_cover,
    equivalence_reference,
    induced_subgraph,
    longest_path_vertices,
    subset_sum_dp,
    treedepth_reference,
    witness_is_sound,
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
from tdilp.structure import ROOT, TreedepthDecomposition


# ---------------------------------------------------------------------------
# shared construction helpers


def _build(n, rows, obj):
    """Instance over x00..x<n-1> from (coeffs, rhs) rows; ids match positions."""
    b = InstanceBuilder()
    names = [f"x{j:02d}" for j in range(n)]
    for nm in names:
        b.var(nm)
    for coeffs, rhs in rows:
        b.add_le({names[j]: c for j, c in enumerate(coeffs) if c}, rhs)
    b.set_objective({names[j]: c for j, c in enumerate(obj) if c})
    return b.build()


def _has_ray(instance, box: int) -> bool:
    """Integer recession direction with positive objective gain, by sweep."""
    ids = instance.ids()
    n = len(ids)
    if n == 0 or instance.objective.is_zero():
        return False
    pos = {v: k for k, v in enumerate(ids)}
    axes = np.arange(-box, box + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*([axes] * n), indexing="ij"), axis=-1).reshape(-1, n)
    ok = np.ones(len(grid), dtype=bool)
    for c in instance.constraints:
        lhs = np.zeros(len(grid), dtype=np.int64)
        for v, coeff in c.terms:
            lhs += coeff * grid[:, pos[v]]
        ok &= lhs <= 0
    gain = np.zeros(len(grid), dtype=np.int64)
    for v, coeff in instance.objective.terms:
        gain += coeff * grid[:, pos[v]]
    return bool(np.any(ok & (gain >= 1)))


def _classify(instance, oracle_box: int, ray_box: int, ray_on_optimal=True):
    """Defect string when solve() disagrees with the sweep oracle, else None."""
    out = solve(instance)
    if out.status == "optimal":
        if not check_feasible(instance, out.assignment):
            return "optimal certificate violates a constraint"
        if evaluate_objective(instance, out.assignment) != out.value:
            return "optimal certificate value drifts"
        ref = brute_force_ilp(instance, oracle_box)
        if ref.status != "optimal" or ref.value != out.value:
            return f"optimal {out.value} vs oracle {ref.status}/{ref.value}"
        if ray_on_optimal and _has_ray(instance, ray_box):
            return "claimed optimal but a recession ray exists"
    elif out.status == "infeasible":
        if brute_force_ilp(instance, oracle_box).status != "infeasible":
            return "claimed infeasible but the oracle found a point"
    elif out.status == "unbounded":
        if not _has_ray(instance, ray_box):
            return "claimed unbounded without a recession ray"
        if brute_force_ilp(instance, oracle_box).status != "optimal":
            return "claimed unbounded but the oracle found no feasible point"
    else:
        return f"unexpected status {out.status}"
    return None


_ISO_CACHE: dict[int, list[Graph]] = {}


def _nonisomorphic_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class on exactly n vertices."""
    if n in _ISO_CACHE:
        return _ISO_CACHE[n]
    pairs = list(itertools.combinations(range(n), 2))
    pos = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        canon = mask
        for perm in perms:
            m2 = 0
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    a, b = perm[u], perm[v]
                    m2 |= 1 << pos[(a, b) if a < b else (b, a)]
            if m2 < canon:
                canon = m2
        if canon not in seen:
            seen.add(canon)
            out.append(Graph(range(n), [pairs[i] for i in range(len(pairs)) if canon >> i & 1]))
    _ISO_CACHE[n] = out
    return out


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(range(10), edges)


def _star_blocks(n: int):
    """max z under z <= 5 with n identical caps a_i >= z, a_i <= 4."""
    b = InstanceBuilder()
    b.set_objective({"z": 1})
    b.add_le({"z": 1}, 5)
    for i in range(1, n + 1):
        a = f"a{i:03d}"
        b.add_le({"z": 1, a: -1}, 0)
        b.add_le({a: 1}, 4)
    return b.build()


def _forest_blocks(n: int):
    """max w <= 3 next to n identical objective-free two-variable components."""
    b = InstanceBuilder()
    b.set_objective({"w": 1})
    b.add_le({"w": 1}, 3)
    for i in range(1, n + 1):
        p, q = f"p{i:03d}", f"q{i:03d}"
        b.add_le({p: 1, q: -1}, 1)
        b.add_le({q: 1, p: -1}, 1)
        b.add_le({p: 1, q: 1}, 6)
    return b.build()


# ---------------------------------------------------------------------------
# the sweeps


def test_solver_agrees_with_sweep_oracle(verdict):
    """Exact solves match the box-sweep oracle on exhaustive and seeded families.

    Box radii are proximity bounds: a bounded optimum over n variables
    with entries bounded by a lies within (n+1) * (max |n x n subdet|)
    of the origin, which for the slices below is at most 4, 24 and 164.
    Recession rays, when they exist, have Cramer-bounded entries, so the
    small ray boxes are exhaustive too.
    """
    defects = []

    # every 1-variable instance with at most two rows, coefficients in [-2, 2]
    rows1 = [((a,), rhs) for a in (-2, -1, 1, 2) for rhs in range(-2, 3)]
    sets1 = [()] + [(r,) for r in rows1] + list(itertools.combinations(rows1, 2))
    for rs in sets1:
        for c in range(-2, 3):
            bad = _classify(_build(1, rs, (c,)), 4, 8)
            if bad:
                defects.append(("one-var", rs, c, bad))
    n1 = len(sets1) * 5

    # every 2-variable instance with one or two rows over {-1,0,1} patterns
    pat2 = [p for p in itertools.product((-1, 0, 1), repeat=2) if any(p)]
    rows2 = [(p, rhs) for p in pat2 for rhs in range(-2, 3)]
    sets2 = [(r,) for r in rows2] + list(itertools.combinations(rows2, 2))
    for rs in sets2:
        for obj in itertools.product((-1, 0, 1), repeat=2):
            bad = _classify(_build(2, rs, obj), 24, 32)
            if bad:
                defects.append(("two-var", rs, obj, bad))
    n2 = len(sets2) * 9

    # saturation: doubling the sweep box never changes a bounded verdict
    saturated = 0
    for rs in sets2[::37]:
        ins = _build(2, rs, (1, -1))
        out = solve(ins)
        if out.status == "unbounded":
            continue
        near, far = brute_force_ilp(ins, 24), brute_force_ilp(ins, 48)
        saturated += 1
        if near.status != far.status or near.value != far.value:
            defects.append(("saturation", rs, near.status, far.status))

    # seeded full-width 3-variable instances at the deep proximity box
    rng = random.Random(164)
    n3 = 0
    for _ in range(10):
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-2, 2) for _ in range(3)]
            if not any(coeffs):
                coeffs[rng.randrange(3)] = 1
            rows.append((tuple(coeffs), rng.randint(-2, 2)))
        obj = tuple(rng.randint(-2, 2) for _ in range(3))
        bad = _classify(_build(3, rows, obj), 164, 8, ray_on_optimal=False)
        n3 += 1
        if bad:
            defects.append(("three-var", rows, obj, bad))

    # seeded wider instances, bounded to a known sweepable domain
    def seeded_boxed(rng, count, n_lo, n_hi, domain, wide_every=0):
        nonlocal defects
        done = 0
        for i in range(count):
            if wide_every and i % wide_every == wide_every - 1:
                n = rng.choice((11, 12))
            else:
                n = rng.randint(n_lo, n_hi)
            b = InstanceBuilder()
            names = [f"x{j:02d}" for j in range(n)]
            for nm in names:
                b.var(nm)
                b.add_le({nm: 1}, domain)
                b.add_le({nm: -1}, domain)
            for _ in range(rng.randint(2, 5)):
                support = rng.sample(names, rng.randint(2, min(4, n)))
                b.add_le({nm: rng.choice((-2, -1, 1, 2)) for nm in support}, rng.randint(-2, 2))
            k_obj = rng.randint(0, min(4, n))
            b.set_objective({nm: rng.choice((-2, -1, 1, 2)) for nm in rng.sample(names, k_obj)})
            ins = b.build()
            bad = _classify(ins, domain, domain, ray_on_optimal=False)
            done += 1
            if bad:
                defects.append(("seeded", n, domain, bad))
        return done

    seeded = seeded_boxed(random.Random(41), 300, 4, 10, 1, wide_every=15)
    seeded += seeded_boxed(random.Random(42), 220, 2, 7, 2)

    total = n1 + n2 + n3 + seeded
    verdict(
        "solver vs sweep oracle",
        not defects and seeded >= 500,
        f"{n1}+{n2} exhaustive, {n3} deep-box, {seeded} seeded, "
        f"{saturated} saturation probes, {len(defects)} disagreements",
    )
    assert not defects, defects[:5]


def test_duplicate_block_kernel_is_size_invariant(verdict):
    failures = []
    for label, make, box, want_value, want_kernel in (
        ("star", _star_blocks, 6, 4, 2),
        ("forest", _forest_blocks, 6, 3, 3),
    ):
        kernels = {}
        for n in (10, 50, 200, 2000):
            ins = make(n)
            out, info = solve_pipeline(ins)
            kernels[n] = info.kernel.n_variables
            if out.status != "optimal" or out.value != want_value:
                failures.append((label, n, "outcome", out.status, out.value))
                continue
            if len(info.trace) != n - 1:
                failures.append((label, n, "steps", len(info.trace)))
            if not check_feasible(ins, out.assignment):
                failures.append((label, n, "lifted point infeasible"))
            if evaluate_objective(ins, out.assignment) != out.value:
                failures.append((label, n, "lifted value drifts"))
            if n == 10:
                ref = brute_force_ilp(info.kernel, box)
                if ref.status != "optimal" or ref.value != out.value:
                    failures.append((label, "kernel oracle", ref.status, ref.value))
        if set(kernels.values()) != {want_kernel}:
            failures.append((label, "kernel counts", kernels))
    verdict(
        "duplicate-block kernel invariance",
        not failures,
        f"star and forest at N=10/50/200/2000, kernels 2 and 3, {len(failures)} failures",
    )
    assert not failures, failures


def test_kernel_size_stays_within_ladder_gate(verdict):
    """Where e_1 is small enough to check, kernels stay within it."""

    def singleton(cap):
        b = InstanceBuilder()
        b.set_objective({"x": 1})
        b.add_le({"x": 1}, cap)
        return b.build()

    def objective_clique(k):
        b = InstanceBuilder()
        b.set_objective({f"v{j}": 1 for j in range(k)})
        return b.build()

    def duplicate_singletons(n):
        b = InstanceBuilder()
        for i in range(1, n + 1):
            b.add_le({f"s{i:02d}": 1}, 5)
        return b.build()

    def unit_star(n_blocks):
        b = InstanceBuilder()
        b.set_objective({"z": 1})
        b.add_le({"z": 1}, 1)
        for i in range(1, n_blocks + 1):
            a = f"a{i}"
            b.add_le({"z": 1, a: -1}, 0)
            b.add_le({a: 1}, 1)
        return b.build()

    def unit_chain():
        b = InstanceBuilder()
        b.add_le({"x1": 1, "x2": -1}, 1)
        b.add_le({"x2": 1, "x3": -1}, 1)
        b.add_le({"x3": 1, "x4": -1}, 1)
        return b.build()

    corpus = [
        ("bounded singleton", singleton(5)),
        ("free singleton", objective_clique(1)),
        ("objective pair", objective_clique(2)),
        ("objective triple", objective_clique(3)),
        ("twenty duplicate singletons", duplicate_singletons(20)),
        ("wide-cap star", _star_blocks(2)),
        ("unit star", unit_star(2)),
        ("unit chain", unit_chain()),
    ]
    violations = []
    gate_open = 0
    for label, ins in corpus:
        graph = build_primal_graph(ins)
        k, dec = compute_treedepth_exact(graph)
        ell = max_abs_coefficient(ins)
        kernel, kernel_dec, trace = kernelize(ins, dec)
        e1 = compute_bounds(ell, k).e[1]
        if isinstance(e1, int) and e1 <= 10**6:
            gate_open += 1
            if kernel.n_variables > e1:
                violations.append((label, kernel.n_variables, e1))
        # the kernel is always a fixpoint, gated or not
        if len(kernelize(kernel, kernel_dec)[2]) != 0:
            violations.append((label, "kernel not a fixpoint"))
    verdict(
        "kernel size ladder gate",
        not violations and gate_open == 5,
        f"{gate_open} of {len(corpus)} corpus members below the 10^6 gate, "
        f"{len(violations)} violations",
    )
    assert not violations, violations


def test_three_coloring_encoding_census(verdict, tmp_path):
    petersen = _petersen()
    census = list(_nonisomorphic_graphs(5))
    assert len(census) == 34
    census.append(Graph(range(4), itertools.combinations(range(4), 2)))  # K4
    census.append(Graph(range(5), [(i, (i + 1) % 5) for i in range(5)]))  # C5
    for keep in ((0, 1, 2, 3, 4, 5), (0, 1, 2, 5, 6, 8), (2, 3, 4, 7, 8, 9)):
        census.append(induced_subgraph(petersen, keep))

    defects = []
    for g in census:
        ins, dec = reduce_three_coloring(g)
        out = solve(ins, dec, propagate=True)
        feasible = out.status == "optimal"
        if feasible != brute_three_coloring(g):
            defects.append((g, "feasibility", out.status))
        if not verify_treedepth_decomposition(build_primal_graph(ins), dec):
            defects.append((g, "witness invalid"))
        if dec.height > 8:
            defects.append((g, "height", dec.height))
        if max_abs_coefficient(ins) != nth_prime(g.n):
            defects.append((g, "ell", max_abs_coefficient(ins)))

    # the same construction through the command line, end to end
    gfile = tmp_path / "c5.graph"
    gfile.write_text("5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
    ipath, wpath = tmp_path / "c5.ilp", tmp_path / "c5.witness.json"
    cli_ok = (
        run(["generate", "3col", "--graph", str(gfile), "-o", str(ipath), "--witness", str(wpath)]) == 0
        and run(["verify", str(ipath), "--witness", str(wpath)]) == 0
        and run(["solve", str(ipath), "--td", str(wpath), "--propagate"]) == 0
    )
    if not cli_ok:
        defects.append(("cli round trip failed",))

    verdict(
        "three-coloring prime encoding",
        not defects,
        f"{len(census)} graphs incl. all 34 on five vertices, height <= 8, "
        f"{len(defects)} defects",
    )
    assert not defects, defects[:5]


def test_subset_sum_gadget_chain_matches_dp(verdict):
    rng = random.Random(5)
    defects = []
    pipelines = 0
    for i in range(210):
        n = rng.randint(1, 8)
        values = [rng.randint(1, 50) for _ in range(n)]
        if i % 2 == 0:
            chosen = [q for q in values if rng.random() < 0.5]
            target = sum(chosen) if chosen else values[0]
        else:
            target = rng.randint(1, sum(values))
        s = SubsetSumInstance(tuple(values), target)
        ins, wit = reduce_subset_sum(s)
        out = solve(ins, propagate=True)
        pipelines += 1
        if (out.status == "optimal") != subset_sum_dp(values, target):
            defects.append((values, target, out.status))
        if not verify_tree_decomposition(build_primal_graph(ins), wit):
            defects.append((values, target, "witness invalid"))
        if wit.width > 2:
            defects.append((values, target, "width", wit.width))
        if max_abs_coefficient(ins) != 1:
            defects.append((values, target, "ell", max_abs_coefficient(ins)))

    # the doubling gadget pins its junction to exactly the advertised set,
    # exhaustively over q; the h_0 branch is the gadget's only free choice
    def junction(text, pins):
        ins = parse_instance(text + "".join(f"{n} = {v}\n" for n, v in pins))
        out = solve_core(ins, propagate=True)
        return out.assignment[ins.id_of("y")] if out.status == "optimal" else None

    gadget_checks = 0
    for q in range(1, 65):
        half = serialize_instance(build_gadget(GadgetSpec(q, HALF_OPEN)))
        got = {junction(half, [("h_0", h0)]) for h0 in (0, 1)} - {None}
        if got != {0, q}:
            defects.append((q, "half-open junction", got))
        opened = serialize_instance(build_gadget(GadgetSpec(q, OPEN)))
        got = {junction(opened, [("x", 7), ("h_0", h0)]) for h0 in (0, 1)} - {None}
        if got != {7, 7 + q}:
            defects.append((q, "open junction", got))
        closed = serialize_instance(build_gadget(GadgetSpec(q, CLOSED)))
        if junction(closed, []) != q:
            defects.append((q, "closed junction"))
        if junction(closed, [("h_0", 0)]) is not None:
            defects.append((q, "closed gadget accepts h_0 = 0"))
        gadget_checks += 6

    # nothing strictly between the two attainable junction values
    for q in range(2, 33):
        half = serialize_instance(build_gadget(GadgetSpec(q, HALF_OPEN)))
        for v in range(1, q):
            gadget_checks += 1
            if junction(half, [("y", v)]) is not None:
                defects.append((q, "half-open leak", v))

    verdict(
        "subset-sum gadget chain",
        not defects and pipelines >= 200,
        f"{pipelines} seeded pipelines vs dp, {gadget_checks} gadget probes, "
        f"{len(defects)} defects",
    )
    assert not defects, defects[:5]


def test_vertex_cover_budget_encoding_census(verdict):
    graphs = [g for n in range(1, 6) for g in _nonisomorphic_graphs(n)]
    assert len(graphs) == 52
    defects = []
    cases = 0
    for g in graphs:
        for nu in range(1, g.n + 1):
            ins = reduce_vertex_cover(g, nu)
            out = solve(ins, propagate=True)
            cases += 1
            if (out.status == "optimal") != brute_vertex_cover(g, nu):
                defects.append((g, nu, out.status))
            if max_abs_coefficient(ins) != 1:
                defects.append((g, nu, "ell", max_abs_coefficient(ins)))
    verdict(
        "vertex-cover budget encoding",
        not defects,
        f"{cases} (graph, budget) pairs over all 52 graphs on <= 5 vertices, "
        f"{len(defects)} defects",
    )
    assert not defects, defects[:5]


def test_treedepth_engines_agree_with_structural_facts(verdict):
    rng = random.Random(7)
    defects = []
    for _ in range(1000):
        n = rng.randint(1, 9)
        p = rng.choice((0.1, 0.25, 0.4, 0.6, 0.8))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(range(n), edges)
        k, dec = compute_treedepth_exact(g)
        if k != treedepth_reference(g):
            defects.append((g, "exact vs reference", k))
            continue
        if dec.height != k or not verify_treedepth_decomposition(g, dec):
            defects.append((g, "emitted decomposition"))
        path = longest_path_vertices(g)
        if not (k <= path < 2**k):
            defects.append((g, "path sandwich", k, path))
        v = rng.choice(g.vertices)
        rest = induced_subgraph(g, set(g.vertices) - {v})
        k_rest = compute_treedepth_exact(rest)[0] if rest.n else 0
        if k > k_rest + 1:
            defects.append((g, "vertex deletion", k, k_rest))
        wit = treedepth_to_tree_decomposition(dec)
        if not verify_tree_decomposition(g, wit) or wit.width > dec.height - 1:
            defects.append((g, "width conversion", wit.width))
    verdict(
        "treedepth engines and facts",
        not defects,
        f"1000 seeded graphs on <= 9 vertices, {len(defects)} defects",
    )
    assert not defects, defects[:5]


def test_equivalence_verdicts_match_bijection_enumeration(verdict):
    corpus = []

    rng = random.Random(8)
    for _ in range(60):
        b = InstanceBuilder()
        b.set_objective({"z": 1})
        b.add_le({"z": 1}, 5)
        parent_names: dict[str, str | None] = {"z": None}
        for blk in range(rng.randint(2, 4)):
            shape = rng.choice(("single", "pair", "chain"))
            cap = rng.choice((3, 4))
            a, c, d = (f"{x}_b{blk}" for x in "acd")
            b.add_le({"z": 1, a: -1}, 0)
            parent_names[a] = "z"
            if shape == "single":
                b.add_le({a: 1}, cap)
            elif shape == "pair":
                b.add_le({a: 1, c: 1}, cap)
                b.add_le({a: -1, c: 1}, 1)
                parent_names[c] = a
            else:
                b.add_le({a: 1, c: -1}, cap)
                b.add_le({c: 1, d: 1}, 2)
                parent_names[c] = a
                parent_names[d] = c
        ins = b.build()
        dec = TreedepthDecomposition(
            {
                ins.id_of(v): ROOT if p is None else ins.id_of(p)
                for v, p in parent_names.items()
            }
        )
        corpus.append((ins, dec))

    corpus.append(reduce_three_coloring(Graph(range(3), [(0, 1), (1, 2), (0, 2)])))
    ins_star = _star_blocks(5)
    corpus.append((ins_star, compute_treedepth_exact(build_primal_graph(ins_star))[1]))

    pairs = 0
    witnesses = 0
    defects = []
    for ins, dec in corpus:
        anchors = [None] + [v for v in dec.parent if len(dec.children(v)) >= 2]
        for z in anchors:
            kids = dec.roots() if z is None else dec.children(z)
            for a, c in itertools.combinations(kids, 2):
                if len(dec.subtree(a)) > 5 or len(dec.subtree(c)) > 5:
                    continue
                fast = check_equivalence(ins, dec, a, c)
                ref = equivalence_reference(ins, dec, a, c)
                pairs += 1
                if (fast is None) != (ref is None):
                    defects.append((a, c, "fast" if fast else "reference only"))
                if fast is not None:
                    witnesses += 1
                    if not witness_is_sound(ins, dec, fast):
                        defects.append((a, c, "unsound witness"))
    verdict(
        "equivalence fast path soundness",
        not defects and pairs >= 100 and witnesses >= 20,
        f"{pairs} sibling pairs, {witnesses} witnesses re-derived, {len(defects)} defects",
    )
    assert not defects, defects[:5]
