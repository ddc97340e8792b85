"""The benchmark's workloads: instance families, their references, and why
each one is in the benchmark.

Every instance is drawn from the workload seed alone, so one seed always
gives the same files.  Each reference answer comes from a closed form or
from a brute-force oracle in ``tdilp.oracle``, never from the solver under
test.  The families reuse the package's own builders (``InstanceBuilder``,
``tdilp.reductions``) because those are the inputs a user would feed
``tdilp solve``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from tdilp import Graph, InstanceBuilder, serialize_instance, witness_to_json
from tdilp.oracle import (
    brute_force_ilp,
    brute_three_coloring,
    brute_vertex_cover,
    subset_sum_dp,
)
from tdilp.reductions import (
    SubsetSumInstance,
    reduce_subset_sum,
    reduce_three_coloring,
    reduce_vertex_cover,
)

WITNESS = "{witness}"  # placeholder in Spec.flags for the witness file path


@dataclass(frozen=True)
class Spec:
    """One generated instance; ``reference`` computes its expected answer."""

    name: str
    text: str
    flags: tuple[str, ...]
    witness: str | None
    reference: Callable[[], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    time_limit_s: float
    # (rng, round index) -> one round of specs; a run repeats rounds until its
    # time is up
    draw_round: Callable[[random.Random, int], list[Spec]]


# ---------------------------------------------------------------------------
# block families (the acceptance suite's `_star_blocks` / `_forest_blocks`)


def star_blocks(n: int, caps: list[int] | None = None):
    """max z under z <= 5 and n caps a_i >= z, a_i <= caps[i] (default 4)."""
    b = InstanceBuilder()
    b.set_objective({"z": 1})
    b.add_le({"z": 1}, 5)
    for i in range(1, n + 1):
        a = f"a{i:03d}"
        b.add_le({"z": 1, a: -1}, 0)
        b.add_le({a: 1}, 4 if caps is None else caps[i - 1])
    return b.build()


def forest_blocks(n: int):
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


def _closed(value: int, kernel_vars: int) -> Callable[[], dict]:
    return lambda: {"kind": "closed", "status": "optimal", "value": value,
                    "kernel_vars": kernel_vars}


# Sizes are chosen so that every instance of a workload costs about the same
# (star N 112-115 and forest N 100-103 both solve in about 1.8 s here): with
# a dozen samples per run, a mix of slow and fast instances would put the
# median on the edge between two clusters and make it jump between runs.


def _twin_blocks_round(rng: random.Random, index: int) -> list[Spec]:
    star_n, forest_n = rng.randrange(112, 116), rng.randrange(100, 104)
    specs = [
        Spec(f"r{index}-star{star_n}", serialize_instance(star_blocks(star_n)), (), None,
             _closed(4, 2)),
        Spec(f"r{index}-forest{forest_n}", serialize_instance(forest_blocks(forest_n)), (),
             None, _closed(3, 3)),
    ]
    rng.shuffle(specs)
    return specs


def _distinct_star_round(rng: random.Random, index: int) -> list[Spec]:
    specs = []
    for n in (18, 19):
        caps = [4 + i for i in range(1, n + 1)]
        rng.shuffle(caps)
        text = serialize_instance(star_blocks(n, caps))
        specs.append(Spec(f"r{index}-dstar{n}", text, (), None, _closed(5, n + 1)))
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# 3-coloring census


def _cycle(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def _odd_wheel() -> Graph:
    # hub 6 joined to every vertex of the 5-cycle: 4-chromatic
    return Graph(range(1, 7), list(_cycle(5).edges) + [(i, 6) for i in range(1, 6)])


def _complete(n: int) -> Graph:
    return Graph(range(1, n + 1), [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


# Labelings stay fixed: a relabeled C7 takes 2 to 7 s, which would make the
# run-to-run spread a property of the seed instead of the program.
_COLORING_GRAPHS = (
    ("C5", _cycle(5)),
    ("C6", _cycle(6)),
    ("C7", _cycle(7)),
    ("K4", _complete(4)),
    ("W5", _odd_wheel()),
)


def _three_col_round(rng: random.Random, index: int) -> list[Spec]:
    specs = []
    for label, graph in _COLORING_GRAPHS:
        instance, decomposition = reduce_three_coloring(graph)
        specs.append(Spec(
            f"r{index}-3col-{label}",
            serialize_instance(instance),
            ("--td", WITNESS, "--propagate"),
            witness_to_json(decomposition),
            lambda g=graph: {"kind": "decision", "feasible": brute_three_coloring(g)},
        ))
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# small mixed draw


def _vertex_cover_spec(rng: random.Random, name: str, n: int) -> Spec:
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.5]
    graph = Graph(range(1, n + 1), edges)
    k = rng.randint(1, n)
    text = serialize_instance(reduce_vertex_cover(graph, k))
    return Spec(name, text, (), None,
                lambda: {"kind": "decision", "feasible": brute_vertex_cover(graph, k)})


def _subset_sum_spec(rng: random.Random, name: str, n: int) -> Spec:
    values = tuple(rng.randint(1, 12) for _ in range(n))
    target = rng.randint(1, sum(values) + 2)
    instance, _ = reduce_subset_sum(SubsetSumInstance(values, target))
    return Spec(name, serialize_instance(instance), (), None,
                lambda: {"kind": "decision", "feasible": subset_sum_dp(values, target)})


def has_recession_ray(instance) -> bool:
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


def sweep_reference(instance, box: int, exact: bool) -> dict:
    """Box sweep for points plus the recession-ray test, as in the acceptance
    suite's `_classify`: a feasible point and a ray prove unboundedness.
    ``exact`` marks an instance whose rows confine it to the swept box."""
    swept = brute_force_ilp(instance, box)
    ray = not exact and not instance.objective.is_zero() and has_recession_ray(instance)
    return {"kind": "sweep", "box": box, "exact": exact, "box_status": swept.status,
            "box_value": swept.value, "ray": ray}


def _random_rows(rng: random.Random, n: int, domain: int | None):
    """Rows over n variables with coefficients in [-2, 2].

    With a domain every variable is boxed to [-domain, domain] and the rows
    are drawn freely.  Without one the variables are free and each row is
    made to hold at a planted point in [-3, 3]^n, so the instance is
    feasible and the box sweep of its reference always finds a point.
    """
    names = [f"x{j}" for j in range(n)]
    planted = {nm: rng.randint(-3, 3) for nm in names}
    b = InstanceBuilder()
    for nm in names:
        b.var(nm)
        if domain is not None:
            b.add_le({nm: 1}, domain)
            b.add_le({nm: -1}, domain)
    for _ in range(rng.randint(1, 5)):
        support = rng.sample(names, rng.randint(1, min(4, n)))
        coeffs = {nm: rng.choice((-2, -1, 1, 2)) for nm in support}
        if domain is None:
            rhs = sum(c * planted[nm] for nm, c in coeffs.items()) + rng.randint(0, 3)
        else:
            rhs = rng.randint(-2, 2)
        b.add_le(coeffs, rhs)
    k_obj = rng.randint(0, n)
    b.set_objective({nm: rng.choice((-2, -1, 1, 2)) for nm in rng.sample(names, k_obj)})
    return b.build()


def _free_rows_spec(rng: random.Random, name: str, n: int) -> Spec:
    instance = _random_rows(rng, n, None)
    return Spec(name, serialize_instance(instance), (), None,
                lambda: sweep_reference(instance, 8, exact=False))


def _boxed_rows_spec(rng: random.Random, name: str, n: int) -> Spec:
    domain = 2 if n <= 6 else 1
    instance = _random_rows(rng, n, domain)
    return Spec(name, serialize_instance(instance), (), None,
                lambda: sweep_reference(instance, domain, exact=True))


# (label, maker, sizes): every round draws one instance per size, so rounds
# differ in their draws but not in their mix of families and sizes.  Free
# rows span two variables: over three or four, about 3% of draws stall in
# the solver's first feasibility dive (a known defect), and a benchmark
# workload must not fail.  Three and four variables are drawn boxed instead.
_MIXED_FAMILIES = (
    ("vc", _vertex_cover_spec, (3, 4, 5, 6, 7, 5, 7)),
    ("subsetsum", _subset_sum_spec, (1, 2, 3, 4, 5, 6, 6)),
    ("rows", _free_rows_spec, (2, 2, 2)),
    ("boxed", _boxed_rows_spec, (3, 4, 5, 6, 7, 8)),
)


def _small_mixed_round(rng: random.Random, index: int) -> list[Spec]:
    specs = [
        make(rng, f"r{index}-{label}{k}-n{n}", n)
        for label, make, sizes in _MIXED_FAMILIES
        for k, n in enumerate(sizes)
    ]
    rng.shuffle(specs)
    return specs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "twin-blocks",
            "The acceptance suite's _star_blocks and _forest_blocks families at N in the"
            " hundreds (star 112-115, forest 100-103), run with plain `tdilp solve`. The"
            " kernel collapses N+1 variables to 2, and 2N+1 variables to 3. Here kernelize"
            " takes almost all the time (86% of it is in constraints_touching per the"
            " ROADMAP) and the search is trivial. This workload shows any kernelizer change.",
            30.0,
            _twin_blocks_round,
        ),
        Workload(
            "distinct-star",
            "The star family with pairwise distinct caps (a_i <= 4 + i, shuffled over the"
            " a_i by the seed), N 18 and 19. It has no twins, so kernelize takes"
            " milliseconds and prunes nothing. bounded_search over a 730-780-bit certified"
            " radius takes nearly all of about 1.5 s. This workload shows search changes,"
            " and it should stay flat under kernelizer changes. It is used instead of"
            " --no-kernel so that the benchmark does not depend on a knob.",
            30.0,
            _distinct_star_round,
        ),
        Workload(
            "3col-propagate",
            "reduce_three_coloring of small cycles (C5-C7) and non-3-colorable graphs (K4,"
            " an odd wheel), with their height-8 witness, run with --td W --propagate. It"
            " covers presolve, budget-capped propagation over a ~10^4-bit radius, checking"
            " a given decomposition, and a kernel that signature-checks many subtrees and"
            " removes none. Both optimal and infeasible verdicts appear.",
            30.0,
            _three_col_round,
        ),
        Workload(
            "small-mixed",
            "A seeded draw of small instances: vertex cover on at most 7 vertices,"
            " subset-sum chains, random free rows over 2 variables and boxed rows over 3-8,"
            " with coefficients in [-2, 2]. The free rows make it the only workload with"
            " unbounded verdicts, and it is the one with exact treedepth (at most 12"
            " vertices). The per-call time is mostly the import of tdilp.cli (numpy comes in"
            " through tdilp.oracle) against a millisecond median solve. Free rows over 3-4"
            " variables are left out because about 3% of them stall (a known defect).",
            10.0,
            _small_mixed_round,
        ),
    )
}
