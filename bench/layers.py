"""Per-layer metrics of a traced run, and which end-to-end metric each
should move on which workload.

Values are means per traced solve unless the unit says otherwise.  Span
times come from the launcher's wrappers: ``<stem>_s`` is inclusive time,
``<stem>.self_s`` excludes the time of nested spans.
"""

from __future__ import annotations

import statistics

from launcher import SPANS

# The layer -> end-to-end mapping, so later changes can cite it by name.
LAYER_MAP = {
    "cli.import_s": "fresh interpreter to tdilp.cli imported; moves solve_p50_s on small-mixed,"
                    " a small fixed cost elsewhere",
    "cli.process_s": "process wall time minus time inside solve_pipeline; moves solve_p50_s on"
                     " small-mixed",
    "instance.parse_s, instance.vars, instance.rows": "move solve_p50_s on twin-blocks (the"
                                                      " largest files)",
    "structure.primal_graph_s, structure.primal_graph_calls": "pipeline and kernelize both"
                                                              " build it; twin-blocks",
    "structure.decompose_s, structure.exact_calls, structure.dfs_calls":
        "compute_treedepth_exact plus dfs_treedepth_heuristic; small-mixed and twin-blocks",
    "structure.verify_s": "checking a given decomposition; 3col-propagate",
    "structure.td_height": "drives later decomposition-guided search; distinct-star and"
                           " 3col-propagate",
    "kernelizer.kernelize_s, kernelizer.touching_scans, kernelizer.signature_calls,"
    " kernelizer.find_pair_calls": "move solve_p50_s on twin-blocks; near zero on distinct-star",
    "kernelizer.equivalence_tests, kernelizer.equivalence_hits,"
    " kernelizer.equivalence_hit_ratio, kernelizer.prune_steps":
        "witnesses found per test_equivalence call is the wasted bijection work; move"
        " kernel_share and solve_p50_s on twin-blocks and 3col-propagate",
    "kernelizer.omit_s": "one instance rebuild per prune step; twin-blocks",
    "kernelizer.lift_s": "twin-blocks",
    "solver.search_s, solver.search_calls": "every bounded_search call, including those inside"
        " detect_unbounded; move solve_p50_s on distinct-star and 3col-propagate, and"
        " solve_tail_s on small-mixed",
    "solver.unbounded_s, solver.unbounded_calls": "distinct-star and small-mixed",
    "solver.core_self_s": "solve_core minus its search children (presolve, radius,"
                          " certificate checks); 3col-propagate",
    "solver.radius_bits": "bit length returned by solution_bound; drives solver.search_s on"
                          " every workload",
    "solver.check_s": "check_feasible plus evaluate_objective called from tdilp.solver; all"
                      " workloads",
    "reductions.generate_s, oracle.reference_s": "set-up layers; move setup_s",
    "trace.overhead_s, trace.overhead_share": "traced minus untraced wall time of the same"
                                              " instances",
}

# values observed once per solve, averaged over solves that reached them
_VALUE_UNITS = {"instance.vars": "vars", "instance.rows": "rows",
                "structure.td_height": "levels", "solver.radius_bits": "bits"}
_COUNTS = ("kernelizer.touching_scans", "kernelizer.signature_calls",
           "kernelizer.equivalence_hits", "kernelizer.prune_steps")


def _count_names() -> list[str]:
    names = []
    for entries in SPANS.values():
        for _, _, count_name, _ in entries:
            if count_name is not None and count_name not in names:
                names.append(count_name)
    return names + list(_COUNTS)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.import_s": "s", "cli.process_s": "s"}
    for stem in SPANS:
        units[f"{stem}_s"] = "s"
        units[f"{stem}.self_s"] = "s"
    units["solver.core_self_s"] = "s"
    units.update({name: "count" for name in _count_names()})
    units["kernelizer.equivalence_hit_ratio"] = "ratio"
    units.update(_VALUE_UNITS)
    units.update({"reductions.generate_s": "s", "oracle.reference_s": "s",
                  "trace.overhead_s": "s", "trace.overhead_share": "ratio"})
    return units


def per_layer(pairs, generate_s: list[float], reference_s: list[float]):
    """(metrics, absent notes) from (untraced run, traced run) pairs of one instance."""
    traced = [t for _, t in pairs if t.trace is not None]
    n = max(len(traced), 1)
    out: dict[str, float] = {}
    absent: list[str] = []

    def total(fn) -> float:
        return sum(fn(t.trace) for t in traced)

    out["cli.import_s"] = sum((t.trace["imported_ns"] - t.spawn_ns) for t in traced) / n / 1e9
    out["cli.process_s"] = sum(
        t.wall_s - t.trace["spans"].get("solver.pipeline", {}).get("incl_ns", 0) / 1e9
        for t in traced
    ) / n
    for stem, entries in SPANS.items():
        for metric, key in ((f"{stem}_s", "incl_ns"), (f"{stem}.self_s", "self_ns")):
            out[metric] = total(lambda tr: tr["spans"].get(stem, {}).get(key, 0)) / n / 1e9
        if stem not in {s for t in traced for s in t.trace["spans"]}:
            names = ", ".join(sorted({fn for _, fn, _, _ in entries}))
            absent.append(f"{stem}: {names} never ran in this workload's solves")

    def core_self(tr) -> int:
        core = tr["spans"].get("solver.core")
        if core is None:
            return 0
        kids = core["children"]
        return core["incl_ns"] - kids.get("solver.search", 0) - kids.get("solver.unbounded", 0)

    out["solver.core_self_s"] = total(core_self) / n / 1e9
    for name in _count_names():
        out[name] = total(lambda tr: tr["counts"].get(name, 0)) / n
    tests = out["kernelizer.equivalence_tests"]
    hits = out["kernelizer.equivalence_hits"]
    out["kernelizer.equivalence_hit_ratio"] = hits / tests if tests else 0.0
    if not tests:
        absent.append("kernelizer.equivalence_hit_ratio: no test_equivalence call to divide by")
    for name in _VALUE_UNITS:
        seen = [t.trace["values"][name] for t in traced if name in t.trace["values"]]
        out[name] = statistics.fmean(seen) if seen else 0.0
        if not seen:
            absent.append(f"{name}: no traced solve reached the call that reports it")
    out["reductions.generate_s"] = statistics.median(generate_s)
    out["oracle.reference_s"] = statistics.median(reference_s)
    plain_wall = sum(p.wall_s for p, _ in pairs)
    traced_wall = sum(t.wall_s for _, t in pairs)
    out["trace.overhead_s"] = (traced_wall - plain_wall) / max(len(pairs), 1)
    out["trace.overhead_share"] = traced_wall / plain_wall - 1 if plain_wall else 0.0
    return out, absent
