"""Traced `tdilp` entry point: ``python3 launcher.py SPANS_OUT solve FILE [flags]``.

It imports ``tdilp.cli``, replaces the public entry points listed in
``SPANS`` and ``COUNTS`` at their module attributes with timing or counting
wrappers, and then runs ``tdilp.cli.main`` with the remaining arguments.
Stdout and the exit code are those of ``tdilp``.  On exit, or on SIGTERM
at the benchmark's time limit, it writes a JSON summary to SPANS_OUT:
per span stem its inclusive and self nanoseconds and the time spent in
each child stem, plus call counters and values observed at the spans.

No package source is edited and no ``_``-prefixed function is wrapped.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from functools import wraps

# stem -> ((module, function, count name, modules whose attribute is replaced), ...)
# A count name of None counts nothing (the call count is one per solve).  An
# empty tuple of modules means every tdilp module that binds the function.
SPANS = {
    "instance.parse": (("tdilp.instance", "parse_instance", None, ()),),
    "structure.primal_graph": (
        ("tdilp.structure", "build_primal_graph", "structure.primal_graph_calls", ()),
    ),
    "structure.decompose": (
        ("tdilp.structure", "compute_treedepth_exact", "structure.exact_calls", ()),
        ("tdilp.structure", "dfs_treedepth_heuristic", "structure.dfs_calls", ()),
    ),
    "structure.verify": (
        ("tdilp.structure", "verify_treedepth_decomposition", "structure.verify_calls", ()),
    ),
    "kernelizer.kernelize": (("tdilp.kernelizer", "kernelize", None, ()),),
    "kernelizer.prune_step": (
        ("tdilp.kernelizer", "prune_step", "kernelizer.prune_step_calls", ()),
    ),
    "kernelizer.find_pair": (
        ("tdilp.kernelizer", "find_equivalent_pair", "kernelizer.find_pair_calls", ()),
    ),
    "kernelizer.equivalence": (
        ("tdilp.kernelizer", "test_equivalence", "kernelizer.equivalence_tests", ()),
    ),
    "kernelizer.omit": (
        ("tdilp.instance", "omit_variables", "kernelizer.omit_calls", ("tdilp.kernelizer",)),
    ),
    "kernelizer.lift": (("tdilp.kernelizer", "lift_solution", None, ()),),
    "solver.pipeline": (("tdilp.solver", "solve_pipeline", None, ()),),
    "solver.core": (("tdilp.solver", "solve_core", None, ()),),
    "solver.search": (("tdilp.solver", "bounded_search", "solver.search_calls", ()),),
    "solver.unbounded": (("tdilp.solver", "detect_unbounded", "solver.unbounded_calls", ()),),
    "solver.radius": (("tdilp.solver", "solution_bound", "solver.radius_calls", ()),),
    "solver.check": (
        ("tdilp.instance", "check_feasible", "solver.check_calls", ("tdilp.solver",)),
        ("tdilp.instance", "evaluate_objective", "solver.check_calls", ("tdilp.solver",)),
    ),
}

# Called too often for a span to be cheap: counted only.
COUNTS = (
    ("tdilp.kernelizer", "constraints_touching", "kernelizer.touching_scans"),
    ("tdilp.kernelizer", "subtree_signature", "kernelizer.signature_calls"),
)


def _observe(stem: str, args, kwargs, result, values: dict, counts: dict) -> None:
    """Facts read off arguments and results at span boundaries."""
    if stem == "instance.parse":
        values["instance.vars"] = max(values.get("instance.vars", 0), result.n_variables)
        values["instance.rows"] = max(values.get("instance.rows", 0), result.n_constraints)
    elif stem == "kernelizer.kernelize":
        decomposition = args[1] if len(args) > 1 else kwargs["decomposition"]
        height = decomposition.height
        values["structure.td_height"] = max(values.get("structure.td_height", 0), height)
    elif stem == "solver.radius":
        bits = result.radius.bit_length()
        values["solver.radius_bits"] = max(values.get("solver.radius_bits", 0), bits)
    elif stem == "kernelizer.equivalence" and result is not None:
        counts["kernelizer.equivalence_hits"] = counts.get("kernelizer.equivalence_hits", 0) + 1
    elif stem == "kernelizer.prune_step" and result is not None:
        counts["kernelizer.prune_steps"] = counts.get("kernelizer.prune_steps", 0) + 1


class Tracer:
    """Span stack with per-stem inclusive, self and per-child totals.

    Inclusive time is added only for the outermost open span of a stem, so
    a stem nested in itself is not counted twice.
    """

    def __init__(self):
        self.stack: list[list] = []  # [stem, start_ns, child_ns, per-child-stem ns]
        self.open: dict[str, int] = {}
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self.values: dict[str, int] = {}

    def _totals(self, stem: str) -> dict:
        return self.spans.setdefault(stem, {"incl_ns": 0, "self_ns": 0, "children": {}})

    def span(self, stem: str, count_name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if count_name is not None:
                self.counts[count_name] = self.counts.get(count_name, 0) + 1
            frame = [stem, time.perf_counter_ns(), 0, {}]
            self.stack.append(frame)
            self.open[stem] = self.open.get(stem, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            _observe(stem, args, kwargs, result, self.values, self.counts)
            return result

        return wrapper

    def _close(self, frame) -> None:
        # a SIGTERM raised mid-bookkeeping can leave an inner frame open
        while self.stack and self.stack[-1] is not frame:
            self._close(self.stack[-1])
        if not self.stack:
            return
        stem, start, child_ns, per_child = frame
        duration = time.perf_counter_ns() - start
        self.stack.pop()
        self.open[stem] -= 1
        totals = self._totals(stem)
        totals["self_ns"] += duration - child_ns
        for child, ns in per_child.items():
            totals["children"][child] = totals["children"].get(child, 0) + ns
        if self.open[stem] == 0:
            totals["incl_ns"] += duration
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent[3][stem] = parent[3].get(stem, 0) + duration

    def close_all(self) -> None:
        while self.stack:
            self._close(self.stack[-1])

    def counter(self, count_name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[count_name] = self.counts.get(count_name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    """Replace each target at every tdilp module attribute bound to it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "tdilp" or name.startswith("tdilp."))]
    targets = [(stem, *entry) for stem, entries in SPANS.items() for entry in entries]
    targets += [(None, module, fn, count, ()) for module, fn, count in COUNTS]
    for stem, owner, fn_name, count_name, sites in targets:
        original = getattr(sys.modules[owner], fn_name)
        if stem is None:
            wrapped = tracer.counter(count_name, original)
        else:
            wrapped = tracer.span(stem, count_name, original)
        for module in modules:
            if sites and module.__name__ not in sites:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


class _Terminated(BaseException):
    """Raised in the traced program when the benchmark's time limit hits."""


def _on_sigterm(signum, frame):
    raise _Terminated()


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import tdilp.cli

    imported_ns = time.perf_counter_ns()
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGTERM, _on_sigterm)
    code = 0
    sys.argv = ["tdilp", *argv]
    try:
        tdilp.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except _Terminated:
        code = 124
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let the summary be written whole
        tracer.close_all()
        summary = {
            "imported_ns": imported_ns,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "values": tracer.values,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
