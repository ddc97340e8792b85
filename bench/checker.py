"""Verdict checking for one `tdilp solve` process.

``classify`` turns what a process left behind (exit code, stdout, stderr,
whether it was killed at the time limit) into one of four kinds:

- ``correct``: the printed verdict agrees with the reference;
- ``wrong``: it disagrees (a wrong verdict, value, kernel size or certificate);
- ``timeout``: no verdict within the time limit;
- ``crash``: a traceback, unparsable output, or an exit code that is not the
  printed verdict's code.

Every kind but ``correct`` counts as a failed instance.
"""

from __future__ import annotations

import json

from tdilp import check_feasible, evaluate_objective, parse_instance

EXIT_CODES = {"optimal": 0, "unbounded": 0, "infeasible": 1, "bound_exhausted": 3}


def classify(
    instance_text: str,
    reference: dict,
    returncode: int | None,
    stdout: str,
    stderr: str,
    timed_out: bool,
) -> tuple[str, str, dict | None]:
    """(kind, detail, outcome document or None)."""
    if timed_out:
        return "timeout", "no verdict within the time limit", None
    if "Traceback" in stderr:
        return "crash", stderr.strip().splitlines()[-1], None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "crash", f"exit {returncode} without outcome JSON", None
    if not isinstance(doc, dict) or doc.get("status") not in EXIT_CODES:
        return "crash", f"exit {returncode} with an unknown status", None
    if returncode != EXIT_CODES[doc["status"]]:
        return "crash", f"exit {returncode} for status {doc['status']}", None
    defect = verdict_defect(parse_instance(instance_text), reference, doc)
    if defect:
        return "wrong", defect, doc
    return "correct", "", doc


def verdict_defect(instance, reference: dict, doc: dict) -> str | None:
    """Why the outcome document disagrees with the reference, or None."""
    status = doc["status"]
    if doc.get("original_vars") != instance.n_variables:
        return f"original_vars {doc.get('original_vars')} != {instance.n_variables}"
    kernel_vars = doc.get("kernel_vars")
    if not isinstance(kernel_vars, int) or not 1 <= kernel_vars <= instance.n_variables:
        return f"kernel_vars {kernel_vars!r} out of range"
    if status == "optimal":
        defect = _certificate_defect(instance, doc)
        if defect:
            return defect

    kind = reference["kind"]
    if kind == "closed":
        if status != reference["status"] or doc["value"] != reference["value"]:
            want = f"{reference['status']}/{reference['value']}"
            return f"{status}/{doc['value']} vs closed form {want}"
        if kernel_vars != reference["kernel_vars"]:
            return f"kernel_vars {kernel_vars} vs closed form {reference['kernel_vars']}"
        return None
    if kind == "decision":
        want = "optimal" if reference["feasible"] else "infeasible"
        if status != want:
            return f"{status} vs oracle {want}"
        return None
    if kind == "sweep":
        return _sweep_defect(reference, status, doc["value"])
    raise ValueError(f"unknown reference kind {kind!r}")


def _certificate_defect(instance, doc: dict) -> str | None:
    assignment = doc.get("assignment")
    names = sorted(v.name for v in instance.variables)
    if not isinstance(assignment, dict) or sorted(assignment) != names:
        return "assignment does not cover the instance's variables"
    by_id = {instance.id_of(name): value for name, value in assignment.items()}
    if not all(isinstance(value, int) for value in by_id.values()):
        return "assignment has a non-integer value"
    if not check_feasible(instance, by_id):
        return "assignment violates a constraint"
    if evaluate_objective(instance, by_id) != doc["value"]:
        return f"assignment has value {evaluate_objective(instance, by_id)}, not {doc['value']}"
    return None


def _sweep_defect(ref: dict, status: str, value) -> str | None:
    """The acceptance suite's `_classify` rules against a precomputed sweep."""
    found = ref["box_status"] == "optimal"
    if status == "optimal":
        if found and ref["box_value"] > value:
            return f"optimal {value} but the box sweep reaches {ref['box_value']}"
        if ref["exact"] and (not found or ref["box_value"] != value):
            return f"optimal {value} vs exact sweep {ref['box_status']}/{ref['box_value']}"
        if found and ref["ray"]:
            return "optimal, but a feasible point and a recession ray exist"
        return None
    if status == "infeasible":
        return "infeasible, but the box sweep found a point" if found else None
    if status == "unbounded":
        if not ref["ray"]:
            return "unbounded, but no recession ray exists"
        if not found:
            return f"unbounded without a feasible point in box {ref['box']}"
        return None
    return f"unexpected status {status}"
