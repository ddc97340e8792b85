"""Solve outcome record shared by the solver, the oracles and the CLI."""

from __future__ import annotations

import json

from .instance import Record

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
BOUND_EXHAUSTED = "bound_exhausted"
BOX_OPTIMAL = "box_optimal"

_STATUSES = (OPTIMAL, INFEASIBLE, UNBOUNDED, BOUND_EXHAUSTED, BOX_OPTIMAL)


class SolveOutcome(Record):
    """Result of an exact solve.

    ``value`` and ``assignment`` (variable id -> value) are populated only
    for ``optimal`` and ``box_optimal`` (the maximum over a user-shrunk box
    that some point outside the box beats).  ``kernel_vars`` /
    ``original_vars`` report how many variables the search actually ran on
    versus how many came in.
    """

    __slots__ = ("status", "value", "assignment", "kernel_vars", "original_vars")

    def __init__(
        self,
        status: str,
        value: int | None = None,
        assignment: dict[int, int] | None = None,
        kernel_vars: int | None = None,
        original_vars: int | None = None,
    ):
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        if status in (OPTIMAL, BOX_OPTIMAL):
            if value is None or assignment is None:
                raise ValueError(f"{status} outcome needs value and assignment")
        elif assignment is not None or value is not None:
            raise ValueError(f"{status} outcome must not carry a solution")
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "kernel_vars", kernel_vars)
        object.__setattr__(self, "original_vars", original_vars)

    def to_json(self, name_of=None) -> str:
        """Render for the CLI; ``name_of`` maps variable ids to names."""
        doc: dict = {"status": self.status, "value": self.value}
        if self.assignment is None:
            doc["assignment"] = None
        else:
            if name_of is None:
                doc["assignment"] = {str(k): v for k, v in sorted(self.assignment.items())}
            else:
                doc["assignment"] = {
                    name_of(k): v for k, v in sorted(self.assignment.items())
                }
        if self.kernel_vars is not None:
            doc["kernel_vars"] = self.kernel_vars
        if self.original_vars is not None:
            doc["original_vars"] = self.original_vars
        return json.dumps(doc, indent=2, sort_keys=False)
