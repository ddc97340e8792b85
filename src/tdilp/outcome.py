"""Solve outcome record shared by the solver, the oracles and the CLI."""

from __future__ import annotations

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
        super().__init__(status, value, assignment, kernel_vars, original_vars)

    def to_json(self, name_of=None) -> str:
        """Render for the CLI; ``name_of`` maps variable ids to names.

        The text is exactly ``json.dumps(doc, indent=2)`` of the outcome's
        fields, written without the json module, which a plain solve would
        otherwise import only for this; a name that needs escaping loads it.
        """
        fields = [("status", _json_str(self.status)), ("value", _json_int(self.value))]
        if self.assignment is None:
            fields.append(("assignment", "null"))
        else:
            name = str if name_of is None else name_of
            named = {name(k): v for k, v in sorted(self.assignment.items())}
            rows = ",\n".join(f"    {_json_str(k)}: {v}" for k, v in named.items())
            fields.append(("assignment", "{\n" + rows + "\n  }" if rows else "{}"))
        if self.kernel_vars is not None:
            fields.append(("kernel_vars", _json_int(self.kernel_vars)))
        if self.original_vars is not None:
            fields.append(("original_vars", _json_int(self.original_vars)))
        return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in fields) + "\n}"


def _json_int(value: int | None) -> str:
    return "null" if value is None else str(value)


def _json_str(text: str) -> str:
    """``text`` as json.dumps writes it.  Variable names and statuses are
    printable ASCII without quotes or backslashes, which json.dumps leaves
    as they are."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # only a string that needs escaping loads it

    return json.dumps(text)
