"""Data model and text format for integer linear programs.

An instance is a finite set of "less or equal" constraints with integer
coefficients over integer variables, plus an objective that is always
maximized.  Equalities and ">=" rows are normalized away at the border,
so everything downstream reasons about a single row shape.

Text format (UTF-8, ``#`` starts a comment):

    max: <linexpr>          first content line, objective
    <linexpr> <= <int>      one constraint per line; >=, =, < and > are
                            accepted and rewritten into <= rows

A ``linexpr`` is a +/- separated sequence of terms ``<int> <name>`` (the
coefficient 1 may be dropped, ``2x`` and ``2 x`` both work).  An ``<int>``
is ASCII digits; a right-hand side may carry one leading ``+`` or ``-``.
Variables are declared implicitly on first use.  A bare integer term is folded
into the right-hand side.  A zero-coefficient term declares a variable
without contributing anything; the serializer uses this to keep
variables alive that appear in no constraint.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping


class IlpError(Exception):
    """Base error for instance handling."""


class IlpSyntaxError(IlpError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalError(Exception):
    """A self-check failed: a fault in tdilp itself, not in its input."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
# one token of a linexpr: (digits, "_" when the digits run straight into one,
# name, operator, any other character)
_TOKEN_RE = re.compile(rf"\s*(?:([0-9]+)(_?)|({_NAME_RE.pattern})|([+\-*])|(\S))")
# a signed integer in tdilp's text input (right-hand sides, command-line
# options); int() alone would also take "1_0" and digits such as "\u0663"
INT_RE = re.compile(r"[+-]?[0-9]+")


class Record:
    """Immutable value record over the fields named in ``__slots__``.

    Takes its fields by position, in ``__slots__`` order.  Equal to a record
    of the same class with equal fields and hashed by its fields.
    Assignment is closed.  Every ``tdilp solve`` is a fresh process that
    imports the records; importing ``dataclasses`` and building frozen
    dataclasses would cost more than a small solve.
    """

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, not {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is closed
        return self.__class__, self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class VariableId(Record):
    """A variable: dense non-negative index plus a human-readable name."""

    __slots__ = ("id", "name")


class _Terms(Record):
    """Reads over ``terms``: (variable id, coefficient) pairs sorted by id."""

    __slots__ = ()

    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.terms)

    def coefficient(self, var: int) -> int:
        for v, c in self.terms:
            if v == var:
                return c
        return 0

    def evaluate(self, assignment: Mapping[int, int]) -> int:
        total = 0
        for v, c in self.terms:
            if v not in assignment:
                raise IlpError(f"no value for variable id {v}")
            total += c * assignment[v]
        return total


class LinearConstraint(_Terms):
    """A single row  sum(coeff * var) <= rhs  in canonical form.

    ``terms`` holds (variable id, coefficient) pairs sorted by id with no
    zero coefficients; ``terms`` is never empty.
    """

    __slots__ = ("terms", "rhs")

    def is_satisfied(self, assignment: Mapping[int, int]) -> bool:
        return self.evaluate(assignment) <= self.rhs


class LinearObjective(_Terms):
    """Objective terms; the sense is always "maximize"."""

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms


class IlpInstance:
    """An immutable ILP: declared variables, constraint set, objective.

    Constraints are deduplicated and stored in a canonical order.  Two
    instances compare equal when they have the same variable names, the
    same name-keyed constraint set and the same name-keyed objective;
    the internal id numbering does not participate in equality.
    """

    __slots__ = ("variables", "constraints", "objective", "_name_by_id", "_id_by_name")

    def __init__(
        self,
        variables: Iterable[VariableId],
        constraints: Iterable[LinearConstraint] = (),
        objective: LinearObjective | None = None,
    ):
        vs = tuple(sorted(variables, key=lambda v: v.id))
        ids = [v.id for v in vs]
        if len(set(ids)) != len(ids):
            raise IlpError("duplicate variable ids")
        names = [v.name for v in vs]
        if len(set(names)) != len(names):
            raise IlpError("duplicate variable names")
        for v in vs:
            if v.id < 0:
                raise IlpError("variable ids must be non-negative")
            if not _NAME_RE.fullmatch(v.name):
                raise IlpError(f"invalid variable name {v.name!r}")
        self.variables = vs
        self._name_by_id = {v.id: v.name for v in vs}
        self._id_by_name = {v.name: v.id for v in vs}
        declared = set(self._name_by_id)
        seen = {(c.terms, c.rhs): c for c in constraints}
        if not declared.issuperset([v for terms, _ in seen for v, _ in terms]):
            var = next(v for c in seen.values() for v in c.variables() if v not in declared)
            raise IlpError(f"constraint uses undeclared variable id {var}")
        self.constraints = tuple(seen[k] for k in sorted(seen))
        obj = objective if objective is not None else LinearObjective(())
        for var in obj.variables():
            if var not in declared:
                raise IlpError(f"objective uses undeclared variable id {var}")
        self.objective = obj

    # -- introspection -------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables)

    def name_of(self, var: int) -> str:
        return self._name_by_id[var]

    def id_of(self, name: str) -> int:
        return self._id_by_name[name]

    # -- structural equality (name keyed) ------------------------------

    def _name_form(self):
        cons = frozenset(
            (tuple(sorted((self._name_by_id[v], c) for v, c in A.terms)), A.rhs)
            for A in self.constraints
        )
        obj = tuple(sorted((self._name_by_id[v], c) for v, c in self.objective.terms))
        return (frozenset(self._id_by_name), cons, obj)

    def __eq__(self, other):
        if not isinstance(other, IlpInstance):
            return NotImplemented
        return self._name_form() == other._name_form()

    __hash__ = None  # mutable-free but identity hashing would be misleading

    def __repr__(self):
        return (
            f"IlpInstance(n={self.n_variables}, m={self.n_constraints}, "
            f"objective_terms={len(self.objective.terms)})"
        )


# ---------------------------------------------------------------------------
# module-level operations


def evaluate_objective(instance: IlpInstance, assignment: Mapping[int, int]) -> int:
    return instance.objective.evaluate(assignment)


def check_feasible(instance: IlpInstance, assignment: Mapping[int, int]) -> bool:
    """True iff every constraint holds; raises if a needed value is missing."""
    return all(c.is_satisfied(assignment) for c in instance.constraints)


def max_abs_coefficient(instance: IlpInstance) -> int:
    """Largest |coefficient| or |rhs| over the constraint set (0 if empty).

    Objective coefficients deliberately do not count.
    """
    best = 0
    for c in instance.constraints:
        for _, coeff in c.terms:
            best = max(best, abs(coeff))
        best = max(best, abs(c.rhs))
    return best


def omit_variables(
    instance: IlpInstance, drop: Iterable[int], objective: LinearObjective | None = None
) -> IlpInstance:
    """Delete a variable set together with every constraint touching it; the
    objective over the survivors defaults to the instance's own.

    Surviving variables keep their ids and names so that traces recorded
    against the original instance stay meaningful.
    """
    gone = frozenset(drop)
    declared = set(instance.ids())
    unknown = gone - declared
    if unknown:
        raise IlpError(f"cannot omit undeclared variable ids {sorted(unknown)}")
    keep_vars = [v for v in instance.variables if v.id not in gone]
    keep_cons = [
        c for c in instance.constraints if not (gone & set(c.variables()))
    ]
    if objective is None:
        objective = LinearObjective(tuple(t for t in instance.objective.terms if t[0] not in gone))
    return IlpInstance(keep_vars, keep_cons, objective)


# ---------------------------------------------------------------------------
# parsing


def _scan_error(tokens: list[tuple[str, ...]], line_no: int) -> IlpSyntaxError | None:
    """The first token of a linexpr that the grammar cannot scan, as an error."""
    for digits, underscore, _, _, other in tokens:
        if other:
            return IlpSyntaxError(f"unexpected character {other!r}", line_no)
        if underscore:
            return IlpSyntaxError(f"an integer must not run into '_': {digits}_", line_no)
    return None


def _parse_linexpr(text: str, line_no: int, declared: set[str]) -> tuple[dict[str, int], int]:
    """Return (name -> nonzero coefficient, constant) and add every name,
    a zero-coefficient one too, to ``declared``.

    A scan error anywhere in the text is reported before any grammar error.
    """
    tokens = _TOKEN_RE.findall(text)

    def fail(message: str) -> IlpSyntaxError:
        return _scan_error(tokens, line_no) or IlpSyntaxError(message, line_no)

    if not tokens:
        raise IlpSyntaxError("empty expression", line_no)
    terms: dict[str, int] = {}
    constant = 0
    i = 0
    sign = 1
    expect_term = True
    while i < len(tokens):
        digits, underscore, name, op, other = tokens[i]
        if other or underscore:
            raise _scan_error(tokens, line_no)
        if op in ("+", "-"):
            if expect_term and op == "-":
                sign = -sign
                i += 1
                continue
            if expect_term:
                raise fail("misplaced '+'")
            sign = -1 if op == "-" else 1
            expect_term = True
            i += 1
            continue
        if not expect_term:
            raise fail(f"expected '+' or '-' before {digits or name or op!r}")
        if digits:
            coeff = sign * _to_int(digits, line_no)
            i += 1
            if i < len(tokens) and tokens[i][3] == "*":
                i += 1
                if i >= len(tokens) or not tokens[i][2]:
                    raise fail("expected variable name after '*'")
            if i < len(tokens) and tokens[i][2]:
                name = tokens[i][2]
                declared.add(name)
                terms[name] = terms.get(name, 0) + coeff
                i += 1
            else:
                constant += coeff
        elif name:
            declared.add(name)
            terms[name] = terms.get(name, 0) + sign
            i += 1
        else:
            raise fail(f"unexpected token {op!r}")
        sign = 1
        expect_term = False
    if expect_term:
        raise fail("dangling sign at end of expression")
    if 0 in terms.values():
        terms = {n: c for n, c in terms.items() if c}
    return terms, constant


def _to_int(text: str, line_no: int) -> int:
    """int() of text whose syntax is checked, so only the int-string limit is left."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise IlpSyntaxError(f"integer of {digits} digits is over the int-string limit", line_no) from None


_REL_RE = re.compile(r"(<=|>=|==|=|<|>)")


def _objective_text(line: str, line_no: int) -> str:
    """The expression on a stripped ``max: <expression>`` line (lstrip drops what \\s matches)."""
    rest = line[3:].lstrip()
    if not (line.startswith("max") and rest.startswith(":")):
        raise IlpSyntaxError("first line must be 'max: <expression>'", line_no)
    return rest[1:].lstrip()


def parse_instance(text: str) -> IlpInstance:
    """Parse the text format into a normalized instance.

    Rows go through ``InstanceBuilder``, so ids are assigned by the
    lexicographic rank of the variable name: parsing is insensitive to the
    order in which lines mention variables and ``parse(serialize(i))``
    reproduces ``i`` exactly for any instance that came out of this function.
    Every line is scanned before any row is added, so a scan error on a later
    line wins over an empty row on an earlier one.
    """
    builder = InstanceBuilder()
    declared, rows = builder._known, builder._rows
    objective_terms: dict[str, int] | None = None
    empty_row = None  # the first row without variables

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if objective_terms is None:
            objective_terms, constant = _parse_linexpr(_objective_text(line, line_no), line_no, declared)
            if constant != 0:
                raise IlpSyntaxError("objective must not contain a constant term", line_no)
            continue
        rel = _REL_RE.search(line)
        if not rel:
            raise IlpSyntaxError("constraint needs one of <=, >=, =, <, >", line_no)
        lhs_text, op, rhs_text = line[: rel.start()], rel.group(1), line[rel.end() :].strip()
        terms, constant = _parse_linexpr(lhs_text, line_no, declared)
        if not INT_RE.fullmatch(rhs_text):
            raise IlpSyntaxError(f"expected an integer, got {rhs_text!r}", line_no)
        rhs = _to_int(rhs_text, line_no) - constant
        # each row is normalized once, here and in build(): its names are
        # declared and its terms merged
        if not terms:
            empty_row = empty_row or line_no
        else:
            if op in ("<=", "<", "=", "=="):
                rows.append((terms, rhs - 1 if op == "<" else rhs))
            if op in (">=", ">", "=", "=="):
                rows.append(({n: -c for n, c in terms.items()}, -(rhs + 1 if op == ">" else rhs)))

    if objective_terms is None:
        raise IlpSyntaxError("missing objective line", 1)
    if empty_row is not None:
        raise IlpSyntaxError("constraint has no variables", empty_row)
    builder._objective = objective_terms
    return builder.build()


# ---------------------------------------------------------------------------
# programmatic construction


class InstanceBuilder:
    """Accumulates rows keyed by variable name, then builds a normalized instance.

    This is the one code path from named rows to an ``IlpInstance``;
    ``parse_instance`` builds through it, filling the declared names and the
    rows directly, since its rows come out of the scan merged and declared.
    ``add_ge`` and ``add_eq`` fold into ``<=`` rows, and ``build`` numbers
    ids by the lexicographic rank of the name, so built instances serialize
    and reload unchanged.
    """

    def __init__(self):
        self._known: set[str] = set()
        # rows and objective keep declared names with nonzero coefficients
        self._rows: list[tuple[dict[str, int], int]] = []
        self._objective: dict[str, int] = {}

    def var(self, name: str) -> str:
        if name not in self._known:
            if not _NAME_RE.fullmatch(name):
                raise IlpError(f"invalid variable name {name!r}")
            self._known.add(name)
        return name

    def _cleaned(self, terms: Mapping[str, int], sign: int = 1) -> dict[str, int]:
        cleaned = {self.var(n): sign * c for n, c in terms.items() if c != 0}
        if not cleaned:
            raise IlpError("constraint has no variables")
        return cleaned

    def add_le(self, terms: Mapping[str, int], rhs: int):
        self._rows.append((self._cleaned(terms), rhs))

    def add_ge(self, terms: Mapping[str, int], rhs: int):
        self._rows.append((self._cleaned(terms, -1), -rhs))

    def add_eq(self, terms: Mapping[str, int], rhs: int):
        self.add_le(terms, rhs)
        self.add_ge(terms, rhs)

    def set_objective(self, terms: Mapping[str, int]):
        self._objective = {self.var(n): c for n, c in terms.items() if c != 0}

    def build(self) -> IlpInstance:
        ids = {name: i for i, name in enumerate(sorted(self._known))}
        variables = [VariableId(i, n) for n, i in ids.items()]
        id_of = ids.__getitem__

        def by_id(terms: dict[str, int]) -> tuple[tuple[int, int], ...]:
            # names map to distinct ids and zeros are gone: nothing to merge
            return tuple(sorted(zip(map(id_of, terms), terms.values())))

        constraints = [LinearConstraint(by_id(terms), rhs) for terms, rhs in self._rows]
        return IlpInstance(variables, constraints, LinearObjective(by_id(self._objective)))
