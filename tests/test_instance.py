"""Text model: parsing, canonical serialization, and the instance type."""

import copy
import pickle
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tdilp.bounds import Astronomical, KernelBounds, compute_bounds
from tdilp.formats import serialize_instance
from tdilp.instance import (
    IlpError,
    IlpInstance,
    IlpSyntaxError,
    InstanceBuilder,
    LinearConstraint,
    LinearObjective,
    Record,
    VariableId,
    check_feasible,
    evaluate_objective,
    max_abs_coefficient,
    omit_variables,
    _objective_text,
    parse_instance,
)
from tdilp.kernelizer import EquivalenceWitness, TraceStep
from tdilp.outcome import SolveOutcome
from tdilp.solver import BoxBound, PipelineInfo, solve_pipeline


def test_parse_minimal():
    ins = parse_instance("max: x\nx <= 5\n")
    assert ins.n_variables == 1
    assert ins.n_constraints == 1
    assert ins.objective.coefficient(ins.id_of("x")) == 1
    (c,) = ins.constraints
    assert c.terms == ((ins.id_of("x"), 1),) and c.rhs == 5


def test_parse_assigns_ids_by_name_rank():
    ins = parse_instance("max: zeta + alpha\nzeta + alpha <= 1\nmid <= 2\n")
    assert [v.name for v in ins.variables] == ["alpha", "mid", "zeta"]
    assert ins.id_of("alpha") == 0 and ins.id_of("zeta") == 2


def test_parse_relations():
    ins = parse_instance("max: 0 x\nx >= 2\nx < 9\nx > -4\n")
    keys = {(c.terms, c.rhs) for c in ins.constraints}
    x = ins.id_of("x")
    # >= negates, strict relations narrow by one
    assert (((x, -1),), -2) in keys
    assert (((x, 1),), 8) in keys
    assert (((x, -1),), 3) in keys


def test_parse_equality_becomes_two_rows():
    ins = parse_instance("max: 0 x\nx = 3\n")
    assert ins.n_constraints == 2
    ins2 = parse_instance("max: 0 x\nx == 3\n")
    assert ins2.n_constraints == 2


def test_parse_folds_constants_and_star():
    ins = parse_instance("max: 2*x\n3 x + 1 <= 5\n")
    (c,) = ins.constraints
    assert c.rhs == 4  # additive constants move to the right-hand side
    assert c.coefficient(ins.id_of("x")) == 3


def test_parse_duplicate_rows_dedup():
    ins = parse_instance("max: 0 x\nx <= 1\nx <= 1\n2 x <= 2\n")
    # dedup is per canonical row; 2x <= 2 is a different row than x <= 1
    assert ins.n_constraints == 2


def test_parse_comments_and_blank_lines():
    ins = parse_instance("# heading\nmax: x  # trailing\n\nx <= 1\n")
    assert ins.n_constraints == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(IlpSyntaxError) as e:
        parse_instance("max: x\nx <=\n")
    assert e.value.line == 2
    with pytest.raises(IlpSyntaxError):
        parse_instance("x <= 1\n")  # objective line must come first
    with pytest.raises(IlpSyntaxError) as e:
        parse_instance("max: x\n0 x <= 5\n")
    assert e.value.line == 2
    with pytest.raises(IlpSyntaxError) as e:  # every line is scanned before rows are added
        parse_instance("max: x\n0 x <= 5\nx <=\n")
    assert e.value.line == 3


def test_integer_over_the_int_string_limit_is_a_syntax_error():
    # outside cli.run, which lifts it, the default limit of 4,300 digits holds
    huge = "7" * 5_000
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4_300)
    try:
        for text in (f"max: x\n{huge} x <= 1\n", f"max: x\nx <= {huge}\n"):
            with pytest.raises(IlpSyntaxError) as e:
                parse_instance(text)
            assert e.value.line == 2
            assert "5000 digits" in str(e.value)
            assert huge not in str(e.value)
    finally:
        sys.set_int_max_str_digits(old)


# int() reads each of these as an integer; the format takes ASCII digits only
NON_ASCII_INTEGERS = ["1_0", "\u0663", "\uff13", "\u00b2", "1\u0660"]


@pytest.mark.parametrize("spelling", NON_ASCII_INTEGERS)
@pytest.mark.parametrize(
    "row",
    ["{} x <= 3", "x - {} y <= 3", "x <= {}", "x <= -{}", "x + {} >= 2", "x + {}y <= 3", "x + {}_y <= 3"],
)
def test_integers_are_ascii_digits_on_both_sides(row, spelling):
    with pytest.raises(IlpSyntaxError) as e:
        parse_instance("max: x\n" + row.format(spelling) + "\n")
    assert e.value.line == 2


@pytest.mark.parametrize(
    "text, line",
    [("max: x\nx + 1_0 >= 2\n", 2), ("max: x\nx + 2_y <= 3\n", 2), ("max: 2_x\n", 1),
     ("max: x\n\nx - 3__y <= 1\n", 3)],
)
def test_digits_never_run_into_an_underscore(text, line):
    # a coefficient may touch its name (2x) and a name may start with '_',
    # but 1_0 is no integer and 2_y no term: neither declares _0 or _y
    with pytest.raises(IlpSyntaxError, match="must not run into '_'") as e:
        parse_instance(text)
    assert e.value.line == line
    assert parse_instance("max: x\nx + 2 _y <= 3\n").constraints[0].terms == ((0, 2), (1, 1))


def test_right_hand_side_takes_one_sign():
    assert parse_instance("max: x\nx <= -5\n").constraints[0].rhs == -5
    assert parse_instance("max: x\nx <= +5\n").constraints[0].rhs == 5
    assert parse_instance("max: x\nx <= 007\n").constraints[0].rhs == 7
    for rhs in ("+-5", "--5", "- 5", "5 5", "0x5"):
        with pytest.raises(IlpSyntaxError) as e:
            parse_instance(f"max: x\nx <= {rhs}\n")
        assert e.value.line == 2


_OBJECTIVE_RE = re.compile(r"max\s*:\s*(.*)$")  # the first-line rule as a regex


_SPACE = st.text(st.sampled_from(" \t\u3000\x1f\xa0\x0b\x85"), max_size=3)


@given(
    st.lists(
        st.sampled_from(["max", "MAX", "maxx", ":", " ", "\t", "\u3000", "\x1f", "\xa0", "x", "2 y"])
        | st.text(max_size=3),
        max_size=7,
    ).map("".join)
    | st.tuples(st.sampled_from(["max", "MAX", "maxx", "ma"]), _SPACE, st.sampled_from([":", "", "::"]),
                _SPACE, st.text(max_size=4)).map("".join)
)
@settings(max_examples=500)
def test_objective_line_is_read_as_the_regex_reads_it(text):
    # parse_instance strips each line of text.splitlines() before reading it
    for raw in text.splitlines():
        line = raw.strip()
        m = _OBJECTIVE_RE.match(line)
        try:
            got = _objective_text(line, 1)
        except IlpSyntaxError:
            got = None
        assert got == (m.group(1) if m else None)


def test_serialize_objective_first_and_sorted_rows():
    text = serialize_instance(parse_instance("max: y + 2x\nyy + x <= 3\nx <= 1\n"))
    lines = text.splitlines()
    assert lines[0].startswith("max:")
    assert lines[1:] == sorted(lines[1:])
    assert text.endswith("\n")


def test_serialize_declares_isolated_variables():
    # a variable with no constraints and no objective must still round-trip
    b = InstanceBuilder()
    b.var("lonely")
    b.add_le({"busy": 1}, 2)
    ins = b.build()
    text = serialize_instance(ins)
    again = parse_instance(text)
    assert again == ins
    assert "lonely" in text


def test_serialize_empty_objective():
    assert serialize_instance(parse_instance("max: 0\n")) == "max: 0\n"


def test_roundtrip_is_identity_on_canonical_text():
    text = serialize_instance(parse_instance("max: 2a - b\na + b <= 4\n-a <= 0\nb' <= 9\n"))
    assert serialize_instance(parse_instance(text)) == text


def test_instance_equality_is_name_based():
    a = parse_instance("max: x\nx + y <= 2\n")
    b = parse_instance("max: x\ny + x <= 2\n")
    assert a == b
    assert parse_instance("max: x\nx + y <= 3\n") != a


def test_constraint_normal_form():
    # a parsed row sums the coefficients per name, drops the zero ones (d
    # cancels) and sorts its terms by id, the rank of the name
    ins = parse_instance("max: 0 b\nc + 2a + 0 b - a + c + d - d <= 5\n")
    a, c = ins.id_of("a"), ins.id_of("c")
    assert (a, c) == (0, 2)
    (row,) = ins.constraints
    assert row.terms == ((a, 1), (c, 2)) and row.rhs == 5
    assert row.evaluate({a: 1, c: 1}) == 3
    assert row.is_satisfied({a: 1, c: 2}) and not row.is_satisfied({a: 2, c: 2})


def _record_classes(cls=Record):
    """Every subclass of Record that has fields."""
    for sub in cls.__subclasses__():
        if sub.__slots__:
            yield sub
        yield from _record_classes(sub)


def test_records_are_frozen_values():
    # every record compares and hashes by field, is closed to assignment,
    # survives copy and pickle, and takes exactly its fields by position
    x = VariableId(0, "x")
    assert x != VariableId(1, "x")
    row = LinearConstraint(((0, 1), (1, 2)), 3)
    assert row != LinearConstraint(row.terms, 4)
    assert LinearObjective(row.terms) != row
    ins = IlpInstance([x, VariableId(1, "y")], [row, LinearConstraint(row.terms, 3)], LinearObjective(()))
    assert ins.constraints == (row,)
    outcome, info = solve_pipeline(parse_instance("max: x\nx + y <= 2\n-x <= 0\n-y <= 0\n"))
    records = [
        x, row, LinearObjective(()), LinearObjective(((0, 1),)),
        EquivalenceWitness(0, 1, {0: 1}),
        TraceStep((1,), 0, {0: 1}, {0: "a", 1: "b"}),
        outcome, SolveOutcome("infeasible"),
        BoxBound(3),
        info,
        Astronomical("2^{}", 12345),
        compute_bounds(1, 3),
    ]
    assert {type(r) for r in records} == set(_record_classes())
    assert isinstance(info, PipelineInfo) and isinstance(records[-1], KernelBounds)
    for record in records:
        cls, fields = type(record), [getattr(record, name) for name in record.__slots__]
        same = cls(*fields)
        assert same == record and same is not record
        try:
            assert hash(same) == hash(record)
        except TypeError:  # a dict or an instance among the fields
            pass
        for name in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(TypeError):
            cls(*fields, None)
        # a SolveOutcome's fields after the status have defaults
        if cls is not SolveOutcome:
            with pytest.raises(TypeError):
                cls(*fields[:-1])


def test_objective_can_be_empty():
    o = LinearObjective(())
    assert o.is_zero()
    assert o.evaluate({}) == 0


def test_max_abs_coefficient_ignores_objective():
    ins = parse_instance("max: 9 x\nx <= 2\n")
    assert max_abs_coefficient(ins) == 2
    assert max_abs_coefficient(parse_instance("max: 7 x\n")) == 0
    assert max_abs_coefficient(parse_instance("max: 0 x\n-3 x <= -4\n")) == 4


def test_check_feasible_and_evaluate():
    ins = parse_instance("max: x + 2y\nx + y <= 3\n-x <= 0\n")
    a = {ins.id_of("x"): 1, ins.id_of("y"): 2}
    assert check_feasible(ins, a)
    assert evaluate_objective(ins, a) == 5
    assert not check_feasible(ins, {ins.id_of("x"): -1, ins.id_of("y"): 0})


def test_omit_variables_drops_touching_rows_and_keeps_ids():
    ins = parse_instance("max: a\na <= 1\na + b <= 2\nc <= 3\n")
    trimmed = omit_variables(ins, [ins.id_of("b")])
    assert {v.name for v in trimmed.variables} == {"a", "c"}
    assert trimmed.id_of("a") == ins.id_of("a")
    assert trimmed.id_of("c") == ins.id_of("c")
    kept = {(c.terms, c.rhs) for c in trimmed.constraints}
    assert kept <= {(c.terms, c.rhs) for c in ins.constraints}
    assert trimmed.n_constraints == 2


def test_duplicate_names_rejected():
    with pytest.raises(IlpError):
        IlpInstance([VariableId(0, "x"), VariableId(1, "x")], [], LinearObjective(()))


def test_builder_matches_parser():
    b = InstanceBuilder()
    b.set_objective({"x": 1})
    b.add_le({"x": 1, "y": 1}, 4)
    b.add_ge({"y": 1}, 0)
    built = b.build()
    parsed = parse_instance("max: x\nx + y <= 4\ny >= 0\n")
    assert built == parsed
    assert built.id_of("x") == parsed.id_of("x")


names = st.sampled_from(["a", "b", "c", "d", "e"])
coeffs = st.integers(min_value=-3, max_value=3)


@st.composite
def instances(draw):
    b = InstanceBuilder()
    nrows = draw(st.integers(min_value=0, max_value=5))
    for _ in range(nrows):
        terms = draw(st.dictionaries(names, coeffs, min_size=1, max_size=3))
        if not any(terms.values()):
            terms["a"] = 1
        b.add_le(terms, draw(coeffs))
    obj = draw(st.dictionaries(names, coeffs, max_size=3))
    b.set_objective(obj)
    if not b._known:
        b.var("a")
    return b.build()


@given(instances())
def test_serialize_parse_roundtrip(ins):
    text = serialize_instance(ins)
    again = parse_instance(text)
    assert again == ins
    assert serialize_instance(again) == text


@given(instances(), st.dictionaries(st.integers(0, 4), st.integers(-4, 4)))
def test_evaluate_constraint_matches_sum(ins, partial):
    a = {v.id: partial.get(v.id, 0) for v in ins.variables}
    for c in ins.constraints:
        assert c.evaluate(a) == sum(coef * a[var] for var, coef in c.terms)


# (method, rhs shift) that each relation means for InstanceBuilder
_RELATIONS = {
    "<=": ("add_le", 0),
    "<": ("add_le", -1),
    ">=": ("add_ge", 0),
    ">": ("add_ge", 1),
    "=": ("add_eq", 0),
    "==": ("add_eq", 0),
}
_TEXT_NAMES = ["a", "b", "x_1", "y'", "zz"]
text_names = st.sampled_from(_TEXT_NAMES)
# (coefficient, name or None for a constant, spelling of the coefficient)
text_terms = st.lists(
    st.tuples(coeffs, st.sampled_from([None, *_TEXT_NAMES]), st.integers(0, 3)), min_size=1, max_size=4
)


def _render(terms) -> str:
    chunks = []
    for i, (coeff, name, style) in enumerate(terms):
        mag = abs(coeff)
        if name is None:
            body = str(mag)
        elif mag == 1 and style == 0:
            body = name
        else:
            body = (f"{mag} {name}", f"{mag}{name}", f"{mag}*{name}")[style % 3]
        sign = "-" if coeff < 0 else "+" if i else ""
        chunks.append(f"{sign} {body}" if sign else body)
    return " ".join(chunks)


def _named(terms) -> tuple[dict[str, int], int]:
    named: dict[str, int] = {}
    constant = 0
    for coeff, name, _ in terms:
        if name is None:
            constant += coeff
        else:
            named[name] = named.get(name, 0) + coeff
    return named, constant


@given(
    st.lists(st.tuples(coeffs, text_names, st.integers(0, 3)), min_size=1, max_size=3),
    st.lists(
        st.tuples(text_terms, st.sampled_from(sorted(_RELATIONS)), st.integers(-5, 5)), max_size=5
    ),
)
def test_parser_builds_like_builder(objective, rows):
    lines = [f"max: {_render(objective)}"]
    b = InstanceBuilder()
    obj, _ = _named(objective)
    for name in obj:
        b.var(name)
    b.set_objective(obj)
    empty_line = None
    for line_no, (terms, rel, rhs) in enumerate(rows, start=2):
        lines.append(f"{_render(terms)} {rel} {rhs}")
        named, constant = _named(terms)
        for name in named:
            b.var(name)
        if not any(named.values()):
            empty_line = empty_line or line_no
            continue
        method, shift = _RELATIONS[rel]
        getattr(b, method)(named, rhs - constant + shift)
    text = "\n".join(lines) + "\n"
    if empty_line is not None:
        with pytest.raises(IlpSyntaxError) as e:
            parse_instance(text)
        assert e.value.line == empty_line
        return
    parsed, built = parse_instance(text), b.build()
    assert parsed.variables == built.variables
    assert parsed.constraints == built.constraints
    assert parsed.objective == built.objective
    assert all(parsed.id_of(v.name) == built.id_of(v.name) for v in built.variables)


# pieces of the text format, and of what it is not: every relation, signs,
# '*', comments, names valid and not, digits no ASCII regex would take, and
# digit runs on both sides of the int-string limit
_TEXT_PIECES = st.one_of(
    st.sampled_from(
        ["<=", ">=", "=", "==", "<", ">", "+", "-", "*", "# note", "#", "max:", "max", ":",
         "x", "y2", "_z'", "2x", "1_0", "\u0663", "\u00e9", "\u00b2", "\t"]
    ),
    st.one_of(st.integers(1, 12), st.integers(4_290, 5_000)).map(lambda n: "9" * n),
)


@st.composite
def ilp_texts(draw):
    pieces = draw(st.lists(_TEXT_PIECES, max_size=12))
    seps = draw(st.lists(st.sampled_from(["", " ", "\n"]), min_size=len(pieces), max_size=len(pieces)))
    head = draw(st.sampled_from(["", "max: ", "max: x\n"]))
    return head + "".join(piece + sep for piece, sep in zip(pieces, seps))


@settings(max_examples=300)
@given(ilp_texts())
def test_any_text_parses_or_raises_a_syntax_error(text):
    # an earlier cli.run in this process may have lifted the limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4_300)
    try:
        parse_instance(text)
    except IlpSyntaxError:
        pass
    finally:
        sys.set_int_max_str_digits(old)
