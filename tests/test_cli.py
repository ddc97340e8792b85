"""The command-line surface, driven through run() for speed."""

import gc
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdilp
import tdilp.cli
import tdilp.twins
from tdilp import (
    InstanceBuilder,
    check_feasible,
    evaluate_objective,
    parse_instance,
    serialize_instance,
    solve_pipeline,
)
from tdilp.cli import run
from tdilp.commands import build_parser
from tdilp.oracle import brute_force_ilp

TWO_BLOCKS = (
    "max: z\n"
    "z <= 5\n"
    "z - a1 <= 0\n"
    "a1 <= 4\n"
    "z - a2 <= 0\n"
    "a2 <= 4\n"
)


@pytest.fixture
def two_blocks(tmp_path):
    f = tmp_path / "blocks.ilp"
    f.write_text(TWO_BLOCKS)
    return str(f)


@pytest.fixture
def triangle(tmp_path):
    f = tmp_path / "triangle.graph"
    f.write_text("3\n1 2\n2 3\n1 3\n")
    return str(f)


def test_analyze(two_blocks, capsys):
    assert run(["analyze", two_blocks]) == 0
    out = capsys.readouterr().out
    assert "variables: 3" in out
    assert "constraints: 5" in out
    assert "ell: 5" in out
    assert "treedepth: 2 (exact)" in out


@pytest.mark.parametrize("n, line", [
    (12, "treedepth: 4 (exact)\n"),  # ceil(log2(12 + 1))
    (13, "treedepth: <= 12 (dfs heuristic)\n"),  # DFS from x1 walks to x12
])
def test_analyze_reports_exact_treedepth_up_to_twelve_vertices(tmp_path, capsys, n, line):
    f = tmp_path / "path.ilp"
    f.write_text("max: 0\n" + "".join(f"x{i} - x{i + 1} <= 0\n" for i in range(n - 1)))
    assert run(["analyze", str(f)]) == 0
    assert capsys.readouterr().out.endswith(line)


def test_analyze_writes_witness(two_blocks, tmp_path, capsys):
    w = tmp_path / "witness.json"
    assert run(["analyze", two_blocks, "--witness-out", str(w)]) == 0
    doc = json.loads(w.read_text())
    assert doc["kind"] == "treedepth"


def test_solve_optimal(two_blocks, capsys):
    assert run(["solve", two_blocks]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal"
    assert doc["value"] == 4
    assert doc["assignment"]["z"] == 4
    assert doc["kernel_vars"] == 2
    assert doc["original_vars"] == 3


def test_solve_infeasible_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.ilp"
    f.write_text("max: x\nx <= 0\n-x <= -1\n")
    assert run(["solve", str(f)]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


def test_solve_unbounded(tmp_path, capsys):
    f = tmp_path / "ray.ilp"
    f.write_text("max: x\n-x <= 0\n")
    assert run(["solve", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "unbounded"


def test_solve_bound_exhausted_exit_code(tmp_path, capsys):
    f = tmp_path / "far.ilp"
    f.write_text("max: x\nx <= 40\n-x <= -30\n")
    assert run(["solve", str(f), "--bound", "7"]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "bound_exhausted"


def test_solve_bound_beaten_outside_the_box(tmp_path, capsys):
    f = tmp_path / "cap.ilp"
    f.write_text("max: x\nx <= 5\n")
    # x = 5 lies outside the box [-1, 1], so its maximum 1 is not optimal
    assert run(["solve", str(f), "--bound", "1"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], doc["value"], doc["assignment"]) == ("box_optimal", 1, {"x": 1})
    assert run(["solve", str(f), "--bound", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "optimal"


def test_solve_with_explicit_witness(two_blocks, tmp_path, capsys):
    w = tmp_path / "w.json"
    assert run(["analyze", two_blocks, "--witness-out", str(w)]) == 0
    capsys.readouterr()
    assert run(["solve", two_blocks, "--td", str(w)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 4


def test_solve_rejects_treewidth_witness_for_td(two_blocks, tmp_path, capsys):
    # hand it a treewidth witness where a treedepth one is required
    f = tmp_path / "tw.json"
    f.write_text(json.dumps({"kind": "treewidth", "parent": [-1], "bags": [[0, 1, 2]]}))
    assert run(["solve", two_blocks, "--td", str(f)]) == 2


@pytest.mark.parametrize("parent", [
    [-1, -1, 0],  # z (id 2) hangs under a1, away from a2: not vertical
    [-1, 0],  # two nodes for three variables
])
def test_solve_rejects_invalid_td_witness(two_blocks, tmp_path, capsys, parent):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"kind": "treedepth", "parent": parent}))
    assert run(["solve", two_blocks, "--td", str(w)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("doc", [
    {"kind": "treewidth", "parent": [-1], "bags": [5]},
    {"kind": "treewidth", "parent": [-1], "bags": [[[1]]]},
    {"kind": "treedepth", "parent": [True, 2, -1]},  # true must not read as node 1
])
@pytest.mark.parametrize("flag", ["--witness", "--td"])
def test_malformed_witness_is_an_input_error(two_blocks, tmp_path, capsys, doc, flag):
    w = tmp_path / "w.json"
    w.write_text(json.dumps(doc))
    command = "verify" if flag == "--witness" else "solve"
    assert run([command, two_blocks, flag, str(w)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_kernelize_lift_roundtrip(two_blocks, tmp_path, capsys):
    kern = tmp_path / "kernel.ilp"
    trace = tmp_path / "trace.json"
    assert run(["kernelize", two_blocks, "-o", str(kern), "--trace", str(trace)]) == 0
    assert "kernel: 2 of 3 variables, 1 pruning steps" in capsys.readouterr().out

    sol = tmp_path / "sol.json"
    assert run(["solve", str(kern)]) == 0
    sol.write_text(capsys.readouterr().out)

    assert run(["lift", "--trace", str(trace), "--solution", str(sol)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal"
    assert doc["value"] == 4
    assert doc["assignment"] == {"a1": 4, "a2": 4, "z": 4}
    assert doc["kernel_vars"] == 2
    assert doc["original_vars"] == 3


GOOD_STEP = {"omitted": [1], "keeper_root": 0, "delta": {"0": 1}, "names": {"0": "a1", "1": "a2"}}
KERNEL_SOLUTION = {"status": "optimal", "value": 4, "assignment": {"a1": 4, "z": 4}}


@pytest.mark.parametrize("trace,solution", [
    ([{**GOOD_STEP, "delta": [[0, 1]]}], KERNEL_SOLUTION),  # delta is not an object
    ([{**GOOD_STEP, "names": {"0": "a1"}}], KERNEL_SOLUTION),  # id 1 has no name
    ([GOOD_STEP], [KERNEL_SOLUTION]),  # the solution is not an object
    ([{**GOOD_STEP, "omitted": [True]}], KERNEL_SOLUTION),  # would read as id 1
    ([{**GOOD_STEP, "keeper_root": 0.9}], KERNEL_SOLUTION),  # would read as id 0
    ([{**GOOD_STEP, "delta": {"0": 1.7}}], KERNEL_SOLUTION),  # would read as id 1
    # id keys that int() reads as 10, 0 and 3
    ([{**GOOD_STEP, "delta": {"1_0": 1}, "names": {**GOOD_STEP["names"], "10": "z"}}], KERNEL_SOLUTION),
    ([{**GOOD_STEP, "delta": {" 0": 1}}], KERNEL_SOLUTION),
    ([{**GOOD_STEP, "delta": {"\u0663": 1}, "names": {**GOOD_STEP["names"], "3": "z"}}], KERNEL_SOLUTION),
    # the solution itself must be an outcome that a solve can print
    ([GOOD_STEP], {**KERNEL_SOLUTION, "status": "banana"}),
    ([GOOD_STEP], {"value": 4, "assignment": {"a1": 4, "z": 4}}),
    ([GOOD_STEP], {**KERNEL_SOLUTION, "status": "infeasible"}),
    ([GOOD_STEP], {**KERNEL_SOLUTION, "status": "infeasible", "value": None}),
    ([GOOD_STEP], {**KERNEL_SOLUTION, "value": None}),
    ([GOOD_STEP], {**KERNEL_SOLUTION, "value": "x"}),
    ([GOOD_STEP], {**KERNEL_SOLUTION, "value": 4.0}),
    ([GOOD_STEP], {**KERNEL_SOLUTION, "value": True}),
    ([GOOD_STEP], {**KERNEL_SOLUTION, "assignment": {"a1": "four", "z": 4}}),
    ([GOOD_STEP], {**KERNEL_SOLUTION, "assignment": {"a1": True, "z": 4}}),
    ([GOOD_STEP], {**KERNEL_SOLUTION, "assignment": {"a1": 4, "z": 4.5}}),
], ids=[
    "delta-not-object", "unnamed-id", "solution-not-object",
    "omitted-bool", "keeper-root-float", "delta-float",
    "key-underscore", "key-space", "key-arabic-digit",
    "status-unknown", "status-missing", "infeasible-with-solution", "infeasible-with-assignment",
    "optimal-without-value", "value-string", "value-float", "value-bool",
    "coordinate-string", "coordinate-bool", "coordinate-float",
])
def test_lift_rejects_malformed_input(tmp_path, capsys, trace, solution):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(solution))
    assert run(["lift", "--trace", str(trace_file), "--solution", str(sol)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_generate_vc_to_stdout(triangle, capsys):
    assert run(["generate", "vc", "--graph", triangle, "--k", "2"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("max:")
    assert "v1" in text and "x1" in text


def test_generate_3col_with_witness_and_verify(triangle, tmp_path, capsys):
    ins = tmp_path / "threecol.ilp"
    w = tmp_path / "w.json"
    assert run(["generate", "3col", "--graph", triangle, "-o", str(ins), "--witness", str(w)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {ins}" in out

    assert run(["verify", str(ins), "--witness", str(w)]) == 0
    msg = capsys.readouterr().out
    assert "treedepth witness: valid, height 8" in msg


def test_generate_subsetsum_with_witness_and_verify(tmp_path, capsys):
    ins = tmp_path / "ss.ilp"
    w = tmp_path / "w.json"
    assert (
        run(["generate", "subsetsum", "--values", "1,2,3", "--target", "6", "-o", str(ins), "--witness", str(w)])
        == 0
    )
    capsys.readouterr()
    assert run(["verify", str(ins), "--witness", str(w)]) == 0
    msg = capsys.readouterr().out
    assert "treewidth witness: valid, width 2" in msg

    assert run(["solve", str(ins), "--propagate"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "optimal"


def test_generate_vc_witness_flag_rejected(triangle, tmp_path, capsys):
    w = tmp_path / "w.json"
    code = run(["generate", "vc", "--graph", triangle, "--k", "1", "-o", str(tmp_path / "o.ilp"), "--witness", str(w)])
    assert code == 2


def test_verify_rejects_corrupted_witness(two_blocks, tmp_path, capsys):
    w = tmp_path / "w.json"
    # z (id 2) is adjacent to both blocks; a forest that splits them is wrong
    w.write_text(json.dumps({"kind": "treedepth", "parent": [-1, -1, 0]}))
    assert run(["verify", two_blocks, "--witness", str(w)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_oracle_ilp(two_blocks, capsys):
    assert run(["oracle", "ilp", two_blocks, "--box", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 4


def test_oracle_ilp_without_numpy(two_blocks, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy now fails
    assert run(["oracle", "ilp", two_blocks, "--box", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "'test' extra" in captured.err


# the modules every `tdilp solve` process loads
SOLVE_PATH = {
    "tdilp",
    "tdilp.cli",
    "tdilp.instance",
    "tdilp.kernelizer",
    "tdilp.outcome",
    "tdilp.solver",
    "tdilp.structure",
}


def _imported(stderr: str) -> set[str]:
    # -X importtime writes a line to stderr for every module the run imports
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


def test_cli_import_leaves_numpy_out(two_blocks, triangle, tmp_path):
    # every `tdilp solve` is a fresh process that compiles what it imports,
    # so the CLI loads the oracles (and numpy), the generators,
    # dataclasses and every other command's code only for the commands
    # that run them
    src = str(Path(tdilp.__file__).resolve().parents[1])
    unwanted = ["tdilp.oracle", "tdilp.reductions", "dataclasses", "numpy"]
    code = (
        f"import sys, tdilp.cli; print([m for m in {unwanted!r} if m in sys.modules]);"
        " print(sorted(m for m in sys.modules if m.split('.')[0] == 'tdilp'))"
    )
    # exact treedepth and the text writer are not even names on the solve path
    code += (
        "; print([(m, n) for m in sorted(sys.modules) if m.split('.')[0] == 'tdilp'"
        " for n in ('compute_treedepth_exact', 'serialize_instance') if n in vars(sys.modules[m])])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", repr(sorted(SOLVE_PATH)), "[]"]
    # their old names still resolve, to the moved functions
    assert tdilp.structure.compute_treedepth_exact is tdilp.bounds.compute_treedepth_exact
    assert tdilp.compute_treedepth_exact is tdilp.bounds.compute_treedepth_exact
    assert tdilp.serialize_instance is tdilp.formats.serialize_instance
    for name in ("test_equivalence", "find_equivalent_pair", "prune_step",
                 "constraints_touching", "subtree_signature"):
        assert getattr(tdilp.kernelizer, name) is getattr(tdilp.twins, name)

    # a solve loads exactly the solve path, plus the twin search for twins
    # whose names keep no common order (two twin paths under shuffled names)
    # and the presolve under --propagate (-m runs tdilp.cli as __main__, so
    # no import line names it)
    one, tri, tri_witness = tmp_path / "one.ilp", tmp_path / "tri.ilp", tmp_path / "tri.json"
    one.write_text("max: x\nx <= 3\n")
    renamed = tmp_path / "twins.ilp"
    shuffle = random.Random(1)
    renamed.write_text("max: z\nz <= 5\n" + "".join(
        f"{s}{p[i]} + 2 {s}{p[i + 1]} <= 3\n"
        for s in "pq" for p in [shuffle.sample(range(1000, 1024), 24)] for i in range(23)
    ))
    assert run(["generate", "3col", "--graph", triangle, "-o", str(tri),
                "--witness", str(tri_witness)]) == 0
    for args, loaded in [
        ([str(one)], set()),
        ([two_blocks], set()),
        ([str(renamed)], {"tdilp.twins"}),
        ([str(tri), "--td", str(tri_witness), "--propagate"], {"tdilp.presolve"}),
    ]:
        solve = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "tdilp.cli", "solve", *args],
            env=env, capture_output=True, text=True,
        )
        assert solve.returncode == 0, solve.stderr
        imported = _imported(solve.stderr)
        tdilp_modules = {m for m in imported if m.split(".")[0] == "tdilp"}
        assert tdilp_modules == SOLVE_PATH - {"tdilp.cli"} | loaded
        assert not imported & set(unwanted)

    # a plain solve reads its arguments without argparse and writes its JSON
    # without json; -S keeps what `site` preloads (typing, pathlib, ...) out
    witness = tmp_path / "w.json"
    assert run(["analyze", two_blocks, "--witness-out", str(witness)]) == 0
    stdlib = {"argparse", "gettext", "locale", "json", "typing", "pathlib"}
    for flags, wanted in [([], set()), (["--td", str(witness)], set())]:
        bare = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "tdilp.cli", "solve", two_blocks, *flags],
            env=env, capture_output=True, text=True,
        )
        assert bare.returncode == 0, bare.stderr
        assert _imported(bare.stderr) & stdlib == wanted


def test_a_refused_outcome_is_no_input_error(two_blocks, tmp_path):
    # a solve whose stdout reader is gone exits 4 with one stderr line, and
    # the interpreter's last flush adds no "Exception ignored" report; stdout
    # is block-buffered, as it is for a pipe unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(tdilp.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        refused = subprocess.run(
            [sys.executable, "-m", "tdilp.cli", "solve", two_blocks],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert refused.returncode == 4
    assert refused.stderr.splitlines() == ["error: cannot write the outcome: [Errno 32] Broken pipe"]
    # an input file that cannot be read is still a usage or input error
    missing = subprocess.run(
        [sys.executable, "-m", "tdilp.cli", "solve", str(tmp_path / "missing.ilp")],
        env=env, capture_output=True, text=True,
    )
    assert missing.returncode == 2
    assert missing.stdout == ""
    assert missing.stderr.startswith("error: [Errno 2] No such file or directory")


def test_only_main_freezes_the_collector(two_blocks, tmp_path):
    # main() freezes the collector just before the process exits, so that
    # teardown does not walk every live object; run() is called in-process
    # by tests and library callers and never freezes.  An atexit handler
    # reports the freeze count: atexit still runs after the freeze.
    k4 = tmp_path / "k4.graph"
    k4.write_text("4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    k4_ilp, k4_td = tmp_path / "k4.ilp", tmp_path / "k4.json"
    assert run(["generate", "3col", "--graph", str(k4), "-o", str(k4_ilp), "--witness", str(k4_td)]) == 0
    report = (
        "import atexit, gc, sys, tdilp.cli;"
        " atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr));"
        " tdilp.cli.main()"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tdilp.__file__).resolve().parents[1])}
    for argv, code in [
        (["solve", two_blocks], 0),
        (["solve", str(k4_ilp), "--td", str(k4_td), "--propagate"], 1),
        (["solve", two_blocks, "--bogus"], 2),
        (["solve", two_blocks, "--bound", "1"], 3),
    ]:
        frozen = gc.get_freeze_count()
        in_process = _run_captured(argv)
        assert gc.get_freeze_count() == frozen
        assert in_process[0] == code
        done = subprocess.run(
            [sys.executable, "-c", report, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == code, done.stderr
        assert done.stdout == in_process[1]
        assert done.stderr.splitlines()[-1] == "frozen True"


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """A directory holding x.ilp, -x.ilp and a witness w.json for x.ilp, so
    that the argv below name files that exist."""
    d = tmp_path_factory.mktemp("argv")
    for name in ("x.ilp", "-x.ilp"):
        (d / name).write_text(TWO_BLOCKS)
    (d / "w.json").write_text(json.dumps({"kind": "treedepth", "parent": [-1, 0, 0]}))
    return d


def _run_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_reader(argv: list[str], where: Path):
    """An argv that the strict solve reader accepts reads as the full grammar
    reads it, and run() exits and prints exactly as it does with the reader
    off, that is with every argv left to the full grammar.  Returns what
    the reader read."""
    cwd = os.getcwd()
    os.chdir(where)
    try:
        read = tdilp.cli._solve_args(argv)
        if read is not None:
            assert vars(read) == vars(build_parser().parse_args(argv))
        got = _run_captured(argv)
        with mock.patch.object(tdilp.cli, "_solve_args", lambda argv: None):
            want = _run_captured(argv)
    finally:
        os.chdir(cwd)
    assert got == want
    return read


PLAIN_SOLVES = (
    ["solve", "x.ilp"],
    ["solve", "x.ilp", "--td", "w.json", "--bound", "3", "--propagate"],
)


@pytest.mark.parametrize(
    "argv",
    [
        *PLAIN_SOLVES,
        ["solve"],
        ["solve", "x.ilp", "--bogus"],
        ["solve", "x.ilp", "extra"],
        ["solve", "x.ilp", "--bound", "0"],
        ["solve", "-h"],
    ],
)
def test_solve_grammar_matches_the_full_grammar(argv_dir, argv):
    # a plain solve reads its argv without argparse; every other argv, and
    # every usage error and help text, is the full grammar's
    assert (_check_reader(argv, argv_dir) is not None) == (argv in PLAIN_SOLVES)


ARGV_WORDS = [
    "solve", "x.ilp", "-x.ilp", "", "-", "--td", "--td=w.json", "--bound", "3", "0", "-5",
    "+5", " 5", "007", "1_0", "\u0663", "--propagate", "--prop", "--", "-h", "--help", "extra",
]


@st.composite
def solve_argvs(draw):
    """Words of ARGV_WORDS, most often shaped like a solve: "solve" first,
    options, --td and --bound each followed by a word as its value (for
    --bound often an integer spelling), and one or two FILE words (often
    x.ilp)."""
    word = st.sampled_from(ARGV_WORDS)
    integer = st.sampled_from(["3", "0", "-5", "+5", " 5", "007", "1_0", "\u0663"])
    option = st.one_of(
        st.tuples(st.just("--bound"), st.one_of(integer, word)).map(list),
        st.tuples(st.just("--td"), word).map(list),
        st.just(["--propagate"]),
    )
    parts = draw(st.lists(option, max_size=3))
    for positional in draw(st.lists(st.one_of(st.just("x.ilp"), word), min_size=1, max_size=2)):
        parts.insert(draw(st.integers(0, len(parts))), [positional])
    lead = ["solve"] if draw(st.integers(0, 9)) else []
    return lead + [w for part in parts for w in part]


@given(solve_argvs())
@settings(max_examples=500, deadline=5_000)
def test_solve_reader_matches_the_full_grammar_on_any_argv(argv_dir, argv):
    _check_reader(argv, argv_dir)


def test_public_names_resolve_lazily():
    names = set(tdilp.__all__)
    star: dict = {}
    exec("from tdilp import *", star)
    assert names <= set(star)
    assert names <= set(dir(tdilp))
    for name in names:
        assert getattr(tdilp, name) is star[name]
    assert tdilp.trace_to_json is tdilp.formats.trace_to_json
    assert tdilp.compute_bounds is tdilp.bounds.compute_bounds
    with pytest.raises(AttributeError):
        tdilp.no_such_name


def test_package_import_loads_no_submodule():
    # every public name loads on first access, so `import tdilp` compiles
    # the package file alone
    src = str(Path(tdilp.__file__).resolve().parents[1])
    code = "import sys, tdilp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'tdilp'))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["['tdilp']"]


# every (module, function) in bench/launcher.py's SPANS and COUNTS: the
# launcher looks each one up by name and a traced solve fails without it
LAUNCHED = {
    ("tdilp.instance", "check_feasible"),
    ("tdilp.instance", "evaluate_objective"),
    ("tdilp.instance", "omit_variables"),
    ("tdilp.instance", "parse_instance"),
    ("tdilp.kernelizer", "constraints_touching"),
    ("tdilp.kernelizer", "find_equivalent_pair"),
    ("tdilp.kernelizer", "kernelize"),
    ("tdilp.kernelizer", "lift_solution"),
    ("tdilp.kernelizer", "prune_step"),
    ("tdilp.kernelizer", "subtree_signature"),
    ("tdilp.kernelizer", "test_equivalence"),
    ("tdilp.solver", "bounded_search"),
    ("tdilp.solver", "detect_unbounded"),
    ("tdilp.solver", "solution_bound"),
    ("tdilp.solver", "solve_core"),
    ("tdilp.solver", "solve_pipeline"),
    ("tdilp.structure", "build_primal_graph"),
    ("tdilp.structure", "compute_treedepth_exact"),
    ("tdilp.structure", "dfs_treedepth_heuristic"),
    ("tdilp.structure", "verify_treedepth_decomposition"),
}


def test_every_name_the_traced_launcher_wraps_resolves(two_blocks):
    # in-process, so that trimming one of them fails tier-1 and not only a
    # traced benchmark run; the list is checked against the launcher's own
    path = Path(__file__).resolve().parents[1] / "bench" / "launcher.py"
    spec = importlib.util.spec_from_file_location("bench_launcher", path)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    declared = {(m, f) for entries in launcher.SPANS.values() for m, f, _, _ in entries}
    assert declared | {(m, f) for m, f, _ in launcher.COUNTS} == LAUNCHED
    for module, name in sorted(LAUNCHED):
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
    # and what the launcher reads off their arguments and results
    instance = tdilp.cli._load_instance(two_blocks)
    assert instance.n_variables and instance.n_constraints
    assert tdilp.solver.solution_bound(instance).radius >= 1
    assert tdilp.structure.decompose(instance).height >= 1


def test_traced_launcher_matches_plain_solve(two_blocks, tmp_path):
    # the benchmark's launcher wraps tdilp functions by name and fails at
    # install when one of them is gone
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(root / "bench" / "launcher.py"), str(spans), "solve", two_blocks],
        env=env, capture_output=True,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "tdilp.cli", "solve", two_blocks], env=env, capture_output=True
    )
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert {"kernelizer.kernelize", "solver.core"} <= set(json.loads(spans.read_text())["spans"])


def test_oracle_verdict_commands(triangle, capsys):
    assert run(["oracle", "3col", "--graph", triangle]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["oracle", "vc", "--graph", triangle, "--k", "1"]) == 1
    assert capsys.readouterr().out.strip() == "false"
    assert run(["oracle", "subsetsum", "--values", "2,4", "--target", "5"]) == 1
    assert capsys.readouterr().out.strip() == "false"
    assert run(["oracle", "td", "--graph", triangle]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_oracle_budget_exit_code(tmp_path, capsys):
    f = tmp_path / "wide.ilp"
    f.write_text("max: " + " + ".join(f"x{i}" for i in range(10)) + "\n" + "".join(f"x{i} <= 1\n" for i in range(10)))
    assert run(["oracle", "ilp", str(f), "--box", "50"]) == 3


def test_bounds_table(capsys):
    assert run(["bounds", "--ell", "1", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "e_1 = 134217730" in out
    assert "i  d_i  e_i" in out


def test_bounds_astronomical(capsys):
    assert run(["bounds", "--ell", "1", "--k", "3"]) == 0
    assert "2^" in capsys.readouterr().out


def test_bounds_past_the_int_string_limit(capsys):
    # d_3 has 5,060 digits, more than str() converts by default
    assert run(["bounds", "--ell", "3", "--k", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3] == "3  ~2^16807 (16808 bits)  ~2^16807 (16808 bits)"
    assert out[-1] == "e_1 = astronomically large"


# feasible; its certified radius, 3 * (isqrt(2 * 10^10000) + 1), has 5,001
# digits, and the certificate puts x at minus the radius
HUGE_CAP = "max: 0\nx - y <= 0\ny <= 1" + "0" * 5000 + "\n"


@pytest.fixture
def no_int_string_limit():
    """Lift the int <-> str digit limit for a test that reads huge integers
    itself; run lifts it only while it runs."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def test_huge_certificate_survives_kernelize_solve_lift(tmp_path, capsys, no_int_string_limit):
    f = tmp_path / "huge.ilp"
    f.write_text(HUGE_CAP)
    assert run(["solve", str(f)]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert (direct["status"], direct["value"]) == ("optimal", 0)
    assert len(str(direct["assignment"]["x"])) > 4300

    kern, trace, sol = tmp_path / "kernel.ilp", tmp_path / "trace.json", tmp_path / "sol.json"
    assert run(["kernelize", str(f), "-o", str(kern), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert run(["solve", str(kern)]) == 0
    sol.write_text(capsys.readouterr().out)
    assert run(["lift", "--trace", str(trace), "--solution", str(sol)]) == 0
    lifted = json.loads(capsys.readouterr().out)
    assert (lifted["status"], lifted["value"]) == ("optimal", 0)
    assert lifted["assignment"] == direct["assignment"]


def test_run_gives_back_the_int_string_limit(two_blocks, tmp_path, capsys):
    # run lifts the limit for its own work and leaves the caller's in place,
    # so that no later code in the process depends on whether run ran
    huge = tmp_path / "huge.ilp"
    huge.write_text(HUGE_CAP)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5_000)
    try:
        for argv in (["solve", str(huge)], ["solve", two_blocks, "--bogus"],
                     ["bounds", "--ell", "3", "--k", "4"]):
            run(argv)
            assert sys.get_int_max_str_digits() == 5_000, argv
    finally:
        sys.set_int_max_str_digits(old)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["solve", "ILP", "--td", "DEEP"],
    ["verify", "ILP", "--witness", "DEEP"],
    ["lift", "--trace", "DEEP", "--solution", "SOLUTION"],
    ["lift", "--trace", "TRACE", "--solution", "DEEP"],
], ids=["solve-td", "verify-witness", "lift-trace", "lift-solution"])
def test_deeply_nested_json_is_an_input_error(two_blocks, tmp_path, capsys, argv):
    # json.loads raises RecursionError on 200,000 nested arrays
    files = {"ILP": two_blocks}
    for key, text in [
        ("DEEP", "[" * 200_000),
        ("TRACE", json.dumps([GOOD_STEP])),
        ("SOLUTION", json.dumps(KERNEL_SOLUTION)),
    ]:
        path = tmp_path / f"{key.lower()}.json"
        path.write_text(text)
        files[key] = str(path)
    assert run([files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("spelling", ["1_0", "\u0663"])
def test_non_ascii_integers_are_usage_errors(two_blocks, tmp_path, capsys, spelling):
    ilp = tmp_path / "bad.ilp"
    graph = tmp_path / "bad.graph"
    for row in (f"{spelling} x <= 3", f"x <= {spelling}"):
        ilp.write_text(f"max: x\n{row}\n", encoding="utf-8")
        assert run(["solve", str(ilp)]) == 2
        assert capsys.readouterr().err.startswith("error: line 2:")
    graph.write_text(f"3\n1 {spelling}\n", encoding="utf-8")
    assert run(["oracle", "3col", "--graph", str(graph)]) == 2
    assert capsys.readouterr().err.startswith("error: non-integer endpoint")
    assert run(["solve", two_blocks, "--bound", spelling]) == 2
    assert run(["bounds", "--ell", spelling, "--k", "2"]) == 2
    assert run(["generate", "subsetsum", "--values", f"3,{spelling}", "--target", "8"]) == 2
    assert capsys.readouterr().out == ""


def test_usage_errors(tmp_path, capsys):
    assert run([]) == 2
    assert run(["solve", str(tmp_path / "missing.ilp")]) == 2
    bad = tmp_path / "bad.ilp"
    bad.write_text("max: x\nx ?? 3\n")
    assert run(["solve", str(bad)]) == 2
    assert run(["bounds", "--ell", "1", "--k", "0"]) == 2


def _recursion_error(*args, **kwargs):
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "stage, fake",
    [("tdilp.solver.check_feasible", lambda *args: False), ("tdilp.solver.kernelize", _recursion_error)],
)
def test_internal_faults_exit_4(two_blocks, capsys, monkeypatch, stage, fake):
    # a failed self-check or a crash is neither a verdict (0/1/3) nor a usage error (2)
    monkeypatch.setattr(stage, fake)
    assert run(["solve", two_blocks]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def test_determinism_byte_for_byte(two_blocks, triangle, capsys):
    runs = []
    for _ in range(2):
        assert run(["solve", two_blocks]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]

    runs = []
    for _ in range(2):
        assert run(["generate", "3col", "--graph", triangle]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


@st.composite
def boxed_blocks(draw):
    """A hub z beside 2-4 objective-free one-variable blocks drawn from at
    most two shapes, so that kernelize often prunes twins, and maybe one row
    across them.  Every variable lies in [-2, 3], so the oracle's sweep of
    the box of radius 3 is exact."""
    small = st.integers(min_value=-2, max_value=2)
    b = InstanceBuilder()
    b.add_le({"z": 1}, draw(st.integers(min_value=-2, max_value=3)))
    b.add_ge({"z": 1}, -2)
    shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 1)), min_size=1, max_size=2))
    names = ["z"]
    for i in range(draw(st.integers(min_value=2, max_value=4))):
        cap, link = draw(st.sampled_from(shapes))
        b.add_le({f"a{i}": 1}, cap)
        b.add_ge({f"a{i}": 1}, -2)
        b.add_le({"z": 1, f"a{i}": -1}, link)
        names.append(f"a{i}")
    if draw(st.integers(0, 3)) == 0:
        u, v = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        b.add_le({u: draw(small), v: draw(small) or 1}, draw(st.integers(-2, 4)))
    b.set_objective({"z": draw(small)})
    return serialize_instance(b.build())


@given(boxed_blocks())
@settings(max_examples=60, deadline=5_000)
def test_cli_solve_matches_the_library_and_the_oracle(text):
    instance = parse_instance(text)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.ilp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = _run_captured(["solve", path])
    outcome, _ = solve_pipeline(instance)
    assert (out, err) == (outcome.to_json(name_of=instance.name_of) + "\n", "")
    assert code == (1 if outcome.status == "infeasible" else 0)
    want = brute_force_ilp(instance, 3)
    assert (outcome.status, outcome.value) == (want.status, want.value)


@given(boxed_blocks())
@settings(max_examples=40, deadline=5_000)
def test_cli_kernelize_solve_lift_matches_a_direct_solve(text):
    instance = parse_instance(text)
    direct, _ = solve_pipeline(instance)
    with tempfile.TemporaryDirectory() as d:
        path, kernel, trace, sol = (os.path.join(d, f) for f in ("in.ilp", "k.ilp", "t.json", "s.json"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert _run_captured(["kernelize", path, "-o", kernel, "--trace", trace])[0] == 0
        code, out, _ = _run_captured(["solve", kernel])
        solved = json.loads(out)
        assert (solved["status"], solved["value"]) == (direct.status, direct.value)
        if direct.status == "infeasible":
            assert code == 1
            return
        with open(sol, "w", encoding="utf-8") as fh:
            fh.write(out)
        code, out, _ = _run_captured(["lift", "--trace", trace, "--solution", sol])
    assert code == 0
    lifted = json.loads(out)
    assert out == json.dumps(lifted, indent=2) + "\n"  # the json writer's text, to the byte
    assert (lifted["status"], lifted["value"]) == (direct.status, direct.value)
    assignment = lifted["assignment"]
    assert len(assignment) == instance.n_variables
    by_id = {v: assignment[instance.name_of(v)] for v in range(instance.n_variables)}
    assert check_feasible(instance, by_id)
    assert evaluate_objective(instance, by_id) == direct.value
