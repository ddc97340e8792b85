"""Shared pytest plumbing: small graph builders and the verdict channel.

The acceptance module records one verdict line per guarantee; the
terminal-summary hook replays them at the end of the run so they are
visible without -s.
"""

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import tdilp.solver
from tdilp import Graph, InstanceBuilder, TreedepthDecomposition
from tdilp.structure import ROOT

# graphs use 1-based vertex labels, matching the generator conventions


def path_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def complete_graph(n: int) -> Graph:
    vs = range(1, n + 1)
    return Graph(vs, [(u, v) for u in vs for v in vs if u < v])


def odd_wheel() -> Graph:
    """Hub 6 joined to every vertex of the 5-cycle: 4-chromatic."""
    return Graph(range(1, 7), list(cycle_graph(5).edges) + [(i, 6) for i in range(1, 6)])


def petersen() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return Graph(range(1, 11), outer + spokes + inner)


def all_graphs(n: int):
    """Every labeled graph on vertices 1..n, one per edge subset."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield Graph(range(1, n + 1), [e for i, e in enumerate(pairs) if mask >> i & 1])


def deep_twin_paths(links: int):
    """max z <= 5 beside two identical objective-free paths of `links`
    variables, x_i + 2 x_{i+1} <= 3 along each."""
    b = InstanceBuilder()
    b.set_objective({"z": 1})
    b.add_le({"z": 1}, 5)
    for side in "pq":
        for i in range(links - 1):
            b.add_le({f"{side}{i:04d}": 1, f"{side}{i + 1:04d}": 2}, 3)
    return b.build()


def boxed_chain(n: int):
    """x_i in [0, 3], x_i + x_{i+1} <= 4, max: x_0 + x_{n-1}: the optimum is
    6, the kernel keeps all n variables, and the radius grows with n."""
    b = InstanceBuilder()
    xs = [b.var(f"x{i:04d}") for i in range(n)]
    for x in xs:
        b.add_le({x: 1}, 3)
        b.add_ge({x: 1}, 0)
    for x, y in zip(xs, xs[1:]):
        b.add_le({x: 1, y: 1}, 4)
    b.set_objective({xs[0]: 1, xs[-1]: 1})
    return b.build()


def run_in_child(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports tdilp from this checkout
    and conftest from this directory, so that it can cap its own memory."""
    paths = [str(Path(__file__).parent), str(Path(tdilp.solver.__file__).parents[1])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=240
    )


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the block once it has run for seconds, instead of hanging."""

    def expire(signum, frame):
        pytest.fail(f"past the {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def random_forests(draw, nodes=None):
    """A forest over nodes (by default 0..n-1 for a drawn n <= 30): each node
    hangs below ROOT or an earlier node of a shuffled order, so ids say
    nothing about depth."""
    if nodes is None:
        nodes = range(draw(st.integers(min_value=1, max_value=30)))
    order = draw(st.permutations(nodes))
    parent = {}
    for i, v in enumerate(order):
        parent[v] = ROOT if i == 0 else draw(st.sampled_from((ROOT, *order[:i])))
    return TreedepthDecomposition(parent)


@pytest.fixture
def propagate_calls(monkeypatch):
    """propagate_calls(limit) counts `tdilp.solver._propagate` calls and
    fails the test at call limit + 1, so a search that regresses stops
    there instead of running to its end.  It returns the list that gets
    one entry per call."""

    def install(limit: int) -> list:
        calls = []
        real = tdilp.solver._propagate

        def counted(*args, **kwargs):
            calls.append(None)
            if len(calls) > limit:
                pytest.fail(f"more than {limit} _propagate calls")
            return real(*args, **kwargs)

        monkeypatch.setattr(tdilp.solver, "_propagate", counted)
        return calls

    return install


_VERDICTS: list[str] = []


@pytest.fixture
def verdict():
    """Record a one-line pass/fail verdict, then enforce it."""

    def record(label: str, ok: bool, detail: str):
        line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
        _VERDICTS.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in _VERDICTS:
            terminalreporter.write_line(line)
