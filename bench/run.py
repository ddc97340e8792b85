"""tdilp benchmark: closed-loop `tdilp solve` runs, one fresh process at a time.

Run from the root of a tdilp checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up draws the workload's instances from the seed (``workloads.py``),
writes them under ``.bench_run/`` and computes every reference answer; it
runs three times, then again after every round, and ``setup_s`` is the
median.  The run solves round after round of instances until S seconds
have passed (whole rounds, at least one), after one untimed warm-up
solve that fills the bytecode and page caches, each instance as
``python3 -m tdilp.cli solve FILE [flags]`` in its own process under the
workload's time limit.  A single client waits for each process before
starting the next, so at most two processes run at once.  Right after each
timed solve a fixed reference task (``CALIBRATION``) runs the same way, and
the timing metrics are in units of its wall time ("cal").  On a shared
2-vCPU host one solve took from 1.0 to 1.9 s within four minutes; solve
and reference slow down together, so their ratio stays put where seconds
do not.  Every verdict is checked against its reference (``checker.py``);
timeouts, crashes, bad exit codes and wrong verdicts count as failed.

With ``--trace 0`` the metrics are the end-to-end ones.  The seconds are
printed too (``solve_p50_s``, ``solved_per_s``, and ``solve_tail_s`` with
its percentile and sample count) but are not metrics: they drift with the
host, and a run of the slower workloads holds only about a dozen solves,
which leaves a low and unsteady "tail" percentile.  One correct
instance is solved a second time, and its stdout must be byte-identical.
With ``--trace 1`` each instance is solved untraced and then through
``launcher.py``, which records spans at the package's module boundaries;
the metrics are the per-layer ones (``layers.py``), and every traced
stdout must equal its untraced twin.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  The line before it is a record of the run: machine
facts, seed, time limit, why the workload was chosen, the layer ->
end-to-end map, the failed share with its base, the seconds, every
failure, and (traced) the metrics that are absent.
The same record is written to ``.bench_run/``.  The exit code is 1 when a
verdict was wrong, 2 on a usage or set-up error, else 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# set-up runs this often before the first round and once more after every
# round, so its median samples the machine over the whole run like the solves
SETUP_REPEATS = 3
POOL_ROUNDS = 8  # rounds drawn per run; a run cycles through them
KILL_GRACE_S = 5.0  # after SIGTERM, before SIGKILL, for the traced launcher
CALIBRATION_LIMIT_S = 60.0

# The reference task: numpy's import, as in `tdilp.cli`, then dict and sort
# work on tuples, a few tenths of a second in all.  It never changes, so a
# solve's time in its units moves only when the program does.
CALIBRATION = """
import random
import numpy
rng, counts = random.Random(1), {}
for i in range(50000):
    key = (rng.randrange(3000), i % 5)
    counts[key] = counts.get(key, 0) + (i * 7919) % 101
ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
"""

END_TO_END_UNITS = {
    "solve_geo_cal": "cal",
    "solved_per_cal": "1/cal",
    "kernel_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Item:
    name: str
    text: str
    path: Path
    flags: tuple[str, ...]
    reference: dict


@dataclass
class Run:
    item: Item
    traced: bool
    spawn_ns: int
    wall_s: float
    rss_mb: float
    kind: str
    detail: str
    doc: dict | None
    stdout: str
    trace: dict | None
    timed: bool = True  # False for the warm-up and the determinism rerun
    cal_s: float | None = None  # the reference task's wall time right after a timed solve


def set_up(workload, seed: int, work: Path):
    """Draw, write and reference every round: (rounds, generate_s, reference_s)."""
    from workloads import WITNESS

    rng = random.Random(f"{workload.name}/{seed}")
    rounds, generate_s, reference_s = [], 0.0, 0.0
    for index in range(POOL_ROUNDS):
        start = time.perf_counter()
        specs = workload.draw_round(rng, index)
        files = []
        for spec in specs:
            path = work / f"{spec.name}.ilp"
            path.write_text(spec.text, encoding="utf-8")
            flags = spec.flags
            if spec.witness is not None:
                witness = work / f"{spec.name}.td.json"
                witness.write_text(spec.witness, encoding="utf-8")
                flags = tuple(str(witness) if f == WITNESS else f for f in flags)
            files.append((path, flags))
        drawn = time.perf_counter()
        references = [spec.reference() for spec in specs]
        referenced = time.perf_counter()
        generate_s += drawn - start
        reference_s += referenced - drawn
        rounds.append([
            Item(spec.name, spec.text, path, flags, ref)
            for spec, (path, flags), ref in zip(specs, files, references)
        ])
    return rounds, generate_s, reference_s


class Watchdog:
    """Stops a child at its time limit: SIGKILL, or for the traced launcher
    SIGTERM first so it can write its spans, then SIGKILL after a grace."""

    def __init__(self, pid: int, limit_s: float, gentle: bool):
        self.pid = pid
        self.lock = threading.Lock()
        self.done = False
        self.fired = False
        first = signal.SIGTERM if gentle else signal.SIGKILL
        self.timers = [threading.Timer(limit_s, self._send, (first,))]
        if gentle:
            last = threading.Timer(limit_s + KILL_GRACE_S, self._send, (signal.SIGKILL,))
            self.timers.append(last)
        for timer in self.timers:
            timer.start()

    def _send(self, sig) -> None:
        with self.lock:
            if not self.done:  # the child is not reaped yet, so its pid is still its own
                self.fired = True
                os.kill(self.pid, sig)

    def finish(self) -> bool:
        """Disarm; True if the time limit was hit."""
        with self.lock:
            self.done = True
        for timer in self.timers:
            timer.cancel()
            timer.join()
        return self.fired


def solve_once(item: Item, traced: bool, limit_s: float, root: Path, work: Path, env) -> Run:
    from checker import classify

    out_path, err_path, spans_path = work / "stdout", work / "stderr", work / "spans.json"
    spans_path.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans_path)]
    else:
        cmd = [sys.executable, "-m", "tdilp.cli"]
    cmd += ["solve", str(item.path), *item.flags]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root)
        watchdog = Watchdog(proc.pid, limit_s, gentle=traced)
        exited = False
        try:
            # wait without reaping, so the watchdog cannot signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end_ns = time.perf_counter_ns()
            exited = True
        finally:
            timed_out = watchdog.finish()
            if not exited:  # interrupted: stop and reap the child before unwinding
                proc.kill()
                proc.wait()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    kind, detail, doc = classify(item.text, item.reference, proc.returncode, stdout, stderr,
                                 timed_out)
    trace = None
    if traced and spans_path.exists():
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
    return Run(item, traced, spawn_ns, (end_ns - spawn_ns) / 1e9, usage.ru_maxrss / 1024,
               kind, detail, doc, stdout, trace)


def calibrate(env) -> float:
    """Wall time of one run of ``CALIBRATION`` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", CALIBRATION], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=CALIBRATION_LIMIT_S)
    return time.perf_counter() - start


def measure(pool, seconds: float, trace: int, solve, run_reference, set_up_again):
    """One untimed warm-up of solve and reference task, then a closed loop
    over whole rounds until ``seconds`` have passed (at least one round),
    with ``set_up_again`` after each and the reference task after each
    untraced solve: (runs, (untraced, traced) pairs).  Traced, every
    instance is solved untraced first and its traced stdout must match byte
    for byte."""
    warm_up = solve(pool[0][0])
    warm_up.timed = False
    run_reference()
    runs: list[Run] = [warm_up]
    pairs: list[tuple[Run, Run]] = []
    deadline = time.perf_counter() + seconds
    for round_items in itertools.cycle(pool):
        if len(runs) > 1 and time.perf_counter() >= deadline:
            break
        for item in round_items:
            plain = solve(item)
            plain.cal_s = run_reference()
            runs.append(plain)
            if trace:
                traced = solve(item, traced=True)
                both = plain.doc is not None and traced.doc is not None
                if both and plain.stdout != traced.stdout:
                    traced.kind, traced.detail = "wrong", "traced stdout differs from untraced"
                runs.append(traced)
                pairs.append((plain, traced))
        set_up_again()
    return runs, pairs


def rerun_first_correct(runs: list[Run], solve) -> dict:
    """Solve the first correctly solved instance again and compare stdout
    bytes; a difference is a wrong verdict.  The rerun joins ``runs`` as an
    attempt but is left out of the timing metrics."""
    first = next((r for r in runs if r.kind == "correct"), None)
    if first is None:
        return {"checked": None, "reason": "no instance was solved correctly"}
    again = solve(first.item)
    again.timed = False
    identical = again.stdout == first.stdout
    if again.kind == "correct" and not identical:
        again.kind, again.detail = "wrong", "stdout differs between two runs"
    runs.append(again)
    return {"checked": first.item.name, "identical": identical, "kind": again.kind}


def tail(walls: list[float]) -> tuple[float, int]:
    """(value, p) for the highest whole percentile p with at least ten samples
    above it, by nearest rank; the maximum (p = 100) below eleven samples."""
    ordered = sorted(walls)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], p
    return ordered[-1], 100


def end_to_end(runs: list[Run], setup_s: list[float]) -> tuple[dict, dict]:
    """(end-to-end metrics, seconds and tail) of the timed untraced runs.

    ``solve_geo_cal`` is the geometric mean over solves of each solve's wall
    time divided by that of the reference task run right after it; pairing
    neighbours cancels the host's drift, and the geometric mean weighs every
    instance of the workload's fixed mix alike, where a median would jump
    between the mix's cost clusters.  ``solved_per_cal`` counts correct
    solves per "cal" of solve time, both sides summed over the run."""
    walls = [r.wall_s for r in runs]
    cals = [r.cal_s for r in runs]
    docs = [r.doc for r in runs if r.doc is not None]
    if not docs:
        raise RuntimeError("no instance printed an outcome")
    correct = sum(r.kind == "correct" for r in runs)
    tail_s, tail_p = tail(walls)
    metrics = {
        "solve_geo_cal": math.exp(statistics.fmean(math.log(w / c) for w, c in zip(walls, cals))),
        "solved_per_cal": correct / sum(walls) * statistics.fmean(cals),
        "kernel_share": sum(d["kernel_vars"] for d in docs) / sum(d["original_vars"] for d in docs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "setup_s": statistics.median(setup_s),
    }
    seconds = {"calibration_p50_s": statistics.median(cals), "solve_p50_s": statistics.median(walls),
               "solved_per_s": correct / sum(walls), "solve_tail_s": tail_s,
               "tail_percentile": tail_p, "samples": len(walls)}
    return metrics, seconds


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def machine_facts(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(root),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="tdilp closed-loop solve benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through solve_once, which stops its child


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tdilp" / "cli.py").is_file():
        print(f"error: {src / 'tdilp'} is missing; run from the root of a tdilp checkout",
              file=sys.stderr)
        return 2
    # workloads, checker and layers import tdilp, so every import of them
    # waits until the checkout's own package is first on the path
    sys.path.insert(0, str(src))
    import tdilp

    if Path(tdilp.__file__).resolve().parent != (src / "tdilp").resolve():
        print(f"error: imported tdilp from {tdilp.__file__}, not from {src}", file=sys.stderr)
        return 2
    from layers import LAYER_MAP, metric_units, per_layer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    results = root / ".bench_run"
    work = results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, generate_s, reference_s = [], [], []

        def timed_set_up():
            start = time.perf_counter()
            pool, gen, ref = set_up(workload, args.seed, work)
            setup_s.append(time.perf_counter() - start)
            generate_s.append(gen)
            reference_s.append(ref)
            return pool

        for _ in range(SETUP_REPEATS):
            pool = timed_set_up()

        env = dict(os.environ, PYTHONPATH=str(src))
        limit = workload.time_limit_s

        def solve(item, traced=False):
            return solve_once(item, traced, limit, root, work, env)

        runs, pairs = measure(pool, args.seconds, args.trace, solve, lambda: calibrate(env),
                              timed_set_up)
        if args.trace:
            determinism = {"checked": "every traced run against its untraced twin"}
        else:
            determinism = rerun_first_correct(runs, solve)

        measured = [r for r in runs if not r.traced and r.timed]
        e2e, seconds = end_to_end(measured, setup_s)
        attempted = len(runs)
        failed = [r for r in runs if r.kind != "correct"]
        wrong = [r for r in runs if r.kind == "wrong"]
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "time_limit_s": limit,
            "why": workload.why,
            "layer_map": LAYER_MAP,
            "machine": machine_facts(root),
            "failed_share": f"{len(failed)}/{attempted}",
            "wrong_verdicts": len(wrong),
            "seconds": seconds,
            "determinism": determinism,
            "failures": [{"instance": r.item.name, "traced": r.traced, "kind": r.kind,
                          "detail": r.detail, "wall_s": round(r.wall_s, 4)} for r in failed],
            "slowest_correct": [
                {"instance": r.item.name, "wall_s": round(r.wall_s, 4)}
                for r in sorted((r for r in measured if r.kind == "correct"),
                                key=lambda r: -r.wall_s)[:5]
            ],
        }
        if args.trace:
            units = metric_units()
            values, absent = per_layer(pairs, generate_s, reference_s)
            record["absent"] = absent
            record["end_to_end_untraced"] = e2e
        else:
            units = END_TO_END_UNITS
            values = e2e
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        record["metrics"] = metrics
        (results / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    for name in ("calibration_p50_s", "solve_p50_s", "solve_tail_s"):
        print(f"{name:40s} {seconds[name]:.6g} s")
    print(f"{'solve_tail_s percentile':40s} p{seconds['tail_percentile']} of"
          f" {seconds['samples']} samples")
    print(f"{'solved_per_s':40s} {seconds['solved_per_s']:.6g} 1/s")
    print(f"{'failed_share':40s} {record['failed_share']}")
    print(f"{'wrong_verdicts':40s} {record['wrong_verdicts']}")
    print(json.dumps(record))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
