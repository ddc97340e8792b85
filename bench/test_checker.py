"""The benchmark's verdict gate must catch wrong answers, not only pass right ones."""

import json
import random

from checker import classify
from tdilp import parse_instance, serialize_instance
from workloads import WORKLOADS, has_recession_ray, star_blocks, sweep_reference

STAR = serialize_instance(star_blocks(2))  # max z, z <= 5, a001, a002 in [z, 4]
STAR_REF = {"kind": "closed", "status": "optimal", "value": 4, "kernel_vars": 2}
# unbounded (ray (0, -1, 1, 0)); `tdilp solve` stalls on it, so it is not in any workload
STALL_REPRODUCER = """max: x0 + x2
-2 x0 + x1 <= 1
-2 x0 - 2 x2 - 2 x3 <= -1
-x0 + 2 x1 <= 5
x0 + 2 x1 + 2 x2 <= -1
x0 - 2 x1 - 2 x2 <= -1
"""


def _outcome(status, value=None, assignment=None, kernel_vars=2, original_vars=3):
    return json.dumps({"status": status, "value": value, "assignment": assignment,
                       "kernel_vars": kernel_vars, "original_vars": original_vars})


def _kind(text, reference, stdout, returncode=0, stderr="", timed_out=False):
    return classify(text, reference, returncode, stdout, stderr, timed_out)[0]


def test_correct_outcome_passes():
    good = _outcome("optimal", 4, {"a001": 4, "a002": 4, "z": 4})
    assert _kind(STAR, STAR_REF, good) == "correct"


def test_flipped_verdict_is_wrong():
    assert _kind(STAR, STAR_REF, _outcome("infeasible"), returncode=1) == "wrong"
    assert _kind(STAR, STAR_REF, _outcome("unbounded")) == "wrong"


def test_wrong_value_is_wrong():
    suboptimal = _outcome("optimal", 3, {"a001": 3, "a002": 3, "z": 3})
    assert _kind(STAR, STAR_REF, suboptimal) == "wrong"
    drifted = _outcome("optimal", 5, {"a001": 4, "a002": 4, "z": 4})
    assert _kind(STAR, STAR_REF, drifted) == "wrong"


def test_infeasible_assignment_is_wrong():
    violates = _outcome("optimal", 4, {"a001": 5, "a002": 4, "z": 4})
    assert _kind(STAR, STAR_REF, violates) == "wrong"
    partial = _outcome("optimal", 4, {"a001": 4, "z": 4})
    assert _kind(STAR, STAR_REF, partial) == "wrong"


def test_wrong_kernel_size_is_wrong():
    unpruned = _outcome("optimal", 4, {"a001": 4, "a002": 4, "z": 4}, kernel_vars=3)
    assert _kind(STAR, STAR_REF, unpruned) == "wrong"


def test_oracle_decisions_catch_flips():
    specs = WORKLOADS["3col-propagate"].draw_round(random.Random(0), 0)
    by_label = {s.name.rsplit("-", 1)[1]: s for s in specs}
    k4 = by_label["K4"]
    assert _kind(k4.text, k4.reference(), _outcome("infeasible", original_vars=147,
                                                    kernel_vars=147), returncode=1) == "correct"
    c5 = by_label["C5"]
    assert _kind(c5.text, c5.reference(), _outcome("infeasible", original_vars=138,
                                                    kernel_vars=138), returncode=1) == "wrong"


def test_sweep_reference_catches_a_bounded_claim_on_an_unbounded_instance():
    ref = sweep_reference(parse_instance(STALL_REPRODUCER), 8, exact=False)
    assert _kind(STALL_REPRODUCER, ref, _outcome("unbounded", kernel_vars=4,
                                                 original_vars=4)) == "correct"
    assert _kind(STALL_REPRODUCER, ref, _outcome("infeasible", kernel_vars=4, original_vars=4),
                 returncode=1) == "wrong"


def test_process_failures_are_not_verdicts():
    good = _outcome("optimal", 4, {"a001": 4, "a002": 4, "z": 4})
    assert _kind(STAR, STAR_REF, good, returncode=1) == "crash"
    traceback = "Traceback (most recent call last):\nRecursionError"
    assert _kind(STAR, STAR_REF, "", returncode=1, stderr=traceback) == "crash"
    assert _kind(STAR, STAR_REF, "", returncode=None, timed_out=True) == "timeout"


def test_ray_test_is_not_limited_to_a_box():
    # every recession ray here has an entry of magnitude 10 or more
    far_ray = parse_instance(
        "max: 2 x2\n-x1 + x3 <= 1\nx0 - 2 x1 + 2 x2 - 2 x3 <= 9\n"
        "x0 - 2 x1 - 2 x2 - x3 <= 13\nx1 + 2 x2 <= -6\nx1 + 2 x3 <= -7\n"
    )
    assert has_recession_ray(far_ray)
    assert not has_recession_ray(parse_instance("max: x\nx - y <= 0\ny <= 3\n"))
