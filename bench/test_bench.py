"""Tests of the benchmark itself: seeded op lists, output checks, tracing.

Run with ``python3 -m pytest bench/test_bench.py -q`` from the repository
root.  They are not part of the tier-1 suite under ``tests/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import calibrate  # noqa: E402
import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from modgeod import cli  # noqa: E402


def _cli(argv: list[str]) -> tuple[int | None, str, list | None]:
    out = io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except Exception as raised:
            exc = [type(raised).__name__, str(raised)]
    return rc, out.getvalue(), exc


def _status(op: dict, rc, text: str, exc=None, n_checks: int = 0) -> str:
    return checks.check(op, rc, text, exc, n_checks)[0]


# ---------------------------------------------------------------------------
# op lists


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_deterministic_for_a_seed(workload):
    assert workloads.ops_for(workload, 7) == workloads.ops_for(workload, 7)
    assert json.dumps(workloads.ops_for(workload, 7))  # plain data, printable


@pytest.mark.parametrize("workload", ["enumerate", "audit", "counts"])
def test_other_seeds_give_other_inputs(workload):
    assert workloads.ops_for(workload, 1) != workloads.ops_for(workload, 2)


def test_every_op_is_a_query_or_a_batch_call():
    for workload in workloads.WORKLOADS:
        for op in workloads.ops_for(workload, 3):
            assert op["kind"] in ("query", "batch")
            assert (op["kind"] == "batch") == (op["cmd"] in ("enumerate", "audit-lemma71", "verify"))


def test_depth_words_are_passed_with_equals_sign():
    for op in workloads.ops_for("audit", 3):
        if op["cmd"] == "depth":
            assert f"--word={op['word']}" in op["argv"]
            assert 8 <= len(op["word"]) <= 32 and set(op["word"]) == {"+", "-"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_counts_keeps_a_fixed_share_of_known_failing_ops(seed):
    ops = workloads.ops_for("counts", seed)
    failing = [op for op in ops if op["expect"] == "precision-limit"]
    assert len(failing) == workloads._TABLE1_FAIL
    for op in failing:
        assert ref.past_round_ceiling(op["t"], op["m"], 1.0)


# ---------------------------------------------------------------------------
# the checker accepts real output and rejects corrupted output


def _enumerate_op(family, t, m=None, primitive=False, fmt="csv"):
    argv = ["enumerate", "--family", family, "--t", str(t), "--format", fmt]
    argv += (["--m", str(m)] if m else []) + (["--primitive"] if primitive else [])
    return {"cmd": "enumerate", "kind": "batch", "expect": None, "argv": argv, "family": family,
            "t": t, "m": m, "primitive": primitive, "format": fmt}


@pytest.mark.parametrize("op", [
    _enumerate_op("classes", 9),
    _enumerate_op("classes", 10, m=3, fmt="json"),
    _enumerate_op("classes", 9, m=2, primitive=True),
    _enumerate_op("reciprocal", 7),
    _enumerate_op("reciprocal", 8, m=3, primitive=True, fmt="json"),
])
def test_enumerate_check_rejects_a_dropped_row(op):
    rc, text, exc = _cli(op["argv"])
    assert _status(op, rc, text, exc) == "ok"
    if op["format"] == "json":
        rows = json.loads(text)
        corrupted = json.dumps(rows[:-1], indent=2)
    else:
        corrupted = "\n".join(text.splitlines()[:-1]) + "\n"
    assert _status(op, rc, corrupted) == "bad"


def test_enumerate_check_rejects_a_duplicated_or_non_canonical_word():
    op = _enumerate_op("classes", 8)
    rc, text, _ = _cli(op["argv"])
    lines = text.splitlines()
    assert _status(op, rc, "\n".join(lines[:-1] + [lines[1]])) == "bad"
    word = lines[2].split(",")[0]
    rotated = word[1:] + word[0]
    assert _status(op, rc, "\n".join([lines[0], f"{rotated},8"] + lines[1:2] + lines[3:])) == "bad"


@pytest.mark.parametrize("argv", [
    ["count", "--family", "classes", "--t", "300"],
    ["count", "--family", "primitive", "--t", "120", "--cumulative"],
    ["count", "--family", "reciprocal-primitive", "--t", "90"],
    ["count", "--family", "lowlying", "--t", "11", "--m", "3"],
    ["count", "--family", "lowlying", "--t", "9", "--m", "2", "--primitive", "--cumulative"],
    ["count", "--family", "compositions", "--t", "150", "--m", "4", "--cumulative"],
    ["count", "--family", "classes+torsion", "--t", "40", "--cumulative"],
])
def test_count_check_rejects_an_off_by_one_count(argv):
    family = argv[2]
    t = int(argv[4])
    m = int(argv[argv.index("--m") + 1]) if "--m" in argv else None
    op = {"cmd": "count", "kind": "query", "expect": None, "argv": argv, "family": family,
          "t": t, "m": m, "cumulative": "--cumulative" in argv,
          "primitive": "--primitive" in argv, "format": "csv"}
    rc, text, exc = _cli(argv)
    assert _status(op, rc, text, exc) == "ok"
    assert _status(op, rc, f"{int(text) + 1}\n") == "bad"
    assert _status(op, rc, f"{int(text) - 1}\n") == "bad"


def test_depth_check_rejects_a_wrong_trace():
    word = "+++--+-"
    op = {"cmd": "depth", "kind": "query", "expect": None, "word": word, "format": "csv",
          "argv": ["depth", f"--word={word}"]}
    rc, text, exc = _cli(op["argv"])
    assert _status(op, rc, text, exc) == "ok"
    header, row = text.splitlines()
    cells = row.split(",")
    cells[3] = str(int(cells[3]) + 1)
    assert _status(op, rc, f"{header}\n{','.join(cells)}\n") == "bad"


def test_audit_check_rejects_a_dropped_class():
    op = {"cmd": "audit-lemma71", "kind": "batch", "expect": None, "tmax": 6, "format": "csv",
          "argv": ["audit-lemma71", "--tmax", "6"]}
    rc, text, exc = _cli(op["argv"])
    assert _status(op, rc, text, exc) == "ok"
    lines = text.splitlines()
    assert _status(op, rc, "\n".join(lines[:1] + lines[2:])) == "bad"


def test_growth_and_table1_checks_reject_a_changed_value():
    op = {"cmd": "growth", "kind": "query", "expect": None, "item": 2, "m": 3, "tmax": 40,
          "format": "csv", "argv": ["growth", "--item", "2", "--m", "3", "--tmax", "40"]}
    rc, text, exc = _cli(op["argv"])
    assert _status(op, rc, text, exc) == "ok"
    assert _status(op, rc, text.replace("\n40,", "\n40,1")) == "bad"
    op = {"cmd": "table1", "kind": "query", "expect": None, "t": 30, "m": 3, "format": "csv",
          "argv": ["table1", "--t", "30", "--m", "3"]}
    rc, text, exc = _cli(op["argv"])
    assert _status(op, rc, text, exc) == "ok"
    value = str(ref.classes_count(30))
    assert _status(op, rc, text.replace(value, str(int(value) - 1))) == "bad"


def test_table1_past_the_ceiling_is_a_known_failure_not_a_pass():
    op = {"cmd": "table1", "kind": "query", "expect": "precision-limit", "t": 80, "m": 2,
          "format": "csv", "argv": ["table1", "--t", "80", "--m", "2"]}
    rc, text, exc = _cli(op["argv"])
    assert _status(op, rc, text, exc) in ("known-failure", "ok")
    assert _status(op, None, "", ["RuntimeError", "boom"]) == "bad"
    assert _status(dict(op, expect=None), None, "", ["PrecisionLimitError", "x"]) == "bad"


def test_alpha_check_rejects_a_wrong_root():
    op = {"cmd": "alpha", "kind": "query", "expect": None, "m": 5, "format": "csv",
          "argv": ["alpha", "--m", "5"]}
    rc, text, exc = _cli(op["argv"])
    assert _status(op, rc, text, exc) == "ok"
    header, row = text.splitlines()
    cells = row.split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    assert _status(op, rc, f"{header}\n{','.join(cells)}\n") == "bad"


def test_verify_check_needs_every_registered_check_to_pass():
    op = {"cmd": "verify", "kind": "batch", "expect": None, "format": "csv",
          "argv": ["verify", "--suite", "all"]}
    good = "".join(f"PASS check.{i}\n" for i in range(3)) + "3/3 checks passed\n"
    assert _status(op, 0, good, n_checks=3) == "ok"
    assert _status(op, 0, good, n_checks=4) == "bad"
    assert _status(op, 1, good.replace("PASS check.1", "FAIL check.1: x"), n_checks=3) == "bad"


def test_a_nonzero_exit_is_bad():
    op = _enumerate_op("classes", 5)
    assert _status(op, 2, "") == "bad"


# ---------------------------------------------------------------------------
# tracing


def test_tracer_reports_missing_targets_as_absent_and_restores_attributes():
    import modgeod.enumeration as en

    original = en.classes
    t = tracer.Tracer()
    t.install(tracer.TARGETS + (("modgeod.enumeration:_no_such_kernel", "binwords.gone", "counter"),))
    try:
        assert en.classes is not original
        assert sum(1 for _ in en.classes(6)) == ref.classes_count(6)
    finally:
        t.uninstall()
    assert en.classes is original
    report = t.report()
    assert report["absent"] == ["modgeod.enumeration:_no_such_kernel"]
    assert report["target_calls"]["modgeod.enumeration:_min_rotation_bits"] == 1 << 6
    (span,) = [s for s in report["spans"] if s["name"] == "enumeration.classes"]
    assert span["items"] == ref.classes_count(6)


def test_layer_metrics_leave_out_ratios_and_absent_kernels():
    trace = {"counters": [], "spans": [], "target_calls": {},
             "absent": ["modgeod.enumeration:_min_rotation_bits",
                        "modgeod.enumeration:_full_from_half_bits",
                        "modgeod.geometry:_bfs_min_c"]}
    layers = run._layer_metrics(trace, alpha_misses=0, stdout_bytes=10)
    assert "enumeration.keep_ratio" not in layers
    assert "enumeration.words_scanned" not in layers
    assert "geometry.bfs.calls" not in layers
    assert layers["geometry.encode.calls"] == 0


# ---------------------------------------------------------------------------
# calibration


def test_calibration_scales_to_reference_seconds_and_restores_the_collector():
    import gc

    ref_s = calibrate.REFERENCE_S
    assert calibrate.scale([2 * ref_s, 2 * ref_s]) == 0.5
    assert calibrate.scale([ref_s / 2, ref_s / 2, 5 * ref_s]) == 2.0  # a median, not a mean
    assert gc.isenabled()
    assert calibrate.loop_time() > 0
    assert gc.isenabled()
