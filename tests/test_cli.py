import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles

from modgeod import cli
from modgeod.cli import _emit_rows, _fmt, _write_rows, main
from modgeod.counting import (
    bounded_compositions,
    cumulative,
    lowlying_lower_bound,
    primitive_class_count,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# count

def test_count_reciprocal_cumulative(capsys):
    code, out = run(capsys, "count", "--family", "reciprocal", "--t", "5", "--cumulative")
    assert code == 0
    assert out == "31\n"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("count", "--family", "classes", "--t", "6"), "14"),
        (("count", "--family", "classes+torsion", "--t", "2", "--cumulative"), "8"),
        (("count", "--family", "primitive", "--t", "6"), "9"),
        (("count", "--family", "reciprocal", "--t", "3"), "4"),
        (("count", "--family", "reciprocal-primitive", "--t", "2"), "1"),
        (("count", "--family", "lowlying", "--t", "3", "--m", "2"), "2"),
        (("count", "--family", "lowlying-reciprocal", "--t", "4", "--m", "2"), "5"),
        (("count", "--family", "compositions", "--t", "5", "--m", "2"), "8"),
        (("count", "--family", "compositions", "--t", "5"), "16"),
        (("count", "--family", "reciprocal", "--t", "4", "--primitive"), "6"),
    ],
)
def test_count_families(capsys, argv, expected):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


def test_count_json(capsys):
    code, out = run(
        capsys, "count", "--family", "reciprocal", "--t", "5", "--cumulative",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["exact"] == 31
    assert record["family"] == "reciprocal"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "nonsense", "--t", "3"),
        ("count", "--family", "lowlying", "--t", "3"),
        ("count", "--family", "classes+torsion", "--t", "3"),
        ("count", "--family", "lowlying", "--t", "99", "--m", "2"),
        ("count", "--family", "classes"),
        ("count", "--family", "classes", "--t", "0"),
        ("count", "--family", "compositions", "--t", "0"),
        ("count", "--family", "compositions", "--t", "-3", "--cumulative"),
        ("count", "--family", "lowlying-reciprocal", "--t", "0", "--m", "3"),
        ("count", "--family", "compositions", "--t", "7", "--primitive"),
        ("count", "--family", "lowlying", "--t", "0", "--m", "2", "--cumulative"),
        ("growth", "--item", "1", "--tmax", "0"),
        ("growth", "--item", "3", "--tmax", "-2"),
        ("growth", "--item", "4", "--m", "3", "--tmax", "5", "--oracle-max", "-3"),
        ("table1", "--t", "5", "--m", "2", "--oracle-max", "-1"),
        ("nonsense-subcommand",),
        ("count", "--family", "classes", "--t", "5", "--m", "0"),
        ("count", "--family", "primitive", "--t", "5", "--m", "2"),
        ("count", "--family", "reciprocal", "--t", "5", "--m", "2", "--cumulative"),
        ("count", "--family", "reciprocal-primitive", "--t", "5", "--m", "3"),
        ("count", "--family", "classes+torsion", "--t", "2", "--cumulative", "--m", "2"),
        ("count", "--family", "classes+torsion", "--t", "2", "--cumulative", "--primitive"),
        ("audit-lemma71", "--tmax", "31"),
        ("growth", "--item", "3", "--tmax", "1023"),
        ("growth", "--item", "1", "--tmax", "2048"),
        ("growth", "--item", "2", "--m", "3", "--tmax", "3000"),
        ("growth", "--item", "4", "--m", "0", "--oracle-max", "0", "--tmax", "1"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_classes(capsys):
    code, out = run(capsys, "enumerate", "--family", "classes", "--t", "3", "--primitive")
    assert code == 0
    assert out.splitlines() == ["word,tau", "--+,3", "-++,3"]


def test_enumerate_reciprocal(capsys):
    code, out = run(capsys, "enumerate", "--family", "reciprocal", "--t", "2")
    assert code == 0
    assert out.splitlines() == ["word,t,k0", "--++,2,2", "-+-+,2,1"]


def test_enumerate_json_mirrors_csv(capsys):
    _, csv_out = run(capsys, "enumerate", "--family", "reciprocal", "--t", "3")
    code, json_out = run(
        capsys, "enumerate", "--family", "reciprocal", "--t", "3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(json_out)
    header = csv_out.splitlines()[0].split(",")
    assert [list(r) for r in rows] == [header] * len(rows)
    assert [r["word"] for r in rows] == [
        line.split(",")[0] for line in csv_out.splitlines()[1:]
    ]


def test_enumerate_reciprocal_golden_format(capsys):
    # the expected text comes from the tuple oracles and the standard library,
    # not from the row emitter
    words = sorted(
        w for w in oracles.smaller_mirrored_reps(9) if oracles.max_cyclic_run_tuple(w) <= 3
    )
    rows = [
        {"word": oracles.sign_text(w), "t": 9, "k0": oracles.return_shift_tuple(w)}
        for w in words
    ]
    assert len(rows) == bounded_compositions(9, 3)
    code, out = run(capsys, "enumerate", "--family", "reciprocal", "--t", "9", "--m", "3",
                    "--format", "json")
    assert code == 0
    assert out == json.dumps(rows, indent=2) + "\n"
    expected = io.StringIO()
    writer = csv.DictWriter(expected, fieldnames=["word", "t", "k0"], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    code, out = run(capsys, "enumerate", "--family", "reciprocal", "--t", "9", "--m", "3")
    assert code == 0
    assert out == expected.getvalue()


_AWKWARD_ROWS = [
    {"s": 'say "hi"', "b": True, "n": None, "f": 1.5, "i": 10**40, "extra": "dropped"},
    {"s": "back\\slash\ttab", "b": False, "n": None, "f": float("nan"), "i": -7, "extra": 0},
    {"s": "caf\u00e9 \u2014 \U0001d11e", "b": True, "n": None, "f": float("-inf"), "i": 0,
     "extra": 1},
    {"s": "", "b": False, "n": None, "f": 1e-300, "i": 2**63, "extra": 2},
]
_AWKWARD_FIELDS = ["s", "b", "n", "f", "i"]


@pytest.mark.parametrize("rows", [_AWKWARD_ROWS, _AWKWARD_ROWS[:1], []])
def test_emit_rows_json_is_json_dumps(capsys, rows):
    _emit_rows(rows, _AWKWARD_FIELDS, "json")
    cut = [{k: row[k] for k in _AWKWARD_FIELDS} for row in rows]
    assert capsys.readouterr().out == json.dumps(cut, indent=2) + "\n"


@pytest.mark.parametrize("rows", [_AWKWARD_ROWS, []])
def test_emit_rows_csv_is_one_line_per_row(capsys, rows):
    _emit_rows(rows, _AWKWARD_FIELDS, "csv")
    lines = [",".join(_AWKWARD_FIELDS)]
    lines += [",".join(_fmt(row[k]) for k in _AWKWARD_FIELDS) for row in rows]
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


# the chunk test's fields: "extra" mixes str and int in one column
_CHUNK_FIELDS = [*_AWKWARD_FIELDS, "extra"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [0, 1, 3, 4])
def test_write_rows_in_chunks_matches_whole_output(capsys, monkeypatch, fmt, n):
    # n = 0, 1, one chunk and one chunk plus a row
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    rows = [_AWKWARD_ROWS[i % len(_AWKWARD_ROWS)] for i in range(n)]
    _write_rows(([row[k] for k in _CHUNK_FIELDS] for row in rows), _CHUNK_FIELDS, fmt)
    out = capsys.readouterr().out
    if fmt == "json":
        cut = [{k: row[k] for k in _CHUNK_FIELDS} for row in rows]
        assert out == json.dumps(cut, indent=2) + "\n"
    else:
        lines = [",".join(_CHUNK_FIELDS)]
        lines += [",".join(_fmt(row[k]) for k in _CHUNK_FIELDS) for row in rows]
        assert out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_write_rows_writes_each_chunk_as_it_fills(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)

    def rows():
        for i in range(5):
            yield f"w{i}", i
        raise RuntimeError("the fifth row is the last one")

    with pytest.raises(RuntimeError):
        _write_rows(rows(), ["word", "n"], fmt)
    # two whole chunks went out before the third one failed
    out = capsys.readouterr().out
    written = [{"word": f"w{i}", "n": i} for i in range(4)]
    if fmt == "json":
        assert out == json.dumps(written, indent=2)[: -len("\n]")]
    else:
        assert out == "word,n\n" + "\n".join(f"w{i},{i}" for i in range(4))


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "classes", "--t", "0"),
        ("enumerate", "--family", "classes", "--t", "4", "--m", "0"),
        ("enumerate", "--family", "reciprocal", "--t", "0"),
        ("enumerate", "--family", "classes", "--t", "31"),
        ("enumerate", "--family", "reciprocal", "--t", "4", "--m", "0", "--format", "json"),
        ("enumerate", "--family", "reciprocal", "--t", "31", "--format", "json"),
    ],
)
def test_enumerate_bad_sizes_exit_2(capsys, argv):
    # rows stream, so the sizes must be refused before the first byte
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 2
    assert out == ""


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone and which has no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_without_a_descriptor_ends_quietly(monkeypatch):
    dup2 = os.dup2
    moved = []

    def recorded_dup2(*args):
        moved.append(args)
        return dup2(*args)

    monkeypatch.setattr(os, "dup2", recorded_dup2)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["enumerate", "--family", "classes", "--t", "3"])
    monkeypatch.undo()
    assert code == 0
    assert moved == []


# ---------------------------------------------------------------------------
# alpha

def test_alpha_output(capsys):
    code, out = run(capsys, "alpha", "--m", "2")
    assert code == 0
    header, row = out.splitlines()
    assert header == "m,alpha,d,residual"
    fields = row.split(",")
    assert fields[0] == "2"
    assert fields[1].startswith("1.618033988749")
    assert abs(float(fields[3])) < 1e-12


def test_alpha_usage_error(capsys):
    code = main(["alpha", "--m", "1"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# verify

def test_verify_suite_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "binwords", "--tmax", "6")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--tmax", "5")
    assert code == 0
    assert "FAIL" not in out


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "nonsense"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# growth

def test_growth_item1_rows(capsys):
    code, out = run(capsys, "growth", "--item", "1", "--tmax", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,exact,target,ratio"
    assert lines[10] == "10,31,32,0.96875"


def test_growth_item2_exact_cumulative(capsys):
    code, out = run(capsys, "growth", "--item", "2", "--tmax", "8", "--m", "2")
    assert code == 0
    row = out.splitlines()[8].split(",")
    assert row[1] == str(sum(bounded_compositions(n, 2) for n in (1, 2, 3, 4))) == "11"
    assert abs(float(row[2]) - 12.98) < 0.01


def test_growth_item3_subtracts_parabolic_pair(capsys):
    code, out = run(capsys, "growth", "--item", "3", "--tmax", "4")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[1][1] == str(primitive_class_count(1) + primitive_class_count(2) - 2) == "1"
    assert rows[3][1] == str(cumulative("classes", 4, primitive=True) - 2)


def test_growth_item4_mixes_oracle_and_bound(capsys):
    code, out = run(
        capsys, "growth", "--item", "4", "--tmax", "8", "--m", "3", "--oracle-max", "6"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    # integer while enumerated, real once the bound takes over
    assert "." not in rows[5][1]
    assert "." in rows[7][1]


def _oracle_growth_exacts(item, tmax, m=None, oracle_max=None):
    """Per-row sums from the naive oracles, each row summed anew."""
    if item == 1:
        per_length = [oracles.composition_table(n, n)[n] for n in range(tmax // 2 + 1)]
        return [sum(per_length[1:t // 2 + 1]) for t in range(1, tmax + 1)]
    if item == 2:
        per_length = oracles.composition_table(tmax // 2, m)
        return [sum(per_length[1:t // 2 + 1]) for t in range(1, tmax + 1)]
    if item == 3:
        necklaces = [0] + [oracles.necklace_count_shifts(n) for n in range(1, tmax + 1)]
        per_length = oracles.primitive_table(necklaces)
        return [sum(per_length[1:t + 1]) - 2 for t in range(1, tmax + 1)]

    def kept(w):
        return (len(set(w)) == 2 and oracles.is_primitive_tuple(w)
                and oracles.max_cyclic_run_tuple(w) <= m)

    per_length = [
        len(oracles.class_reps(tau, kept)) if tau <= oracle_max
        else lowlying_lower_bound(tau, m)
        for tau in range(1, tmax + 1)
    ]
    rows = []
    for t in range(1, tmax + 1):
        total = 0
        for value in per_length[:t]:
            total += value
        rows.append(total)
    return rows


@pytest.mark.parametrize(
    "item,tmax,m,oracle_max",
    [
        (1, 60, None, None),
        (2, 60, 2, None),
        (2, 59, 5, None),
        (3, 60, None, None),
        (4, 12, 3, 16),
        (4, 12, 4, 7),
        (4, 60, 3, 10),
    ],
)
def test_growth_exact_column_matches_oracle_sums(capsys, item, tmax, m, oracle_max):
    argv = ["growth", "--item", str(item), "--tmax", str(tmax), "--format", "json"]
    argv += ["--m", str(m)] if m is not None else []
    argv += ["--oracle-max", str(oracle_max)] if oracle_max is not None else []
    code, out = run(capsys, *argv)
    assert code == 0
    exacts = [row["exact"] for row in json.loads(out)]
    assert exacts == _oracle_growth_exacts(item, tmax, m, oracle_max)


@pytest.mark.parametrize(
    "item,extra,first_t",
    [
        (1, (), 2048),
        (2, ("--m", "3"), 2330),
        (3, (), 1023),
        (4, ("--m", "3", "--oracle-max", "3"), 1536),
    ],
)
def test_growth_past_the_double_range_names_item_and_t(capsys, item, extra, first_t):
    def growth(tmax):
        return main(["growth", "--item", str(item), "--tmax", str(tmax), *extra])

    assert growth(5000) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"growth item {item}: the float columns overflow a double at t={first_t};" in captured.err
    assert growth(first_t - 1) == 0
    capsys.readouterr()


def test_growth_missing_m_exits_2(capsys):
    for item in ("2", "4"):
        code = main(["growth", "--item", item, "--tmax", "6"])
        capsys.readouterr()
        assert code == 2


def test_growth_deterministic(capsys):
    _, first = run(capsys, "growth", "--item", "2", "--tmax", "12", "--m", "3")
    _, second = run(capsys, "growth", "--item", "2", "--tmax", "12", "--m", "3")
    assert first == second


# ---------------------------------------------------------------------------
# table1

def test_table1_reference_rows(capsys):
    code, out = run(capsys, "table1", "--t", "6", "--m", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,word_length,formula,enumerated,check"
    assert lines[1] == "classes,12,14,14,equal"
    assert lines[2] == "reciprocal,24,32,32,equal"
    assert lines[3].startswith("lowlying,12,1.33333333333,")
    assert lines[3].endswith("bound-ok")
    assert lines[4] == "lowlying-reciprocal,24,24,24,equal"


def test_table1_t3_reciprocal_row(capsys):
    code, out = run(capsys, "table1", "--t", "3", "--m", "2")
    assert code == 0
    assert "reciprocal,12,4,4,equal" in out.splitlines()


def test_table1_beyond_oracle_skips(capsys):
    code, out = run(capsys, "table1", "--t", "20", "--m", "3", "--oracle-max", "16")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.endswith("skipped")


def test_table1_past_rounding_ceiling(capsys):
    # the closed form refuses here; the formula column comes from the recursion
    code, out = run(capsys, "table1", "--t", "80", "--m", "2")
    assert code == 0
    assert out.splitlines()[4] == "lowlying-reciprocal,320,37889062373143906,,skipped"


@pytest.mark.parametrize("m,t,first_t", [(3, 2000, 1538), (2, 10**40, 2050)])
def test_table1_past_the_double_range_names_t(capsys, m, t, first_t):
    # the lowlying bound 2^(t - t/m - 1) / t is a double
    def table1(t):
        return main(["table1", "--t", str(t), "--m", str(m)])

    assert table1(t) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the lowlying bound overflows a double at t={first_t} for --m {m};" in captured.err
    assert table1(first_t - 1) == 0
    capsys.readouterr()


def test_table1_json(capsys):
    code, out = run(capsys, "table1", "--t", "4", "--m", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["family"] for r in rows] == [
        "classes", "reciprocal", "lowlying", "lowlying-reciprocal",
    ]
    assert rows[3]["formula"] == rows[3]["enumerated"] == 5


# ---------------------------------------------------------------------------
# depth

def test_depth_word(capsys):
    code, out = run(capsys, "depth", "--word", "++-")
    assert code == 0
    header, row = out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["word"] == "++-"
    assert fields["trace_abs"] == "4"
    assert abs(float(fields["apex"]) - math.sqrt(3)) < 1e-9
    assert fields["cross_check_ok"] == "true"


def test_depth_syllables_equivalent(capsys):
    _, by_word = run(capsys, "depth", "--word", "++-")
    code, by_syll = run(capsys, "depth", "--syllables", "ababaB")
    assert code == 0
    assert by_word == by_syll


@pytest.mark.parametrize(
    "argv",
    [
        ("depth", "--word", "+x-"),
        ("depth", "--syllables", "abX"),
        ("depth", "--word", "+++"),  # parabolic
        ("depth",),
        ("depth", "--word", "++-", "--syllables", "abab"),
    ],
)
def test_depth_bad_inputs_exit_2(capsys, argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("word_arg", ["--word=", "--word=--"])
def test_depth_empty_word_names_the_consumed_double_dash(capsys, word_arg):
    # argparse drops a lone "--" value, so both spellings arrive empty
    code = main(["depth", word_arg])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--word is empty" in captured.err
    assert "consumes a '--' value" in captured.err


# ---------------------------------------------------------------------------
# audit

def test_audit_rows_and_summary(capsys):
    code, out = run(capsys, "audit-lemma71", "--tmax", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "word,tau,max_run,trace_abs,length,apex,depth,"
        "paper_bracket_hit,shifted_bracket_hit"
    )
    data_lines = [l for l in lines if not l.startswith("#")]
    summary_lines = [l for l in lines if l.startswith("#")]
    assert len(data_lines) - 1 == 1 + 2 + 4  # hyperbolic classes at tau = 2, 3, 4
    assert any(l.startswith("# widened_hits: 7") for l in summary_lines)
    assert any(l.startswith("# max_run") for l in summary_lines)


def test_audit_json(capsys):
    code, out = run(capsys, "audit-lemma71", "--tmax", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"rows", "summary"}
    assert payload["summary"]["classes"] == len(payload["rows"]) == 3
    assert payload["summary"]["widened_hits"] == 3


def test_audit_tmax_validation(capsys):
    code = main(["audit-lemma71", "--tmax", "1"])
    capsys.readouterr()
    assert code == 2


def test_oracle_max_zero_never_enumerates(capsys):
    code, out = run(capsys, "table1", "--t", "5", "--m", "2", "--oracle-max", "0")
    assert code == 0
    assert all(line.endswith("skipped") for line in out.splitlines()[1:])
    code, _ = run(capsys, "growth", "--item", "4", "--m", "3", "--tmax", "3", "--oracle-max", "0")
    assert code == 0


# ---------------------------------------------------------------------------
# the optimised interpreter

_SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "reciprocal", "--t", "7", "--m", "2"),
        ("enumerate", "--family", "classes", "--t", "9", "--primitive", "--hyperbolic"),
        ("count", "--family", "lowlying", "--t", "10", "--m", "3", "--cumulative"),
        ("verify", "--suite", "enumerate", "--tmax", "6"),
        ("audit-lemma71", "--tmax", "6"),
        ("depth", "--word=--++++-+--", "--format", "json"),
        ("count", "--family", "compositions", "--t", "300", "--m", "4", "--cumulative"),
        ("growth", "--item", "2", "--m", "3", "--tmax", "60"),
        ("growth", "--item", "3", "--tmax", "40"),
        ("alpha", "--m", "40"),
        ("verify", "--suite", "binwords", "--tmax", "8"),
        ("verify", "--suite", "enumerate", "--tmax", "10"),
        ("enumerate", "--family", "reciprocal", "--t", "9", "--format", "json"),
        ("enumerate", "--family", "classes", "--t", "12", "--m", "3", "--format", "json"),
    ],
)
def test_same_output_under_python_O(argv):
    # -O strips assert statements, so no invariant may rest on one
    plain = _python("-m", "modgeod", *argv)
    optimised = _python("-O", "-m", "modgeod", *argv)
    assert plain.returncode == 0, plain.stderr
    assert (optimised.returncode, optimised.stdout) == (plain.returncode, plain.stdout)


def test_closed_pipe_ends_quietly():
    # like `modgeod enumerate ... | head -1`: the reader closes the pipe after
    # one line, long before the 1 MB of rows is written
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "modgeod", "enumerate", "--family", "classes", "--t", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert (first, err) == (b"word,tau\n", b"")


def test_k0_check_survives_python_O():
    result = _python("-O", "-c", "from modgeod.binwords import _k0_bits; _k0_bits(0b001, 3)")
    assert result.returncode == 1
    assert "ValueError: not a mirrored word" in result.stderr


# valid calls with usage errors (exit 2) between them
_MIXED_ARGVS = [
    ("count", "--family", "classes", "--t", "6"),
    ("depth", "--word=++-"),
    ("count", "--family", "nonsense", "--t", "3"),
    ("depth", "--word=+--+-", "--format", "json"),
    ("depth", "--word=++-", "--syllables", "abaB"),
    ("enumerate", "--family", "reciprocal", "--t", "5", "--m", "2"),
    ("audit-lemma71", "--tmax", "31"),
    ("audit-lemma71", "--tmax", "4"),
    ("growth", "--item", "4", "--tmax", "4"),
    ("alpha", "--m", "3", "--format", "json"),
    ("depth", "--word=+++"),
    ("table1", "--t", "5", "--m", "2"),
    ("count", "--family", "lowlying", "--t", "5", "--m", "2", "--cumulative"),
    ("depth", "--syllables", "abaBaB"),
]


def test_one_process_answers_like_fresh_processes(capsys):
    # the parser is built once per process, so no call may leave state behind
    # that changes a later call's answer
    in_process = []
    for argv in _MIXED_ARGVS:
        code = main(list(argv))
        in_process.append((code, capsys.readouterr().out))
    fresh = [
        (r.returncode, r.stdout) for r in (_python("-m", "modgeod", *argv) for argv in _MIXED_ARGVS)
    ]
    assert in_process == fresh
    assert {code for code, _ in in_process} == {0, 2}
