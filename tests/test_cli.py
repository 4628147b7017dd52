import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from modgeod import cli
from modgeod import enumeration as en
from modgeod import geometry as geo
from modgeod import verify as vf
from modgeod.cli import _fmt, _write_columns, main
from modgeod.counting import (
    bounded_compositions,
    count,
    cumulative,
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
        (("count", "--family", "lowlying-reciprocal", "--t", "6", "--m", "2", "--primitive"),
         "9"),
        (("count", "--family", "lowlying-reciprocal", "--t", "6", "--m", "2", "--primitive",
          "--cumulative"), str(1 + 1 + 2 + 3 + 7 + 9)),
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


def _readme_count_examples() -> list[tuple[list[str], str]]:
    # the README's documented counts: each "modgeod count ...  # N" line of
    # its CLI block, and each "`count ...` prints N" in its prose
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = re.findall(r"^modgeod (count .*?)\s+# (\d+)$", block, re.M)
    prose = re.findall(r"`(count [^`]*)` prints (\d+)", " ".join(text.split()))
    assert len(lines) >= 4 and prose, "the README's count examples were not found"
    return [(argv.split(), n) for argv, n in lines + prose]


def test_readme_count_examples_print_their_documented_counts(capsys):
    for argv, expected in _readme_count_examples():
        code, out = run(capsys, *argv)
        assert (code, out) == (0, expected + "\n"), argv


# a size past sys.maxsize, and the first size past the counters' ceiling
# counting._MAX_SIZE = 10**7
_HUGE = "99999999999999999999"
_PAST_CEILING = "10000001"

# the message in stderr for the last argvs of test_usage_errors_exit_2,
# which name the flag that is past the ceiling
_SIZE_MESSAGES = {
    ("count", "--family", "classes", "--t", _HUGE): "error: t must be <= 10000000",
    ("count", "--family", "reciprocal", "--t", _HUGE): "error: t must be <= 10000000",
    ("count", "--family", "reciprocal", "--t", _HUGE, "--cumulative"):
        "error: t_max must be <= 10000000",
    ("alpha", "--m", _HUGE): "error: m must be <= 10000000",
    ("count", "--family", "lowlying", "--t", _HUGE, "--m", "3"): "error: t must be <= 10000000",
    ("count", "--family", "compositions", "--t", _HUGE, "--m", "3"):
        "error: t must be <= 10000000",
    ("growth", "--item", "2", "--m", _HUGE, "--tmax", "3"): "error: m must be <= 10000000",
    ("count", "--family", "reciprocal-primitive", "--t", _PAST_CEILING, "--cumulative"):
        "error: t_max must be <= 10000000",
    ("count", "--family", "classes+torsion", "--t", _PAST_CEILING, "--cumulative"):
        "error: t_max must be <= 10000000",
    ("count", "--family", "lowlying-reciprocal", "--t", _PAST_CEILING, "--m", "3",
     "--primitive", "--cumulative"): "error: t_max must be <= 10000000",
    ("count", "--family", "reciprocal", "--t", _PAST_CEILING): "error: t must be <= 10000000",
    ("alpha", "--m", _PAST_CEILING): "error: m must be <= 10000000",
}

# the message in stderr for some other argvs of test_usage_errors_exit_2
_MESSAGES = {
    **_SIZE_MESSAGES,
    # the CLI's family names, not the library's
    ("count", "--family", "primitive", "--t", "5", "--m", "2"):
        "error: a run bound m is only for lowlying, lowlying-reciprocal, compositions\n",
    ("count", "--family", "classes+torsion", "--t", "2", "--cumulative", "--m", "2"):
        "error: a run bound m is only for lowlying, lowlying-reciprocal, compositions\n",
    ("table1", "--t", "0", "--m", "3"): "error: table1 needs --t >= 1 and --m >= 2\n",
    ("table1", "--t", "5", "--m", "1"): "error: table1 needs --t >= 1 and --m >= 2\n",
    ("growth", "--item", "2", "--m", "1", "--tmax", "3"): "error: growth item 2 needs m >= 2\n",
    # the counter's own refusal, not the too-long one
    ("count", "--family", "classes+torsion", "--t", "200000", "--cumulative", "--primitive"):
        "error: torsion classes add only to the non-primitive classes family\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "nonsense", "--t", "3"),
        ("count", "--family", "lowlying", "--t", "3"),
        ("count", "--family", "classes+torsion", "--t", "3"),
        ("count", "--family", "lowlying", "--t", "5", "--m", "0"),
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
        ("alpha", "--m", "3", "--tol", "1e-13"),
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
        ("table1", "--t", "31", "--m", "3", "--oracle-max", "31"),
        ("growth", "--item", "4", "--m", "3", "--tmax", "31", "--oracle-max", "31"),
        ("growth", "--item", "4", "--m", "3", "--tmax", "40", "--oracle-max", "99"),
        ("growth", "--item", "1", "--tmax", "3", "--m", "9"),
        ("growth", "--item", "3", "--tmax", "3", "--m", "2"),
        ("count", "--family", "lowlying-reciprocal", "--t", "5", "--primitive"),
        ("count", "--family", "lowlying-reciprocal", "--t", "5", "--m", "0", "--primitive"),
        *_SIZE_MESSAGES,
        ("table1", "--t", "0", "--m", "3"),
        ("table1", "--t", "5", "--m", "1"),
        ("growth", "--item", "2", "--m", "1", "--tmax", "3"),
        ("count", "--family", "classes+torsion", "--t", "200000", "--cumulative", "--primitive"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _MESSAGES.get(argv, "error: ") in captured.err


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


def test_enumerate_reciprocal_golden_across_blocks(capsys):
    # t = 13 has two blocks of halves, and only the block of the alternating
    # word, the one periodic word, has k0 varying; so one chunk folds k0 into
    # its fixed text and the other does not
    assert sorted(len(set(k0s)) for _, k0s in en._reciprocal_chunks(13, None, False)) == [1, 2]
    rows = [
        {"word": oracles.sign_text(w), "t": 13, "k0": oracles.return_shift_tuple(w)}
        for w in sorted(oracles.smaller_mirrored_reps(13))
    ]
    code, out = run(capsys, "enumerate", "--family", "reciprocal", "--t", "13",
                    "--format", "json")
    assert code == 0
    assert out == json.dumps(rows, indent=2) + "\n"
    expected = io.StringIO()
    writer = csv.DictWriter(expected, fieldnames=["word", "t", "k0"], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    code, out = run(capsys, "enumerate", "--family", "reciprocal", "--t", "13")
    assert code == 0
    assert out == expected.getvalue()


@pytest.mark.parametrize("length", range(1, 65))
def test_sign_texts_are_the_formatted_words(length):
    rng = random.Random(length)
    top = (1 << length) - 1
    words = [0, top, *(rng.getrandbits(length) for _ in range(20))]
    signs = str.maketrans("01", "-+")
    for chunk in (words, words[:1], words[1:2]):
        expected = [format(w, f"0{length}b").translate(signs) for w in chunk]
        assert cli._sign_texts(chunk, length) == expected


_AWKWARD_ROWS = [
    {"s": 'say "hi"', "b": True, "n": None, "f": 1.5, "i": 10**40, "extra": "dropped"},
    {"s": "back\\slash\ttab", "b": False, "n": None, "f": float("nan"), "i": -7, "extra": 0},
    {"s": "caf\u00e9 \u2014 \U0001d11e", "b": True, "n": None, "f": float("-inf"), "i": 0,
     "extra": 1},
    {"s": "", "b": False, "n": None, "f": 1e-300, "i": 2**63, "extra": 2},
]
_AWKWARD_FIELDS = ["s", "b", "n", "f", "i"]


def _columns(rows: list[dict], fields: list[str]) -> list[list]:
    # one chunk: the column of each named value, as the table commands build it
    return [[row[k] for row in rows] for k in fields]


@pytest.mark.parametrize("rows", [_AWKWARD_ROWS, _AWKWARD_ROWS[:1], []])
def test_emit_rows_json_is_json_dumps(capsys, rows):
    _write_columns([_columns(rows, _AWKWARD_FIELDS)], _AWKWARD_FIELDS, "json")
    cut = [{k: row[k] for k in _AWKWARD_FIELDS} for row in rows]
    assert capsys.readouterr().out == json.dumps(cut, indent=2) + "\n"


@pytest.mark.parametrize("rows", [_AWKWARD_ROWS, []])
def test_emit_rows_csv_is_one_line_per_row(capsys, rows):
    _write_columns([_columns(rows, _AWKWARD_FIELDS)], _AWKWARD_FIELDS, "csv")
    lines = [",".join(_AWKWARD_FIELDS)]
    lines += [",".join(_fmt(row[k]) for k in _AWKWARD_FIELDS) for row in rows]
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


# the chunk test's fields: "extra" mixes str and int in one column
_CHUNK_FIELDS = [*_AWKWARD_FIELDS, "extra"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [0, 1, 3, 4])
def test_write_rows_in_chunks_matches_whole_output(capsys, fmt, n):
    # n = 0, 1, one chunk of three rows and one chunk plus a row, written in
    # chunks of three and as one chunk
    rows = [_AWKWARD_ROWS[i % len(_AWKWARD_ROWS)] for i in range(n)]
    chunks = [_columns(rows[i:i + 3], _CHUNK_FIELDS) for i in range(0, n, 3)]
    _write_columns(iter(chunks), _CHUNK_FIELDS, fmt)
    out = capsys.readouterr().out
    _write_columns([_columns(rows, _CHUNK_FIELDS)], _CHUNK_FIELDS, fmt)
    assert capsys.readouterr().out == out
    if fmt == "json":
        cut = [{k: row[k] for k in _CHUNK_FIELDS} for row in rows]
        assert out == json.dumps(cut, indent=2) + "\n"
    else:
        lines = [",".join(_CHUNK_FIELDS)]
        lines += [",".join(_fmt(row[k]) for k in _CHUNK_FIELDS) for row in rows]
        assert out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [0, 1, 3, 4])
def test_write_columns_matches_json_dumps_and_fmt(capsys, monkeypatch, fmt, n):
    # column chunks of _CHUNK_ROWS rows: none, one row, one chunk and one
    # chunk plus a row; "extra" mixes str and int in one column
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    rows = [_AWKWARD_ROWS[i % len(_AWKWARD_ROWS)] for i in range(n)]
    size = cli._CHUNK_ROWS
    chunks = [
        [[row[k] for row in rows[i:i + size]] for k in _CHUNK_FIELDS]
        for i in range(0, n, size)
    ]
    _write_columns(iter(chunks), _CHUNK_FIELDS, fmt)
    out = capsys.readouterr().out
    if fmt == "json":
        cut = [{k: row[k] for k in _CHUNK_FIELDS} for row in rows]
        assert out == json.dumps(cut, indent=2) + "\n"
    else:
        lines = [",".join(_CHUNK_FIELDS)]
        lines += [",".join(_fmt(row[k]) for k in _CHUNK_FIELDS) for row in rows]
        assert out == "".join(line + "\n" for line in lines)


# columns that are equal but print differently (1, 1.0 and true; 0.0 and
# -0.0), a str column that prints alike everywhere, and "c", alike on the first
# three rows but not on the next three
_FOLD_FIELDS = ["mixed", "zero", "s", "c", "n"]
_FOLD_COLUMNS = [
    [1, 1.0, True, True, True, True],
    [0.0, -0.0, 0.0, -0.0, -0.0, -0.0],
    ['sa"me'] * 6,
    [5, 5, 5, 5, 6, 5],
    [None] * 6,
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("rows", [
    [dict(zip(_FOLD_FIELDS, row)) for row in zip(*_FOLD_COLUMNS)],
    # every column alike on every row
    [{"mixed": True, "zero": 2, "s": "x", "c": 5, "n": None}] * 4,
])
@pytest.mark.parametrize("size", [1, 2, 3, 6])
def test_write_columns_folds_only_columns_that_print_alike(capsys, fmt, rows, size):
    chunks = [_columns(rows[i:i + size], _FOLD_FIELDS) for i in range(0, len(rows), size)]
    _write_columns(iter(chunks), _FOLD_FIELDS, fmt)
    out = capsys.readouterr().out
    _write_columns([_columns(rows, _FOLD_FIELDS)], _FOLD_FIELDS, fmt)
    assert capsys.readouterr().out == out
    if fmt == "json":
        assert out == json.dumps(rows, indent=2) + "\n"
    else:
        lines = [",".join(_FOLD_FIELDS)]
        lines += [",".join(_fmt(row[k]) for k in _FOLD_FIELDS) for row in rows]
        assert out == "".join(line + "\n" for line in lines)


# enumerate's fields and chunk shapes: one row, three rows with only the word
# varying, and two rows with the word and k0 varying
_SIGN_FIELDS = ["word", "t", "k0"]
_SIGN_CHUNKS = [
    [("--++", 4, 4)],
    [("---+", 4, 4), ("-+++", 4, 4), ("+--+", 4, 4)],
    [("-+-+", 4, 1), ("+++-", 4, 4)],
]


def _written(capsys, chunks, fields, fmt):
    _write_columns(iter(chunks), fields, fmt)
    return capsys.readouterr().out


def _expected_text(rows, fields, fmt):
    if fmt == "json":
        return json.dumps([dict(zip(fields, row)) for row in rows], indent=2) + "\n"
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(rows)
    return expected.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("shapes", [[0], [1], [2], [0, 1, 2], [2, 1, 0]])
def test_write_columns_quotes_sign_columns_in_the_fixed_text(capsys, fmt, shapes):
    # a _Signs column is written unescaped, its JSON quotes in the text around
    # it: alone as the one column that varies, beside a varying k0, and
    # folded on a one-row chunk
    rows = [row for i in shapes for row in _SIGN_CHUNKS[i]]
    chunks = [
        [cli._Signs(column) if k == "word" else list(column)
         for k, column in zip(_SIGN_FIELDS, zip(*_SIGN_CHUNKS[i]))]
        for i in shapes
    ]
    assert _written(capsys, chunks, _SIGN_FIELDS, fmt) == _expected_text(rows, _SIGN_FIELDS, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_write_columns_escapes_a_lone_str_column(capsys, fmt):
    # a plain str column is still escaped when it is the one column that varies
    texts = [row["s"] for row in _AWKWARD_ROWS]
    rows = [(s, 7) for s in texts]
    out = _written(capsys, [[texts, [7] * len(texts)]], ["s", "n"], fmt)
    if fmt == "json":
        assert out == _expected_text(rows, ["s", "n"], fmt)
    else:
        assert out == "s,n\n" + "".join(f"{s},7\n" for s in texts)


def test_enumerate_marks_its_word_columns():
    for family, t in (("classes", 6), ("reciprocal", 6)):
        args = cli._build_parser().parse_args(
            ["enumerate", "--family", family, "--t", str(t)]
        )
        words = next(cli._enumerate_columns(args))[0]
        assert type(words) is cli._Signs and set("".join(words)) == {"+", "-"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_write_rows_writes_each_chunk_as_it_fills(capsys, fmt):
    def chunks():
        for i in (0, 2):
            yield [f"w{i}", f"w{i + 1}"], [i, i + 1]
        raise RuntimeError("the third chunk fails")

    with pytest.raises(RuntimeError):
        _write_columns(chunks(), ["word", "n"], fmt)
    # two whole chunks went out before the third one failed
    out = capsys.readouterr().out
    written = [{"word": f"w{i}", "n": i} for i in range(4)]
    if fmt == "json":
        assert out == json.dumps(written, indent=2)[: -len("\n]")]
    else:
        assert out == "word,n\n" + "\n".join(f"w{i},{i}" for i in range(4))


def _reciprocal_csv_rows(capsys, t, m, primitive):
    argv = ["enumerate", "--family", "reciprocal", "--t", str(t)]
    argv += [] if m is None else ["--m", str(m)]
    argv += ["--primitive"] if primitive else []
    code, out = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,t,k0"
    return [tuple(line.split(",")) for line in lines[1:]]


def test_enumerate_reciprocal_rows_match_the_object_route(capsys, monkeypatch):
    # the CLI checks the core's words a chunk at a time; the object route
    # builds one checked HalfTurnWord per word.  2t = 30, 36 and 42 have two
    # or more odd primes, so their periodic words reach the _k0_bits fallback,
    # and t > 16 takes _reverse_bits' bytes path.  --primitive keeps the
    # classes whose k0 is t, as reciprocal_classes(..., primitive=True) does
    cases = [(t, m) for t in range(1, 15) for m in (None, 1, 2, 3, 4, 5, 6)]
    cases += [(15, 2), (18, 2), (21, 2)]
    for t, m in cases:
        expected = [(str(h.word), str(t), str(h.k0)) for h in en.reciprocal_classes(t, m)]
        assert _reciprocal_csv_rows(capsys, t, m, False) == expected, (t, m)
        primitive = [row for row in expected if row[2] == str(t)]
        assert _reciprocal_csv_rows(capsys, t, m, True) == primitive, (t, m)
    # blocks of three halves: periodic words fall on chunk edges, and some
    # blocks keep no word at all, more of them with --primitive
    monkeypatch.setattr(en, "_RECIPROCAL_BLOCK", 3)
    for t in range(1, 9):
        for primitive in (False, True):
            expected = [
                (str(h.word), str(t), str(h.k0))
                for h in en.reciprocal_classes(t, primitive=primitive)
            ]
            assert _reciprocal_csv_rows(capsys, t, None, primitive) == expected, (t, primitive)


@pytest.mark.parametrize("primitive", [False, True])
@pytest.mark.parametrize("m", [None, 3])
def test_enumerate_reciprocal_json_is_json_dumps_of_the_classes(capsys, m, primitive):
    # the expected text comes from the object route and json.dumps alone
    for t in range(1, 13):
        argv = ["enumerate", "--family", "reciprocal", "--t", str(t), "--format", "json"]
        argv += [] if m is None else ["--m", str(m)]
        argv += ["--primitive"] if primitive else []
        code, out = run(capsys, *argv)
        assert code == 0
        rows = [
            {"word": str(h.word), "t": t, "k0": h.k0}
            for h in en.reciprocal_classes(t, m, primitive=primitive)
        ]
        assert out == json.dumps(rows, indent=2) + "\n", (t, m, primitive)


# enumerate --family reciprocal --t 4 in blocks of three halves: the second
# block holds 00110011, the first word with a proper period, whose k0 is
# refused
_BROKEN_K0 = """
from modgeod import cli, enumeration as en
def refuse(bits, length):
    raise en.ContractViolationError(f"no k0 for {bits:0{length}b}")
en._RECIPROCAL_BLOCK = 3
en._k0_bits = refuse
cli.main(["enumerate", "--family", "reciprocal", "--t", "4"])
"""


def test_enumerate_reciprocal_stops_at_a_contract_violation(capsys, monkeypatch):
    def refuse(bits, length):
        raise en.ContractViolationError(f"no k0 for {bits:0{length}b}")

    monkeypatch.setattr(en, "_RECIPROCAL_BLOCK", 3)
    monkeypatch.setattr(en, "_k0_bits", refuse)
    with pytest.raises(en.ContractViolationError, match="^no k0 for 00110011$"):
        main(["enumerate", "--family", "reciprocal", "--t", "4"])
    # the first chunk went out; nothing of the second did
    first = "word,t,k0\n----++++,4,4\n---+-+++,4,4\n--+-+-++,4,4"
    assert capsys.readouterr().out == first
    result = _python("-O", "-c", _BROKEN_K0)
    assert (result.returncode, result.stdout) == (1, first)
    assert "ContractViolationError: no k0 for 00110011\n" in result.stderr


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


# the whole stdout of ``verify --suite all``: each check's PASS detail, then
# the summary
_VERIFY_ALL = (
    "PASS binwords.rotation_group_action (exhaustive through 8 entries)\n"
    "PASS binwords.orbit_size_matches_exponent (exhaustive through 12 entries)\n"
    "PASS binwords.half_turn_closure (exhaustive through half-length 12)\n"
    "PASS binwords.orbit_meets_mirror_twice (exhaustive through half-length 12)\n"
    "PASS binwords.primitivity_iff_k0 (exhaustive through half-length 10)\n"
    "PASS binwords.runs_two_preimages (exhaustive through 12 entries)\n"
    "PASS binwords.max_run_rotation_invariant (exhaustive through 10 entries)\n"
    "PASS counting.burnside_integrality (tau through 200)\n"
    "PASS counting.mobius_crosscheck (tau through 64)\n"
    "PASS counting.nonprimitive_bounds (lengths through 40)\n"
    "PASS counting.closed_form_agreement (t through 40, m through 10)\n"
    "PASS counting.unbounded_parts_degeneration (t through 24)\n"
    "PASS counting.alpha_bracket_residual_monotone (m through 40)\n"
    "PASS counting.ratio_trend_toward_one (checkpoints (10, 18, 26))\n"
    "PASS counting.sharp_law_ratio_to_one (n in (10, 20, 40, 80), m in 3..4, "
    "last gap below 1e-10)\n"
    "PASS enumerate.class_count_oracle (tau through 16)\n"
    "PASS enumerate.primitive_count_oracle (tau through 16)\n"
    "PASS enumerate.reciprocal_count_oracle (t through 16)\n"
    "PASS enumerate.composition_bijection (t through 12, every m)\n"
    "PASS enumerate.lowlying_lower_bound (tau through 16, m in 2..4)\n"
    "PASS enumerate.witness_generator_bound (tau through 16, m in 2..4)\n"
    "PASS enumerate.filter_monotone (tau through 12)\n"
    "PASS enumerate.power_map_partition (tau through 12)\n"
    "PASS enumerate.half_run_equals_full_run (half-length through 12)\n"
    "PASS geometry.concatenation_homomorphism (words through 8 entries, all splits)\n"
    "PASS geometry.conjugation_invariance (tau through 10)\n"
    "PASS geometry.parabolic_exactly_constants (tau through 12)\n"
    "PASS geometry.apex_quadratic_oracle (tau through 8)\n"
    "PASS geometry.sign_canonicalization (tau through 6)\n"
    "PASS geometry.widened_depth_bracket (241 classes through tau=10)\n"
    "PASS geometry.reduced_cycle_certificate (135 classes through tau=9)\n"
    "31/31 checks passed\n"
)


def test_verify_all_prints_each_check_and_the_summary(capsys):
    code, out = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert out == _VERIFY_ALL


def test_verify_writes_check_seconds_to_stderr(capsys):
    code = main(["verify", "--suite", "all", "--tmax", "5"])
    captured = capsys.readouterr()
    assert code == 0
    *_, last = captured.err.splitlines()
    seconds = json.loads(last)
    results = vf.run_suite("all", tmax=5)
    assert len(results) == 31
    assert list(seconds) == [r.name for r in results]
    assert all(isinstance(s, float) and s >= 0 for s in seconds.values())
    # stdout is the report alone
    expected = [f"PASS {r.name}" + (f" ({r.detail})" if r.detail else "") for r in results]
    assert captured.out == "".join(line + "\n" for line in expected) + "31/31 checks passed\n"


@pytest.mark.parametrize("suite", ["binwords", "all"])
@pytest.mark.parametrize("tmax", ["0", "-3", "1"])
def test_verify_tmax_below_two_is_a_usage_error(capsys, suite, tmax):
    code = main(["verify", "--suite", suite, "--tmax", tmax])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--tmax must be >= 2" in captured.err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("table1", "--t", "31", "--m", "3"),
        ("table1", "--t", "40", "--m", "3", "--oracle-max", "31"),
    ],
)
def test_oracle_max_above_the_enumeration_cap_is_fine_when_unused(capsys, argv):
    # only a length that would be enumerated is held to the cap
    code, out = run(capsys, *argv)
    assert code == 0
    assert out


def test_growth_item4_exact_column_is_integer(capsys):
    code, out = run(capsys, "growth", "--item", "4", "--tmax", "40", "--m", "3")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 40
    assert all(row[1].isdigit() for row in rows)
    assert int(rows[-1][1]) == cumulative("lowlying", 40, m=3, primitive=True) - 2


def _oracle_growth_exacts(item, tmax, m=None, oracle_max=None):
    """Per-row sums from the naive oracles, each row summed anew.

    Item 4 counts the classes of each length tau <= ``oracle_max`` one by one,
    and takes the longer ones from the transfer-matrix shift-sum oracle.
    """
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

    shift_sums = oracles.primitive_table(oracles.run_bounded_hyperbolic_table(tmax, m))
    per_length = [
        len(oracles.class_reps(tau, kept)) if tau <= oracle_max else shift_sums[tau]
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
        (4, ("--m", "3"), 1176),
        # the target overflows at the exact column's t
        (2, ("--m", "5"), 2100),
    ],
)
def test_growth_past_the_double_range_names_item_and_t(capsys, item, extra, first_t):
    def growth(tmax):
        return main(["growth", "--item", str(item), "--tmax", str(tmax), *extra])

    for tmax in (first_t, 5000):
        assert growth(tmax) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"growth item {item}: the float columns overflow a double at t={first_t};"
        assert message in captured.err
    assert growth(first_t - 1) == 0
    capsys.readouterr()


def test_growth_missing_m_exits_2(capsys):
    for item in ("2", "4"):
        code = main(["growth", "--item", item, "--tmax", "6"])
        capsys.readouterr()
        assert code == 2


@pytest.mark.parametrize(
    "item,extra", [(1, ()), (2, ("--m", "3")), (3, ()), (4, ("--m", "3"))]
)
def test_growth_refuses_oracle_max(capsys, item, extra):
    # every growth column is formula-backed, so growth has no oracle to bound
    code = main(["growth", "--item", str(item), "--tmax", "5", *extra, "--oracle-max", "16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --oracle-max 16" in captured.err


@pytest.mark.parametrize(
    "argv", [("table1", "--t", "18", "--m", "2"), ("table1", "--t", "16", "--m", "3")]
)
def test_oracle_max_defaults_to_16(capsys, argv):
    assert run(capsys, *argv) == run(capsys, *argv, "--oracle-max", "16")


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


def _seeded_word(length):
    rng = random.Random(length)
    return "".join(rng.choice("+-") for _ in range(length))


def test_depth_of_a_long_word(capsys):
    # thousands of letters: the trace is far past a double, the depth is not
    word = _seeded_word(4000)
    code, out = run(capsys, "depth", f"--word={word}", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["cross_check_ok"] is True
    assert row["tau"] == 4000
    assert row["max_run"] == oracles.max_cyclic_run_tuple(tuple(word))
    assert row["trace_abs"].bit_length() > 1024
    assert abs(row["length"] - 2 * math.log(row["trace_abs"])) < 1e-9
    # winding_lo is the exact floor of 2 * apex
    assert row["winding_lo"] < 2 * row["apex"] < row["winding_hi"]
    assert abs(row["depth"] - math.log(row["apex"])) < 1e-12


@pytest.fixture
def int_str_limit_640():
    # the interpreter-wide limit on int-to-str digits, lowered for one test
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [
        # the trace of this word has more than 640 digits
        ("depth", f"--word={_seeded_word(4000)}"),
        ("depth", "--format", "json", f"--word={_seeded_word(4000)}"),
        ("count", "--family", "lowlying", "--t", "3000", "--m", "3"),
        ("count", "--family", "classes", "--t", "3000", "--format", "json"),
    ],
)
def test_past_the_int_to_str_limit_exits_2(capsys, int_str_limit_640, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Exceeds the limit (640 digits)" in captured.err
    assert sys.get_int_max_str_digits() == 640  # modgeod leaves the setting alone


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "lowlying", "--t", "200000", "--m", "3"),
        ("count", "--family", "lowlying", "--t", "200000", "--m", "3", "--cumulative"),
        ("count", "--family", "lowlying", "--t", "10000000", "--m", "2", "--format", "json"),
        ("count", "--family", "lowlying-reciprocal", "--t", "200000", "--m", "3"),
        ("count", "--family", "lowlying-reciprocal", "--t", "5000", "--m", "2", "--cumulative"),
        ("count", "--family", "compositions", "--t", "200000", "--m", "3"),
        ("count", "--family", "compositions", "--t", "10000000", "--m", "2", "--cumulative"),
    ],
)
def test_a_lowlying_count_too_long_to_print_is_refused_before_it_is_computed(
    capsys, monkeypatch, int_str_limit_640, argv
):
    def never(*args, **kwargs):
        raise AssertionError("the count was computed")

    monkeypatch.setattr(cli.ct, "count", never)
    monkeypatch.setattr(cli.ct, "cumulative", never)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Exceeds the limit (640 digits) for integer string conversion" in captured.err
    assert "PYTHONINTMAXSTRDIGITS" in captured.err


def test_the_long_lowlying_refusal_takes_no_time():
    # the count itself runs for seconds before it could be refused; the
    # child's CPU time, unlike its wall time, does not grow on a loaded host
    env = {**os.environ, "PYTHONPATH": str(_SRC), "PYTHONINTMAXSTRDIGITS": "4300"}
    argv = ["-m", "modgeod", "count", "--family", "lowlying", "--t", "200000", "--m", "3"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                            timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert result.returncode == 2
    assert "Exceeds the limit (4300 digits) for integer string conversion" in result.stderr
    assert cpu < 1.0


def _child_cpu_seconds(argv: list[str], env: dict) -> tuple:
    # a CLI run in a fresh interpreter, and the CPU seconds it took, which
    # unlike its wall time do not grow on a loaded host
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = subprocess.run([sys.executable, "-m", "modgeod", *argv], capture_output=True,
                            text=True, env=env, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return result, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


@pytest.mark.parametrize("cumulative", [False, True])
@pytest.mark.parametrize("family", ["lowlying-reciprocal", "compositions"])
def test_the_long_power_family_refusals_take_no_time(family, cumulative):
    # each count runs for about 2 s before it could be refused
    env = {**os.environ, "PYTHONPATH": str(_SRC), "PYTHONINTMAXSTRDIGITS": "4300"}
    argv = ["count", "--family", family, "--t", "200000", "--m", "3"]
    result, cpu = _child_cpu_seconds(argv + ["--cumulative"] * cumulative, env)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Exceeds the limit (4300 digits) for integer string conversion" in result.stderr
    assert cpu < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "lowlying", "--m", "3", "--primitive"),
        ("--family", "lowlying", "--m", "3", "--primitive", "--cumulative"),
        ("--family", "lowlying-reciprocal", "--m", "3", "--primitive"),
        ("--family", "lowlying-reciprocal", "--m", "3", "--primitive", "--cumulative"),
        ("--family", "classes", "--cumulative"),
        ("--family", "primitive", "--cumulative"),
    ],
)
def test_the_long_primitive_and_cumulative_refusals_take_no_time(argv):
    # computing each of these counts takes 1.5 to 13 s
    env = {**os.environ, "PYTHONPATH": str(_SRC), "PYTHONINTMAXSTRDIGITS": "4300"}
    result, cpu = _child_cpu_seconds(["count", *argv, "--t", "200000"], env)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        "modgeod: error: Exceeds the limit (4300 digits) for integer string conversion: the "
        "count is longer; set the environment variable PYTHONINTMAXSTRDIGITS to raise the "
        "limit, or to 0 to lift it"
    )
    assert cpu < 1.0


def test_an_alpha_past_its_ceiling_is_refused_before_any_work():
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    result, cpu = _child_cpu_seconds(["alpha", "--m", "5000000"], env)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error: m must be <= 512 for the growth root alpha(m)" in result.stderr
    assert cpu < 1.0


def test_pythonintmaxstrdigits_raises_the_limit_the_refusal_names():
    env = {**os.environ, "PYTHONPATH": str(_SRC), "PYTHONINTMAXSTRDIGITS": "0"}
    argv = ["-m", "modgeod", "count", "--family", "lowlying", "--t", "20000", "--m", "3"]
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert result.stdout == f"{count('lowlying', 20000, m=3)}\n"
    finally:
        sys.set_int_max_str_digits(limit)


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



@pytest.fixture
def candidates_miss_the_minimum(monkeypatch):
    # the run walk drops the rotations that reach the least |b| or |c|, so the
    # reduced-cycle cross-check disagrees with it
    full = geo._boundary_rotations

    def missing_minimum(base, plus, runs):
        rotations = full(base, plus, runs)
        low = min(min(abs(m[1]), abs(m[2])) for m in rotations)
        return [m for m in rotations if min(abs(m[1]), abs(m[2])) != low] or rotations

    monkeypatch.setattr(geo, "_boundary_rotations", missing_minimum)


def test_depth_exits_1_after_its_row_when_the_cross_check_fails(
    capsys, candidates_miss_the_minimum
):
    code, out = run(capsys, "depth", "--word=--+-+")
    assert code == 1
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["cross_check_ok"] == "false"
    code, out = run(capsys, "depth", "--word=--+-+", "--format", "json")
    assert code == 1
    assert json.loads(out)[0]["cross_check_ok"] is False
    # every rotation of ++- has an entry of size 1, so nothing can be left out
    assert run(capsys, "depth", "--word", "++-")[0] == 0


def test_audit_exits_1_after_its_summary_when_cross_checks_fail(
    capsys, candidates_miss_the_minimum
):
    code, out = run(capsys, "audit-lemma71", "--tmax", "6")
    assert code == 1
    lines = out.splitlines()
    assert "# cross_check_failures: 6" in lines
    assert lines[-1].startswith("# max_run ")
    code, out = run(capsys, "audit-lemma71", "--tmax", "6", "--format", "json")
    assert code == 1
    assert json.loads(out)["summary"]["cross_check_failures"] == 6
    # no class through tau = 3 has a rotation to leave out
    code, out = run(capsys, "audit-lemma71", "--tmax", "3")
    assert code == 0
    assert "# cross_check_failures: 0" in out.splitlines()


# ---------------------------------------------------------------------------
# child interpreters

_SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


_CORPUS = {tuple(r["argv"]): r for r in json.loads(
    (Path(__file__).with_name("stdout_corpus.json")).read_text(encoding="utf-8"))}


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
        ("depth", "--word=+++++-----++-", "--format", "json"),
        ("audit-lemma71", "--tmax", "9", "--format", "json"),
        ("verify", "--suite", "geometry", "--tmax", "9"),
        ("count", "--family", "lowlying-reciprocal", "--t", "60", "--m", "3", "--primitive",
         "--cumulative"),
        ("growth", "--item", "4", "--m", "3", "--tmax", "40"),
        ("count", "--family", "lowlying", "--t", "60", "--m", "4", "--primitive", "--cumulative"),
        ("enumerate", "--family", "reciprocal", "--t", "12", "--primitive", "--format", "json"),
        ("enumerate", "--family", "reciprocal", "--t", "15", "--m", "3"),
        ("count", "--family", "reciprocal-primitive", "--t", "2000", "--cumulative"),
        ("count", "--family", "classes+torsion", "--t", "800", "--cumulative"),
        ("count", "--family", "lowlying", "--t", "2000", "--m", "3", "--cumulative"),
        ("count", "--family", "lowlying", "--t", "2000", "--m", "3", "--cumulative",
         "--primitive"),
        ("growth", "--item", "3", "--tmax", "400"),
        ("growth", "--item", "4", "--m", "3", "--tmax", "400"),
        ("table1", "--t", "16", "--m", "3"),
    ],
)
def test_same_output_under_python_O(argv):
    # -O strips assert statements, so no invariant may rest on one.  The plain
    # output is the corpus record, which test_stdout_corpus pins in-process;
    # this runs the `python -O -m modgeod` entry point itself against it
    record = _CORPUS[argv]
    optimised = _python("-O", "-m", "modgeod", *argv)
    digest = hashlib.sha256(optimised.stdout.encode()).hexdigest()
    assert (optimised.returncode, digest) == (record["exit"], record["sha256"]), optimised.stderr


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


def test_closed_pipe_ends_reciprocal_rows_quietly():
    # the reciprocal rows come a checked chunk at a time; the reader closes
    # the pipe after the header, long before the 24 MB of rows is written
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "modgeod", "enumerate", "--family", "reciprocal", "--t", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert (first, err) == (b"word,t,k0\n", b"")


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


# ---------------------------------------------------------------------------
# argv fuzz: any argv ends in exit 0, 1 or 2, never in a traceback

_JUNK = st.sampled_from(["", "x", "--", "1.5", "-1e3", "0x10", "nan"])
_FORMAT = st.sampled_from(["csv", "json", "xml"])


def _ints(low, high):
    return st.integers(low, high).map(str)


# a size of a formula, and a size that is enumerated: at most 12, or refused.
# No size lies between 40 and the ceiling of 10**7, where one count can take
# megabytes and minutes.
_FORMULA_SIZE = st.one_of(_ints(-3, 40), st.one_of(st.just(_HUGE), _JUNK))
_ENUMERATED_SIZE = st.one_of(_ints(-3, 12), st.one_of(_ints(31, 40), st.just(_HUGE), _JUNK))

# each subcommand's flags and a strategy for the value of each; None marks a
# flag that takes no value
_GRAMMAR = {
    "count": {
        "--family": st.sampled_from(
            ["classes", "classes+torsion", "primitive", "reciprocal", "reciprocal-primitive",
             "lowlying", "lowlying-reciprocal", "compositions", "nonsense"]
        ),
        "--t": _FORMULA_SIZE,
        "--m": _FORMULA_SIZE,
        "--cumulative": None,
        "--primitive": None,
        "--format": _FORMAT,
    },
    "enumerate": {
        "--family": st.sampled_from(["classes", "reciprocal", "nonsense"]),
        "--t": _ENUMERATED_SIZE,
        "--m": _FORMULA_SIZE,
        "--primitive": None,
        "--hyperbolic": None,
        "--format": _FORMAT,
    },
    "alpha": {
        "--m": st.one_of(_ints(-3, 64), st.one_of(st.just(_HUGE), _JUNK)),
        "--format": _FORMAT,
    },
    # every verify argv draws its --tmax, which keeps the run short
    "verify": {
        "--suite": st.sampled_from([*vf.SUITES, "all", "nonsense"]),
        "--tmax": st.one_of(_ints(-3, 5), _JUNK),
    },
    "growth": {
        "--item": st.one_of(_ints(0, 5), _JUNK),
        "--tmax": _FORMULA_SIZE,
        "--m": _FORMULA_SIZE,
        "--format": _FORMAT,
    },
    # table1 enumerates only at --t <= --oracle-max, so at t <= 12
    "table1": {
        "--t": _ENUMERATED_SIZE,
        "--m": _FORMULA_SIZE,
        "--oracle-max": _ENUMERATED_SIZE,
        "--format": _FORMAT,
    },
    "depth": {
        "--word": st.text("+-x ", max_size=12),
        "--syllables": st.text("abBX ", max_size=12),
        "--format": _FORMAT,
    },
    "audit-lemma71": {"--tmax": _ENUMERATED_SIZE, "--format": _FORMAT},
    "nonsense": {},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    words = []
    for flag, value in _GRAMMAR[command].items():
        # each flag comes three times in four
        if (command, flag) == ("verify", "--tmax") or draw(st.integers(0, 3)):
            words.append([flag] if value is None else [flag, draw(value)])
    return [command, *itertools.chain.from_iterable(draw(st.permutations(words)))]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_argvs())
@example(["count", "--family", "classes", "--t", _HUGE])
@example(["count", "--family", "reciprocal", "--t", _HUGE])
@example(["count", "--family", "reciprocal", "--t", _HUGE, "--cumulative"])
@example(["alpha", "--m", _HUGE])
@example(["count", "--family", "lowlying", "--t", _HUGE, "--m", "3"])
@example(["count", "--family", "compositions", "--t", _HUGE, "--m", "3"])
@example(["growth", "--item", "2", "--m", _HUGE, "--tmax", "3"])
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue(), argv
