"""Every argv of the stdout corpus still gives its recorded output.

``stdout_corpus.json`` maps each argv to its exit code, the sha256 of its
stdout and, for an argv that exits non-zero, the last line of its stderr,
the message that is the contract of a refusal.  The tests rerun every argv
in-process through ``cli.main`` and compare: once in the test process, and
once more in a child interpreter under ``python -O``, which strips
``assert`` statements, so that no command's output rests on one.  The same
comparison runs from the command line, where it prints each argv whose
output moved and exits 1 if any did:

    PYTHONPATH=src python -O tests/test_stdout_corpus.py --check

A change that keeps stdout byte-identical leaves the file alone; one that
changes stdout on purpose regenerates it in the same commit, so its diff
names every argv that moved:

    PYTHONPATH=src python tests/test_stdout_corpus.py --write

Only ``--write`` builds the argv list, partly from the benchmark's op lists
in ``bench/workloads.py``; the checks read the data file alone.  All run
under the default int-to-str digit limit, 4300, whatever the environment
sets.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from modgeod import cli

_CORPUS = Path(__file__).with_name("stdout_corpus.json")
_DIGIT_LIMIT = 4300


def _outcome(argv: list[str]) -> dict:
    # the exit code, stdout's sha256 and, for a non-zero exit, stderr's last line
    out, err = io.StringIO(), io.StringIO()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_DIGIT_LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.set_int_max_str_digits(limit)
    record = {"argv": argv, "exit": code,
              "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    if code:
        record["stderr"] = (err.getvalue().splitlines() or [""])[-1]
    return record


def _moved(records: list[dict]) -> list[list[str]]:
    # the argvs whose outcome differs from their record
    return [r["argv"] for r in records if _outcome(r["argv"]) != r]


def test_every_argv_gives_its_recorded_output():
    assert _moved(json.loads(_CORPUS.read_text(encoding="utf-8"))) == []


def test_every_argv_gives_its_recorded_output_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", __file__, "--check"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=600)
    records = len(json.loads(_CORPUS.read_text(encoding="utf-8")))
    assert (proc.returncode, proc.stdout.splitlines()) == (
        0, [f"{records} argvs under python -O: 0 moved"]), proc.stdout + proc.stderr


def _check() -> int:
    # a check with no assert, so that -O keeps it whole
    records = json.loads(_CORPUS.read_text(encoding="utf-8"))
    moved = _moved(records)
    for argv in moved:
        print(json.dumps(argv))
    mode = " under python -O" if sys.flags.optimize else ""
    print(f"{len(records)} argvs{mode}: {len(moved)} moved")
    return 1 if moved else 0


# ---------------------------------------------------------------------------
# the argv list, for --write only

def _workload_argvs() -> list[list[str]]:
    # every op of the enumerate, counts and audit workloads at seeds 1-5
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    return [op["argv"] for name in ("enumerate", "counts", "audit") for seed in range(1, 6)
            for op in workloads.ops_for(name, seed)]


def _fmts(argv: list[str]) -> list[list[str]]:
    return [argv + ["--format", fmt] for fmt in ("csv", "json")]


def _growth_argvs() -> list[list[str]]:
    argvs = []
    for item in (1, 2, 3, 4):
        for tmax in (1, 2, 3, 10, 50, 300, 1100, 1200, 1600, 2100, 3000):
            base = ["growth", "--item", str(item), "--tmax", str(tmax)]
            ms = [None, 2, 3, 4, 6] if item in (1, 3) else [2, 3, 4, 6]
            for m in ms:
                argvs += _fmts(base + ([] if m is None else ["--m", str(m)]))
    return argvs


def _table1_argvs() -> list[list[str]]:
    argvs = []
    for t in range(1, 19):
        for m in (2, 3, 5):
            for oracle in ([], ["--oracle-max", "0"], ["--oracle-max", "18"]):
                argvs += _fmts(["table1", "--t", str(t), "--m", str(m), *oracle])
    return argvs


def _count_argvs() -> list[list[str]]:
    # every CLI family, with and without --primitive and --cumulative, at small
    # t and m; then the sizes on either side of where a count becomes too long
    # to print, and the six that the counters would take seconds to refuse
    families = ("classes", "classes+torsion", "primitive", "reciprocal", "reciprocal-primitive",
                "lowlying", "lowlying-reciprocal", "compositions")
    argvs = []
    for family in families:
        for t in (0, 1, 2, 5, 13, 24):
            for m in (None, 1, 3):
                for flags in ([], ["--primitive"], ["--cumulative"],
                              ["--primitive", "--cumulative"]):
                    argv = ["count", "--family", family, "--t", str(t), *flags]
                    argvs.append(argv + ([] if m is None else ["--m", str(m)]))
    argvs += _fmts(["count", "--family", "lowlying", "--t", "30", "--m", "3", "--cumulative"])
    argvs += _fmts(["count", "--family", "classes+torsion", "--t", "30", "--cumulative"])
    for family, m, ts in (
        ("classes", None, (14298, 14301)),
        ("primitive", None, (14297, 14300)),
        ("reciprocal", None, (14285, 14286)),
        ("reciprocal-primitive", None, (14286, 14288)),
        ("lowlying", 3, (16263, 16264, 21449, 21450)),
        ("lowlying-reciprocal", 3, (16248, 16249, 21450, 21460)),
        ("compositions", 5, (14648, 14649, 17000, 18000)),
    ):
        for t in ts:
            argv = ["count", "--family", family, "--t", str(t)]
            argv += [] if m is None else ["--m", str(m)]
            argvs += [argv, argv + ["--primitive"]] if family.startswith("lowlying") else [argv]
    for argv in (
        ["--family", "lowlying", "--m", "3", "--primitive"],
        ["--family", "lowlying", "--m", "3", "--primitive", "--cumulative"],
        ["--family", "lowlying-reciprocal", "--m", "3", "--primitive"],
        ["--family", "lowlying-reciprocal", "--m", "3", "--primitive", "--cumulative"],
        ["--family", "classes", "--cumulative"],
        ["--family", "primitive", "--cumulative"],
    ):
        argvs.append(["count", *argv, "--t", "200000"])
    return argvs


def _other_argvs() -> list[list[str]]:
    argvs = []
    for family in ("classes", "reciprocal"):
        for t in range(1, 9):
            for m in (None, 1, 2, 3):
                for primitive in ([], ["--primitive"]):
                    argv = ["enumerate", "--family", family, "--t", str(t), *primitive]
                    argvs += _fmts(argv + ([] if m is None else ["--m", str(m)]))
    for tmax in range(2, 11):
        argvs += _fmts(["audit-lemma71", "--tmax", str(tmax)])
    for word in ("--word=+-", "--word=++-", "--word=+++---+-", "--syllables=abaB",
                 "--syllables=abababaBaBaB", "--word=--"):
        argvs += _fmts(["depth", word])
    for m in (2, 3, 7, 40):
        argvs += _fmts(["alpha", "--m", str(m)])
    argvs += [["table1", "--t", "0", "--m", "3"], ["table1", "--t", "5", "--m", "1"],
              ["growth", "--item", "2", "--m", "1", "--tmax", "3"],
              ["verify", "--suite", "all", "--tmax", "5"]]
    # table1's own refusals, the lowlying bound past a double and a bad
    # --oracle-max, and the last t before the first
    for argv in (["--t", "1537", "--m", "3"], ["--t", "1538", "--m", "3"],
                 ["--t", "10000000000000000000000000000000000000000", "--m", "2"],
                 ["--t", "5", "--m", "3", "--oracle-max", "-1"]):
        argvs += _fmts(["table1", *argv])
    return argvs


def _larger_argvs() -> list[list[str]]:
    # mid-sized argvs of each subcommand, and the whole verify suite
    return [
        ["enumerate", "--family", "reciprocal", "--t", "7", "--m", "2"],
        ["enumerate", "--family", "classes", "--t", "9", "--primitive", "--hyperbolic"],
        ["count", "--family", "lowlying", "--t", "10", "--m", "3", "--cumulative"],
        ["verify", "--suite", "enumerate", "--tmax", "6"],
        ["audit-lemma71", "--tmax", "6"],
        ["depth", "--word=--++++-+--", "--format", "json"],
        ["count", "--family", "compositions", "--t", "300", "--m", "4", "--cumulative"],
        ["growth", "--item", "2", "--m", "3", "--tmax", "60"],
        ["growth", "--item", "3", "--tmax", "40"],
        ["verify", "--suite", "binwords", "--tmax", "8"],
        ["verify", "--suite", "enumerate", "--tmax", "10"],
        ["enumerate", "--family", "reciprocal", "--t", "9", "--format", "json"],
        ["enumerate", "--family", "classes", "--t", "12", "--m", "3", "--format", "json"],
        ["depth", "--word=+++++-----++-", "--format", "json"],
        ["verify", "--suite", "geometry", "--tmax", "9"],
        ["count", "--family", "lowlying-reciprocal", "--t", "60", "--m", "3", "--primitive",
         "--cumulative"],
        ["growth", "--item", "4", "--m", "3", "--tmax", "40"],
        ["count", "--family", "lowlying", "--t", "60", "--m", "4", "--primitive", "--cumulative"],
        ["enumerate", "--family", "reciprocal", "--t", "15", "--m", "3"],
        ["count", "--family", "reciprocal-primitive", "--t", "2000", "--cumulative"],
        ["count", "--family", "classes+torsion", "--t", "800", "--cumulative"],
        ["count", "--family", "lowlying", "--t", "2000", "--m", "3", "--cumulative"],
        ["count", "--family", "lowlying", "--t", "2000", "--m", "3", "--cumulative",
         "--primitive"],
        ["growth", "--item", "3", "--tmax", "400"],
        ["growth", "--item", "4", "--m", "3", "--tmax", "400"],
        ["table1", "--t", "16", "--m", "3"],
        ["verify", "--suite", "all"],
    ]


def _write() -> None:
    groups = (_workload_argvs(), _growth_argvs(), _table1_argvs(), _count_argvs(), _other_argvs(),
              _larger_argvs())
    # the first of any repeated argv, in order
    argvs = list(map(list, dict.fromkeys(tuple(a) for argvs in groups for a in argvs)))
    lines = ",\n".join(json.dumps(_outcome(argv)) for argv in argvs)
    _CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(argvs)} argvs to {_CORPUS}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _write()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    else:
        sys.exit("usage: python tests/test_stdout_corpus.py --write | --check")
