"""Command-line surface: counting, enumeration, verification, tables, audits.

Output is deterministic for a fixed argv: rows are emitted in sorted order,
reals are printed with 12 significant digits in CSV mode, and JSON mode
mirrors the CSV rows as an array of objects with the same field names.
Tables are written a chunk of rows at a time, and ``enumerate`` streams its
rows as the generators make them, so its memory does not grow with the class
count.

Exit codes: 0 on success, and also when the reader of stdout closes it early
(as ``| head`` does); 1 when a verification or dual-source cross-check fails;
2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, Optional, Sequence

from . import counting as ct
from . import enumeration as en
from . import geometry as geo
from . import verify as vf
from .binwords import _SIGN_CHARS, BinaryWord, _is_half_turn_bits, _k0_bits

__all__ = ["main"]

_ORACLE_MAX_DEFAULT = 16
_ENUMERATION_HARD_CAP = 30


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_column(values: tuple) -> Iterable[str]:
    # the text json.dumps gives each value; a column of str or of int, nearly
    # every column printed, skips its per-call encoder set-up
    kinds = set(map(type, values))
    if kinds == {str}:
        return map(_json_str, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    return map(json.dumps, values)


def _csv_column(values: tuple) -> Iterable[str]:
    # the text _fmt gives each value
    kinds = set(map(type, values))
    if kinds == {str}:
        return values
    if kinds == {int}:
        return map(int.__repr__, values)
    return map(_fmt, values)


# rows per write of ``_write_rows``
_CHUNK_ROWS = 4096


def _write_rows(rows: Iterable[Sequence], fields: list[str], fmt: str) -> None:
    """Write rows as CSV, or as ``json.dumps`` of the row objects with ``indent=2``.

    Each row holds one JSON scalar per name in ``fields`` (non-empty, in
    output order): a str, int, float, bool or None.  Rows are pulled and
    written ``_CHUNK_ROWS`` at a time to the ``sys.stdout`` of the call, so
    memory stays flat however many rows there are.  Nothing is written before
    the first chunk is pulled, so an error a generator raises on its first
    pull leaves stdout empty.  Each chunk is formatted a column at a time.
    """
    if fmt == "json":
        item = "  {\n" + ",\n".join(
            f"    {_json_str(k).replace('%', '%%')}: %s" for k in fields
        ) + "\n  }"
        render, column = item.__mod__, _json_column
        head, sep, end, empty = "[\n", ",\n", "\n]\n", "[]\n"
    else:
        render, column = ",".join, _csv_column
        head = empty = ",".join(fields) + "\n"
        sep = end = "\n"
    write = sys.stdout.write
    rows = iter(rows)
    lead = head
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        write(lead + sep.join(map(render, zip(*map(column, zip(*chunk))))))
        lead = sep
    write(empty if lead is head else end)


def _emit_rows(rows: list[dict], fields: list[str], fmt: str) -> None:
    """``_write_rows`` for rows that map each name in ``fields`` to its value.

    Keys not in ``fields`` are left out.
    """
    _write_rows(([row[k] for k in fields] for row in rows), fields, fmt)


def _parse_syllables(text: str) -> BinaryWord:
    """Convert an alternating-syllable string like 'abaB' (B inverse of b)."""
    chars = [c for c in text if not c.isspace()]
    if len(chars) % 2 or not chars:
        raise ValueError(f"syllable string must pair each 'a' with 'b' or 'B': {text!r}")
    entries = []
    for i in range(0, len(chars), 2):
        if chars[i] != "a" or chars[i + 1] not in "bB":
            raise ValueError(f"bad syllable {''.join(chars[i:i+2])!r} in {text!r}")
        entries.append(1 if chars[i + 1] == "b" else -1)
    return BinaryWord.from_entries(entries)


def _word_from_args(args, parser) -> BinaryWord:
    if args.syllables is None and not args.word:
        # argparse drops a lone "--" from an option's value, so --word=-- lands
        # here with an empty list for its value
        parser.error(
            "--word is empty; note that the option parser consumes a '--' value "
            "(as in --word=--), so spell that word with --syllables aBaB"
        )
    try:
        if args.syllables is not None:
            return _parse_syllables(args.syllables)
        return BinaryWord.from_text(args.word)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# count

# CLI names for the primitive part of a formula family
_PRIMITIVE_ALIASES = {"primitive": "classes", "reciprocal-primitive": "reciprocal"}
# families whose count takes no run bound
_UNBOUNDED_FAMILIES = (
    "classes", "classes+torsion", "primitive", "reciprocal", "reciprocal-primitive"
)


def _count_value(args) -> int:
    family, t, m = args.family, args.t, args.m
    if m is not None and family in _UNBOUNDED_FAMILIES:
        raise ValueError(f"family {family!r} takes no --m")
    if family == "classes+torsion":
        if not args.cumulative:
            raise ValueError("classes+torsion only makes sense cumulatively")
        if args.primitive:
            raise ValueError("classes+torsion takes no --primitive")
        return ct.cumulative("classes", t, include_torsion=True)
    if family == "lowlying":
        if m is None:
            raise ValueError("family 'lowlying' needs --m")
        if t < 1:
            raise ValueError("t must be >= 1")
        if t > _ENUMERATION_HARD_CAP:
            raise ValueError(f"lowlying counts are enumerated; --t above {_ENUMERATION_HARD_CAP} is out of range")
        lengths = range(1, t + 1) if args.cumulative else (t,)
        return sum(
            sum(1 for _ in en.classes(tau, m=m, primitive=args.primitive))
            for tau in lengths
        )
    primitive = args.primitive or family in _PRIMITIVE_ALIASES
    family = _PRIMITIVE_ALIASES.get(family, family)
    if args.cumulative:
        return ct.cumulative(family, t, m=m, primitive=primitive)
    return ct.count(family, t, m=m, primitive=primitive)


def cmd_count(args, parser) -> int:
    try:
        value = _count_value(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        record = {
            "family": args.family,
            "t": args.t,
            "m": args.m,
            "cumulative": args.cumulative,
            "primitive": args.primitive,
            "exact": value,
        }
        print(json.dumps(record, indent=2))
    else:
        print(value)
    return 0


# ---------------------------------------------------------------------------
# enumerate

def _enumerate_rows(args) -> Iterator[tuple]:
    """The rows of ``enumerate``; words are formatted from their packed bits.

    Reciprocal rows come from the bits-level core and build no word object.
    """
    t = args.t
    if args.family == "classes":
        spec = f"0{t}b"
        for w in en.classes(t, primitive=args.primitive, m=args.m, hyperbolic=args.hyperbolic):
            yield format(w.bits, spec).translate(_SIGN_CHARS), t
        return
    length = 2 * t
    spec = f"0{length}b"
    for bits in en._reciprocal_bits(t, args.m):
        # the checks the HalfTurnWord constructor makes
        if not _is_half_turn_bits(bits, length):
            word = format(bits, spec).translate(_SIGN_CHARS)
            raise en.ContractViolationError(f"not a mirrored word: {word}")
        k0 = _k0_bits(bits, length)
        if args.primitive and k0 != t:
            continue
        yield format(bits, spec).translate(_SIGN_CHARS), t, k0


def cmd_enumerate(args, parser) -> int:
    if args.t > _ENUMERATION_HARD_CAP:
        parser.error(f"--t above {_ENUMERATION_HARD_CAP} is out of range for enumeration")
    fields = ["word", "tau"] if args.family == "classes" else ["word", "t", "k0"]
    try:
        # the generators check t and m on their first pull, which comes
        # before the first write
        _write_rows(_enumerate_rows(args), fields, args.format)
    except ValueError as exc:
        parser.error(str(exc))
    return 0


# ---------------------------------------------------------------------------
# alpha

def cmd_alpha(args, parser) -> int:
    try:
        data = ct.alpha(args.m, args.tol)
    except ValueError as exc:
        parser.error(str(exc))
    row = {
        "m": data.m,
        "alpha": f"{data.alpha:.15g}",
        "d": f"{data.d:.15g}",
        "residual": f"{data.residual:.6g}",
    }
    if args.format == "json":
        print(json.dumps(row, indent=2))
    else:
        print(",".join(row.keys()))
        print(",".join(str(v) for v in row.values()))
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args, parser) -> int:
    try:
        results = vf.run_suite(args.suite, tmax=args.tmax)
    except ValueError as exc:
        parser.error(str(exc))
    failed = 0
    for r in results:
        if r.ok:
            print(f"PASS {r.name}" + (f" ({r.detail})" if r.detail else ""))
        else:
            failed += 1
            print(f"FAIL {r.name}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# growth

def _growth_exacts(item: int, m, oracle_max: int) -> Iterator:
    """Yield the ``exact`` column at t = 1, 2, ..., one running sum per item."""
    if item == 1:
        for t in itertools.count(1):
            yield (1 << (t // 2)) - 1
    elif item == 2:
        # reciprocal lengths up to t // 2: none at t = 1, then each total
        # serves t = 2h and t = 2h + 1
        yield 0
        for total in itertools.accumulate(ct.count_series("lowlying-reciprocal", m=m)):
            yield total
            yield total
    elif item == 3:
        for total in itertools.accumulate(ct.count_series("classes", primitive=True)):
            yield total - 2
    else:
        # enumerate while the oracle reaches, use the bound formula beyond
        total: float | int = 0
        for tau in itertools.count(1):
            if tau <= oracle_max:
                total += sum(1 for _ in en.classes(tau, primitive=True, m=m, hyperbolic=True))
            else:
                total += ct.lowlying_lower_bound(tau, m)
            yield total


def cmd_growth(args, parser) -> int:
    if args.item in (2, 4) and args.m is None:
        parser.error(f"growth item {args.item} needs --m")
    if args.tmax < 1:
        parser.error("--tmax must be >= 1")
    if args.oracle_max < 0:
        parser.error("--oracle-max must be >= 0")
    rows = []
    try:
        exacts = _growth_exacts(args.item, args.m, args.oracle_max)
        for t in range(1, args.tmax + 1):
            # the target rejects a bad item or m before any exact value or
            # bound is evaluated
            target = ct.growth_target(args.item, t, args.m)
            exact = next(exacts)
            rows.append(
                {
                    "t": t,
                    "exact": exact,
                    "target": target,
                    "ratio": exact / target if target else 0.0,
                }
            )
    except ValueError as exc:
        parser.error(str(exc))
    except OverflowError:
        t = len(rows) + 1
        parser.error(
            f"growth item {args.item}: the float columns overflow a double at t={t}; "
            f"use --tmax {t - 1} or less"
        )
    _emit_rows(rows, ["t", "exact", "target", "ratio"], args.format)
    return 0


# ---------------------------------------------------------------------------
# table1

def _first_overflow(f, t: int) -> int:
    """Smallest tau in 1..t at which f(tau) raises OverflowError.

    f(t) must raise it, and f must overflow at every length past the first
    one that does.
    """
    ok, bad = 0, t
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            f(mid)
        except OverflowError:
            bad = mid
        else:
            ok = mid
    return bad


def cmd_table1(args, parser) -> int:
    t, m = args.t, args.m
    if t < 1 or m < 2:
        parser.error("table1 needs --t >= 1 and --m >= 2")
    if args.oracle_max < 0:
        parser.error("--oracle-max must be >= 0")
    try:
        bound = ct.lowlying_lower_bound(t, m)
    except OverflowError:
        first = _first_overflow(lambda tau: ct.lowlying_lower_bound(tau, m), t)
        parser.error(
            f"table1: the lowlying bound overflows a double at t={first} for --m {m}; "
            f"use --t {first - 1} or less"
        )
    enumerable = t <= args.oracle_max

    def enum_count(gen):
        return sum(1 for _ in gen) if enumerable else ""

    classes_n = enum_count(en.classes(t))
    reciprocal_n = enum_count(en.reciprocal_classes(t))
    lowlying_n = enum_count(en.classes(t, m=m))
    lowlying_rec_n = enum_count(en.reciprocal_classes(t, m))

    rows = [
        {
            "family": "classes",
            "word_length": 2 * t,
            "formula": ct.necklace_count(t),
            "enumerated": classes_n,
            "check": "",
        },
        {
            "family": "reciprocal",
            "word_length": 4 * t,
            "formula": ct.reciprocal_count(t),
            "enumerated": reciprocal_n,
            "check": "",
        },
        {
            "family": "lowlying",
            "word_length": 2 * t,
            "formula": bound,
            "enumerated": lowlying_n,
            "check": "",
        },
        {
            "family": "lowlying-reciprocal",
            "word_length": 4 * t,
            "formula": ct.bounded_compositions(t, m),
            "enumerated": lowlying_rec_n,
            "check": "",
        },
    ]
    failed = 0
    for row in rows:
        if not enumerable:
            row["check"] = "skipped"
            continue
        if row["family"] == "lowlying":
            good = row["enumerated"] >= row["formula"]
            row["check"] = "bound-ok" if good else "BOUND-FAIL"
        else:
            good = row["enumerated"] == row["formula"]
            row["check"] = "equal" if good else "MISMATCH"
        failed += not good
    _emit_rows(rows, ["family", "word_length", "formula", "enumerated", "check"], args.format)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# depth and the bracket audit

_DEPTH_FIELDS = [
    "word",
    "tau",
    "max_run",
    "trace_abs",
    "length",
    "apex",
    "depth",
    "winding_lo",
    "winding_hi",
    "cross_check_ok",
]


def cmd_depth(args, parser) -> int:
    w = _word_from_args(args, parser)
    try:
        report = geo.max_depth(w)
    except ValueError as exc:
        parser.error(str(exc))
    row = {
        "word": str(report.word),
        "tau": report.word.length,
        "max_run": report.max_run,
        "trace_abs": report.trace_abs,
        "length": report.geo_length,
        "apex": report.apex,
        "depth": report.depth,
        "winding_lo": report.winding_bracket[0],
        "winding_hi": report.winding_bracket[1],
        "cross_check_ok": bool(report.cross_check_ok),
    }
    _emit_rows([row], _DEPTH_FIELDS, args.format)
    return 0


_AUDIT_FIELDS = [
    "word",
    "tau",
    "max_run",
    "trace_abs",
    "length",
    "apex",
    "depth",
    "paper_bracket_hit",
    "shifted_bracket_hit",
]


def cmd_audit(args, parser) -> int:
    if args.tmax < 2:
        parser.error("--tmax must be >= 2")
    if args.tmax > _ENUMERATION_HARD_CAP:
        parser.error(f"--tmax above {_ENUMERATION_HARD_CAP} is out of range for the audit")
    report = geo.audit_lemma71(args.tmax)
    rows = [{k: getattr(r, k) for k in _AUDIT_FIELDS} for r in report.rows]
    if args.format == "json":
        print(json.dumps({"rows": rows, "summary": report.summary}, indent=2))
        return 0
    _emit_rows(rows, _AUDIT_FIELDS, args.format)
    for key in (
        "classes",
        "paper_bracket_hits",
        "shifted_bracket_hits",
        "widened_hits",
        "boundary_flags",
        "cross_check_failures",
    ):
        print(f"# {key}: {report.summary[key]}")
    for k, hist in report.summary["by_max_run"].items():
        print(
            f"# max_run {k}: paper {hist['paper']}, shifted {hist['shifted']}, "
            f"neither {hist['neither']}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing never mutates the parser, and building
    # it costs more than a typical query
    parser = argparse.ArgumentParser(
        prog="modgeod",
        description=(
            "Exact counting and enumeration of cyclic sign-word classes "
            "(closed geodesics on the modular orbifold), their reciprocal and "
            "bounded-run subfamilies, and the matching growth laws."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("count", help="exact count of one family at one length")
    p.add_argument(
        "--family",
        required=True,
        choices=(
            "classes",
            "classes+torsion",
            "primitive",
            "reciprocal",
            "reciprocal-primitive",
            "lowlying",
            "lowlying-reciprocal",
            "compositions",
        ),
    )
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--cumulative", action="store_true")
    p.add_argument("--primitive", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list canonical class representatives")
    p.add_argument("--family", required=True, choices=("classes", "reciprocal"))
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--primitive", action="store_true")
    p.add_argument("--hyperbolic", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("alpha", help="growth root and coefficient for a run bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-13)
    add_format(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", default="all", choices=(*vf.SUITES, "all"))
    p.add_argument("--tmax", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("growth", help="exact vs target growth table")
    p.add_argument("--item", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--oracle-max", type=int, default=_ORACLE_MAX_DEFAULT)
    add_format(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("table1", help="the four family rows at one length")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--oracle-max", type=int, default=_ORACLE_MAX_DEFAULT)
    add_format(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("depth", help="deepest cusp excursion of one word")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="sign string like '++-'")
    group.add_argument("--syllables", help="alternating string like 'abaB'")
    add_format(p)
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser(
        "audit-lemma71", help="measure depths against both winding brackets"
    )
    p.add_argument("--tmax", type=int, default=8)
    add_format(p)
    p.set_defaults(func=cmd_audit)

    return parser


def _drop_stdout() -> None:
    """Point a real stdout at the null device after its reader has gone.

    The interpreter flushes stdout once more at exit, and that write would
    fail again on the closed pipe.  A stdout with no file descriptor, or one
    that is not a pipe, is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    if not stat.S_ISFIFO(os.fstat(fd).st_mode):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args, parser)
        if sys.stdout is sys.__stdout__:
            # the process's own stdout is otherwise flushed at exit, where a
            # closed pipe would fail outside this handler; a stream swapped
            # in by a caller is the caller's to flush
            sys.stdout.flush()
        return code
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except BrokenPipeError:
        # the reader stopped early, as ``| head`` does; the output it read is
        # all it wanted
        _drop_stdout()
        return 0


if __name__ == "__main__":
    sys.exit(main())
