"""Command-line surface: counting, enumeration, verification, tables, audits.

Output is deterministic for a fixed argv: rows are emitted in sorted order,
reals are printed with 12 significant digits in CSV mode, and JSON mode
mirrors the CSV rows as an array of objects with the same field names.
Rows are written a column chunk at a time, each column rendered whole, and
``enumerate`` streams its chunks as the generators make them, so its memory
does not grow with the class count.  A chunk is ``_CHUNK_ROWS`` rows, except
that reciprocal words come checked from ``enumeration._reciprocal_chunks``,
one chunk per block of the core's halves.

Exit codes: 0 on success, and also when the reader of stdout closes it early
(as ``| head`` does); 1 when a verification or dual-source cross-check fails;
2 on usage errors.

Input rules live where the values are used.  The library refuses a bad
argument with ``ValueError``; the few rules of the command line alone, such
as the enumeration ceiling and the ``--tmax`` floors, raise it in their
command.  ``main`` is the one place that turns it into a usage error: exit 2
with its message, before anything is written to stdout.  Any other
exception, such as ``ContractViolationError``, ends in exit 1 with its
traceback.
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
from .binwords import _SIGN_CHARS, BinaryWord

__all__ = ["main"]

_ENUMERATION_HARD_CAP = 30


def _check_enumerable(flag: str, t: int) -> None:
    # 2^31 words take hours in pure Python; the formula columns take any size
    if t > _ENUMERATION_HARD_CAP:
        raise ValueError(f"{flag} above {_ENUMERATION_HARD_CAP} is out of range for enumeration")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _column(values: Sequence, fmt: str) -> Iterable[str]:
    # the text json.dumps or _fmt gives each value; a column of str or of int,
    # nearly every column printed, is rendered with no Python call per value
    kinds = set(map(type, values))
    if kinds == {int}:
        # a column of few distinct values, such as enumerate's t and k0, looks
        # each value's text up instead of formatting it again
        distinct = set(values)
        if 4 * len(distinct) > len(values):
            return map(repr, values)
        return map({v: repr(v) for v in distinct}.__getitem__, values)
    if kinds == {str}:
        return map(_json_str, values) if fmt == "json" else values
    return map(json.dumps if fmt == "json" else _fmt, values)


# rows per chunk of tables and of ``enumerate``'s classes
_CHUNK_ROWS = 4096


@functools.cache
def _layout(fields: tuple[str, ...], fmt: str) -> tuple:
    """The fixed text around the values of ``_write_columns``' rows, per field list.

    Returns ``(lead, first, glue, close, end, empty)``: the text before the
    first row's first value; the text before a later row's first value; one
    endless iterator per field of the text before that field's value, the
    first repeating ``first``; a tuple of at most one endless iterator of the
    text that closes a row; the text after the last row; and the whole output
    for no rows.  ``itertools.repeat`` keeps no position, so calls share them.
    """
    if fmt == "json":
        glue = [f",\n    {_json_str(k)}: " for k in fields]
        lead, glue[0] = "[\n  {" + glue[0][1:], ",\n  {" + glue[0][1:]
        close, end, empty = (itertools.repeat("\n  }"),), "\n]\n", "[]\n"
    else:
        glue = ["\n", *[","] * (len(fields) - 1)]
        lead = empty = ",".join(fields) + "\n"
        close, end = (), "\n"
    return lead, glue[0], tuple(map(itertools.repeat, glue)), close, end, empty


def _write_columns(chunks: Iterable[Sequence[Sequence]], fields: list[str], fmt: str) -> None:
    """Write column chunks as CSV, or as ``json.dumps`` of the row objects with ``indent=2``.

    A chunk holds one sequence per name in ``fields`` (non-empty, in output
    order), all of one length, of JSON scalars: str, int, float, bool or None.
    Each chunk is written to the ``sys.stdout`` of the call as soon as it is
    pulled, so an error a generator raises on its first pull leaves stdout
    empty.  Its columns are rendered whole and interleaved with fixed glue in
    one join, with no Python call per row.
    """
    lead, first, glue, close, end, empty = _layout(tuple(fields), fmt)
    wrote = False
    for columns in chunks:
        # glue, column, glue, column, ...: zipped, they give the pieces row by row
        rendered = map(_column, columns, itertools.repeat(fmt))
        pieces = itertools.chain.from_iterable(
            zip(*itertools.chain.from_iterable(zip(glue, rendered)), *close)
        )
        if next(pieces, None) is not None:  # the first glue gives way to the lead
            sys.stdout.write("".join(itertools.chain((first if wrote else lead,), pieces)))
            wrote = True
    sys.stdout.write(end if wrote else empty)


def _write_rows(rows: Iterable[Sequence], fields: list[str], fmt: str) -> None:
    """``_write_columns`` for rows of one value per name in ``fields``.

    Rows are pulled ``_CHUNK_ROWS`` at a time, so memory stays flat.
    """
    rows = iter(rows)
    _write_columns(iter(lambda: tuple(zip(*itertools.islice(rows, _CHUNK_ROWS))), ()), fields, fmt)


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


def _word_from_args(args) -> BinaryWord:
    if args.syllables is not None:
        return _parse_syllables(args.syllables)
    if not args.word:
        # argparse drops a lone "--" from an option's value, so --word=-- lands
        # here with an empty list for its value
        raise ValueError(
            "--word is empty; note that the option parser consumes a '--' value "
            "(as in --word=--), so spell that word with --syllables aBaB"
        )
    return BinaryWord.from_text(args.word)


# ---------------------------------------------------------------------------
# count

# CLI names for the primitive part of a formula family
_PRIMITIVE_ALIASES = {"primitive": "classes", "reciprocal-primitive": "reciprocal"}


def _count_value(args) -> int:
    torsion = args.family == "classes+torsion"
    if torsion and not args.cumulative:
        raise ValueError("classes+torsion only makes sense cumulatively")
    primitive = args.primitive or args.family in _PRIMITIVE_ALIASES
    family = "classes" if torsion else _PRIMITIVE_ALIASES.get(args.family, args.family)
    if args.cumulative:
        return ct.cumulative(family, args.t, m=args.m, primitive=primitive, include_torsion=torsion)
    return ct.count(family, args.t, m=args.m, primitive=primitive)


def _too_long(limit: int) -> ValueError:
    return ValueError(
        f"Exceeds the limit ({limit} digits) for integer string conversion: the count "
        "is longer; set the environment variable PYTHONINTMAXSTRDIGITS to raise the "
        "limit, or to 0 to lift it"
    )


# the exact lower bound on each bounded family's count, as a power of two
_FLOOR_LOG2 = {
    "lowlying": ct._lowlying_floor_log2,
    "lowlying-reciprocal": ct._composition_floor_log2,
    "compositions": ct._composition_floor_log2,
}


def _refuse_long_bounded(args) -> None:
    """Refuse a bounded count that could not be printed, before computing it.

    Covers the non-primitive ``lowlying``, ``lowlying-reciprocal`` and
    ``compositions`` with ``--m``.  The count at t, and so the cumulative count
    to t, is at least 2^e with e from ``counting._lowlying_floor_log2``, or from
    ``counting._composition_floor_log2`` for the two power families; 2^e has
    more than L digits once e >= L log2(10), which e * 10^9 >= 3321928095 L
    ensures.  Arguments the counters would refuse are left to them.
    """
    # interpreters older than the limit (before 3.10.7) have none
    limit = getattr(sys, "get_int_max_str_digits", int)()
    t, m = args.t, args.m
    floor_log2 = _FLOOR_LOG2.get(args.family)
    if not limit or floor_log2 is None or args.primitive or m is None or m < 2:
        return
    if 1 <= t <= ct._MAX_SIZE and floor_log2(t, m) * 10**9 >= 3321928095 * limit:
        raise _too_long(limit)


def cmd_count(args) -> int:
    _refuse_long_bounded(args)
    value = _count_value(args)
    try:
        # str and json.dumps refuse an int past the interpreter's int-to-str digit limit
        if args.format == "json":
            record = {
                "family": args.family,
                "t": args.t,
                "m": args.m,
                "cumulative": args.cumulative,
                "primitive": args.primitive,
                "exact": value,
            }
            text = json.dumps(record, indent=2)
        else:
            text = str(value)
    except ValueError:
        raise _too_long(sys.get_int_max_str_digits()) from None
    print(text)
    return 0


# ---------------------------------------------------------------------------
# enumerate

def _sign_texts(words: list[int], spec: str) -> list[str]:
    # the sign strings of packed words, formatted and translated as one text
    return "\n".join(map(format, words, itertools.repeat(spec))).translate(_SIGN_CHARS).split("\n")


def _enumerate_columns(args) -> Iterator[tuple]:
    """The rows of ``enumerate`` as column chunks.

    Words are formatted from their packed bits and build no word object.
    Classes come from the bits-level core ``_CHUNK_ROWS`` at a time;
    reciprocal words come checked from theirs, a block at a time.
    """
    t = args.t
    if args.family == "classes":
        words = en._class_bits(t, args.primitive, args.m, args.hyperbolic)
        while chunk := list(itertools.islice(words, _CHUNK_ROWS)):
            yield _sign_texts(chunk, f"0{t}b"), [t] * len(chunk)
        return
    for words, k0s in en._reciprocal_chunks(t, args.m, args.primitive):
        yield _sign_texts(words, f"0{2 * t}b"), [t] * len(words), k0s


def cmd_enumerate(args) -> int:
    _check_enumerable("--t", args.t)
    fields = ["word", "tau"] if args.family == "classes" else ["word", "t", "k0"]
    # the generators check t and m on their first pull, which comes before
    # the first write
    _write_columns(_enumerate_columns(args), fields, args.format)
    return 0


# ---------------------------------------------------------------------------
# alpha

def cmd_alpha(args) -> int:
    data = ct.alpha(args.m, args.tol)
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

def cmd_verify(args) -> int:
    if args.tmax is not None and args.tmax < 2:
        raise ValueError("--tmax must be >= 2")
    results = vf.run_suite(args.suite, tmax=args.tmax)
    failed = 0
    for r in results:
        if r.ok:
            print(f"PASS {r.name}" + (f" ({r.detail})" if r.detail else ""))
        else:
            failed += 1
            print(f"FAIL {r.name}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    # one JSON line of each check's seconds, for timing runs to read
    print(json.dumps({r.name: r.seconds for r in results}), file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# growth

def _growth_exacts(item: int, m, last: int) -> Iterator[int]:
    """Yield the ``exact`` column at t = 1, 2, ..., through ``last`` for the sieved items 3, 4."""
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
    else:
        # primitive hyperbolic classes; with no run bound the sieve counts the constant ones
        for total in itertools.accumulate(ct._primitive_class_counts(last, m)):
            yield total - 2 * (m is None)


def cmd_growth(args) -> int:
    item, m, last = args.item, args.m, args.tmax
    if last < 1:
        raise ValueError("--tmax must be >= 1")
    # the target at t = 1 refuses a bad item or m, before any exact value is drawn
    ct.growth_target(item, 1, m)
    if item in (3, 4):
        # the rows end before the first t whose target overflows a double
        try:
            ct.growth_target(item, last, m)
        except OverflowError:
            last = _first_overflow(lambda t: ct.growth_target(item, t, m), last) - 1
    exacts = _growth_exacts(item, m, last)
    rows = []
    for t in range(1, args.tmax + 1):
        try:
            target = ct.growth_target(item, t, m)
            exact = next(exacts)
            ratio = exact / target if target else 0.0
        except OverflowError:
            raise ValueError(
                f"growth item {item}: the float columns overflow a double at t={t}; "
                f"use --tmax {t - 1} or less"
            ) from None
        rows.append({"t": t, "exact": exact, "target": target, "ratio": ratio})
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


def cmd_table1(args) -> int:
    t, m = args.t, args.m
    if t < 1 or m < 2:
        raise ValueError("table1 needs --t >= 1 and --m >= 2")
    if args.oracle_max < 0:
        raise ValueError("--oracle-max must be >= 0")
    enumerable = t <= args.oracle_max
    if enumerable:
        _check_enumerable("--t", t)
    try:
        bound = ct.lowlying_lower_bound(t, m)
    except OverflowError:
        first = _first_overflow(lambda tau: ct.lowlying_lower_bound(tau, m), t)
        raise ValueError(
            f"table1: the lowlying bound overflows a double at t={first} for --m {m}; "
            f"use --t {first - 1} or less"
        ) from None

    def enum_count(sizes):
        return sum(sizes) if enumerable else ""

    # reciprocal classes are counted as the checked rows enumerate prints
    classes_n = enum_count(1 for _ in en.classes(t))
    reciprocal_n = enum_count(len(words) for words, _ in en._reciprocal_chunks(t, None, False))
    lowlying_n = enum_count(1 for _ in en.classes(t, m=m))
    lowlying_rec_n = enum_count(len(words) for words, _ in en._reciprocal_chunks(t, m, False))

    rows = [
        {"family": family, "word_length": length, "formula": formula, "enumerated": n, "check": ""}
        for family, length, formula, n in (
            ("classes", 2 * t, ct.necklace_count(t), classes_n),
            ("reciprocal", 4 * t, ct.reciprocal_count(t), reciprocal_n),
            ("lowlying", 2 * t, bound, lowlying_n),
            ("lowlying-reciprocal", 4 * t, ct.bounded_compositions(t, m), lowlying_rec_n),
        )
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


def cmd_depth(args) -> int:
    report = geo.max_depth(_word_from_args(args))
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
        "cross_check_ok": report.cross_check_ok,
    }
    # a trace_abs past the interpreter's int-to-str digit limit is refused
    # before the row is written
    _emit_rows([row], _DEPTH_FIELDS, args.format)
    return 0 if report.cross_check_ok else 1


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


def cmd_audit(args) -> int:
    _check_enumerable("--tmax", args.tmax)
    report = geo.audit_lemma71(args.tmax)
    rows = [{k: getattr(r, k) for k in _AUDIT_FIELDS} for r in report.rows]
    if args.format == "json":
        print(json.dumps({"rows": rows, "summary": report.summary}, indent=2))
    else:
        _emit_rows(rows, _AUDIT_FIELDS, args.format)
        for key in (
            "classes",
            "paper_bracket_hits",
            "shifted_bracket_hits",
            "widened_hits",
            "cross_check_failures",
        ):
            print(f"# {key}: {report.summary[key]}")
        for k, hist in report.summary["by_max_run"].items():
            print(
                f"# max_run {k}: paper {hist['paper']}, shifted {hist['shifted']}, "
                f"neither {hist['neither']}"
            )
    return 1 if report.summary["cross_check_failures"] else 0


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
    add_format(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("table1", help="the four family rows at one length")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--oracle-max", type=int, default=16)
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
        try:
            code = args.func(args)
        except ValueError as exc:
            # the one place where a refused input becomes a usage error
            parser.error(str(exc))
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
