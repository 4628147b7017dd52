"""Command-line surface: counting, enumeration, verification, tables, audits.

Output is deterministic for a fixed argv: rows are emitted in sorted order,
reals are printed with 12 significant digits in CSV mode, and JSON mode
mirrors the CSV rows as an array of objects with the same field names.
Every table has one writer, ``_write_columns``, which takes chunks of
columns and renders each column whole; a column that prints alike on every
row of a chunk, such as ``enumerate``'s t, is folded into the fixed text
between the others, so each row costs two join pieces per column that
varies, and a chunk with one column that varies is that column joined with
the text between its values.  ``enumerate`` builds the sign strings of a
chunk's words in one pass: their ``bin`` texts joined, translated and split
as one string, and marked as ``_Signs``, whose JSON quotes are part of the
fixed text, since a sign string needs no escaping.  It streams its chunks as
the generators make them, so its memory does not grow with the class count;
a chunk is ``_CHUNK_ROWS`` rows, except that reciprocal words come from
``enumeration._reciprocal_chunks``, one chunk per block of its halves.
Every other table is one chunk.  A count too long to print is
refused before it is computed when ``counting._count_floor_log2`` already
bounds it past the interpreter's int-to-str digit limit.

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
import operator
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


# the types whose equal values print alike; 1 == 1.0 == True and 0.0 == -0.0
# do not
_FOLDABLE = frozenset({int, str, bool, type(None)})


def _text(value, fmt: str) -> str:
    # the text json.dumps or _fmt gives one value
    if type(value) is int:
        return repr(value)
    if fmt == "json":
        return _json_str(value) if type(value) is str else json.dumps(value)
    return _fmt(value)


class _Signs(list):
    """A column of sign strings, marked by the code that makes it.

    A string of ``+`` and ``-`` needs no JSON escaping, so ``_write_columns``
    puts the quotes of a ``_Signs`` column in its fixed text; no scan of the
    values checks that they are sign strings.
    """


def _column(values: Sequence, fmt: str) -> str | Iterable[str]:
    # the text json.dumps or _fmt gives each value, or the one text of a
    # column that prints alike on every row; a column of str or of int, nearly
    # every column printed, is rendered with no Python call per value, and a
    # column of sign strings is returned as it is, to be quoted by the writer
    first = values[0]
    if len(values) == 1:
        return _text(first, fmt)
    if type(values) is _Signs:
        return values
    kinds = set(map(type, values))
    if (
        len(kinds) == 1 and kinds <= _FOLDABLE
        and values[-1] == first and values.count(first) == len(values)
    ):
        return _text(first, fmt)
    if kinds == {int}:
        # a column of few distinct values, such as enumerate's k0, looks each
        # value's text up instead of formatting it again
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
    first row's first value; the text before a later row's first value; the
    text before each field's value, the first being ``first``; the text that
    closes a row; the text after the last row; and the whole output for no
    rows.
    """
    if fmt == "json":
        glue = [f",\n    {_json_str(k)}: " for k in fields]
        lead, glue[0] = "[\n  {" + glue[0][1:], ",\n  {" + glue[0][1:]
        close, end, empty = "\n  }", "\n]\n", "[]\n"
    else:
        glue = ["\n", *[","] * (len(fields) - 1)]
        lead = empty = ",".join(fields) + "\n"
        close, end = "", "\n"
    return lead, glue[0], tuple(glue), close, end, empty


def _write_columns(chunks: Iterable[Sequence[Sequence]], fields: list[str], fmt: str) -> None:
    """Write column chunks as CSV, or as ``json.dumps`` of the row objects with ``indent=2``.

    A chunk holds one sequence per name in ``fields`` (non-empty, in output
    order), all of one length, of JSON scalars: str, int, float, bool or None.
    Each chunk is written to the ``sys.stdout`` of the call as soon as it is
    pulled, so an error a generator raises on its first pull leaves stdout
    empty.  Its columns are rendered whole.  A column that prints alike on
    every row of the chunk, such as ``enumerate``'s t, is folded into the
    fixed text around the others: its values are equal and of one type in
    ``_FOLDABLE``, or it has one row.  The columns left are interleaved with
    that text in one join, with no Python call per row; one column left is
    joined with the text between its values.  A ``_Signs`` column is written
    as it is, its JSON quotes part of the fixed text.
    """
    lead, first, glue, close, end, empty = _layout(tuple(fields), fmt)
    quote = '"' if fmt == "json" else ""
    wrote = False
    for columns in chunks:
        rows = len(columns[0])
        if not rows:
            continue
        # a row is texts[0], a value of varying[0], texts[1], ..., and tail;
        # the columns that print alike are part of that fixed text
        texts, varying, text = [], [], ""
        for before, values in zip(glue, columns):
            rendered = _column(values, fmt)
            if isinstance(rendered, str):
                text += before + rendered
            else:
                quoted = quote if type(rendered) is _Signs else ""
                texts.append(text + before + quoted)
                varying.append(rendered)
                text = quoted
        tail = text + close
        if not varying:  # every row is the same text
            texts, tail = [tail], ""
        # every row but the first starts with ``first``, which the first
        # row of the output trades for ``lead``
        start = (first if wrote else lead) + texts[0][len(first):]
        between = tail + texts[0]
        if len(varying) == 1:
            values = list(varying[0])
            values[0] = start + values[0]
            values[-1] += tail
            sys.stdout.write(between.join(values))
        else:
            pieces = itertools.chain.from_iterable(zip(
                itertools.repeat(between, rows),
                *varying[:1],
                *itertools.chain.from_iterable(zip(map(itertools.repeat, texts[1:]), varying[1:])),
            ))
            next(pieces)  # the first row's text before its values is start
            sys.stdout.write("".join(itertools.chain((start,), pieces, (tail,))))
        wrote = True
    sys.stdout.write(end if wrote else empty)


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


def _too_long(limit: int) -> ValueError:
    return ValueError(
        f"Exceeds the limit ({limit} digits) for integer string conversion: the count "
        "is longer; set the environment variable PYTHONINTMAXSTRDIGITS to raise the "
        "limit, or to 0 to lift it"
    )


def cmd_count(args) -> int:
    torsion = args.family == "classes+torsion"
    if torsion and not args.cumulative:
        raise ValueError("classes+torsion only makes sense cumulatively")
    primitive = args.primitive or args.family in _PRIMITIVE_ALIASES
    family = "classes" if torsion else _PRIMITIVE_ALIASES.get(args.family, args.family)
    # refuse a count that could not be printed before computing it: 2^e has
    # more than L digits once e >= L log2(10), which e * 10^9 >= 3321928095 L
    # ensures.  Interpreters older than the limit (before 3.10.7) have none,
    # and a primitive count with torsion is the counter's to refuse.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and not (torsion and primitive):
        e = ct._count_floor_log2(family, args.t, m=args.m, primitive=primitive)
        if e is not None and e * 10**9 >= 3321928095 * limit:
            raise _too_long(limit)
    if args.cumulative:
        value = ct.cumulative(family, args.t, m=args.m, primitive=primitive,
                              include_torsion=torsion)
    else:
        value = ct.count(family, args.t, m=args.m, primitive=primitive)
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

def _sign_texts(words: list[int], length: int) -> _Signs:
    """The sign strings of a non-empty list of packed words of ``length`` entries, as ``_Signs``.

    ``bin(w | 1 << length)`` is ``"0b1"`` and the word's digits, so the
    chunk's texts, joined by newlines and translated as one text, read
    ``"-b+"`` before each word.  An empty list would give ``[""]``.
    """
    text = "\n".join(map(bin, map((1 << length).__or__, words))).translate(_SIGN_CHARS)
    texts = _Signs(text.split("\n-b+"))
    # the first word's "-b+" has no newline before it; cutting it from the
    # whole text would copy the chunk's text once more
    texts[0] = texts[0][3:]
    return texts


def _enumerate_columns(args) -> Iterator[tuple]:
    """The rows of ``enumerate`` as column chunks.

    Words are formatted from their packed bits and build no word object.
    Classes come from the bits-level core ``_CHUNK_ROWS`` at a time;
    reciprocal words come from theirs with their k0s, a block at a time.
    """
    t = args.t
    if args.family == "classes":
        words = en._class_bits(t, args.primitive, args.m, args.hyperbolic)
        while chunk := list(itertools.islice(words, _CHUNK_ROWS)):
            yield _sign_texts(chunk, t), [t] * len(chunk)
        return
    for words, k0s in en._reciprocal_chunks(t, args.m, args.primitive):
        yield _sign_texts(words, 2 * t), [t] * len(words), k0s


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
    data = ct.alpha(args.m)
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

def _until_overflow(f) -> Iterator[float]:
    """Yield f(1), f(2), ... up to the first t at which f overflows a double.

    f raises ``OverflowError`` there, so the values yielded number that t
    less one.
    """
    for t in itertools.count(1):
        try:
            value = f(t)
        except OverflowError:
            return
        yield value


def cmd_growth(args) -> int:
    item, m, tmax = args.item, args.m, args.tmax
    if tmax < 1:
        raise ValueError("--tmax must be >= 1")
    # the target at t = 1 refuses a bad item or m, before any exact value is drawn
    targets = list(itertools.islice(_until_overflow(lambda t: ct.growth_target(item, t, m)), tmax))
    exact_col, ratio_col = [], []
    for target, exact in zip(targets, ct._growth_exacts(item, m, len(targets))):
        try:
            ratio_col.append(exact / target)
        except OverflowError:
            break
        exact_col.append(exact)
    if len(ratio_col) < tmax:
        t = len(ratio_col) + 1
        raise ValueError(
            f"growth item {item}: the float columns overflow a double at t={t}; "
            f"use --tmax {t - 1} or less"
        )
    columns = range(1, tmax + 1), exact_col, targets, ratio_col
    _write_columns([columns], ["t", "exact", "target", "ratio"], args.format)
    return 0


# ---------------------------------------------------------------------------
# table1

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
        first = 1 + sum(1 for _ in _until_overflow(lambda tau: ct.lowlying_lower_bound(tau, m)))
        raise ValueError(
            f"table1: the lowlying bound overflows a double at t={first} for --m {m}; "
            f"use --t {first - 1} or less"
        ) from None

    families = ("classes", "reciprocal", "lowlying", "lowlying-reciprocal")
    formulas = (ct.necklace_count(t), ct.reciprocal_count(t), bound, ct.bounded_compositions(t, m))
    if enumerable:
        # every class is counted off its packed core, as enumerate prints it
        counts = [
            sum(1 for _ in en._class_bits(t)),
            sum(len(words) for words, _ in en._reciprocal_chunks(t, None, False)),
            sum(1 for _ in en._class_bits(t, m=m)),
            sum(len(words) for words, _ in en._reciprocal_chunks(t, m, False)),
        ]
        # the lowlying formula is a lower bound, the other three exact counts
        checks = ["equal" if n == f else "MISMATCH" for n, f in zip(counts, formulas)]
        checks[2] = "bound-ok" if counts[2] >= bound else "BOUND-FAIL"
    else:
        counts, checks = [""] * 4, ["skipped"] * 4
    columns = families, (2 * t, 4 * t, 2 * t, 4 * t), formulas, counts, checks
    _write_columns([columns], ["family", "word_length", "formula", "enumerated", "check"],
                   args.format)
    return 1 if {"MISMATCH", "BOUND-FAIL"} & set(checks) else 0


# ---------------------------------------------------------------------------
# depth and the bracket audit

# each depth column's value on a ``DepthReport``
_DEPTH_COLUMNS = {
    "word": lambda r: str(r.word),
    "tau": lambda r: r.word.length,
    "length": operator.attrgetter("geo_length"),
    "winding_lo": lambda r: r.winding_bracket[0],
    "winding_hi": lambda r: r.winding_bracket[1],
    **{k: operator.attrgetter(k) for k in (
        "max_run", "trace_abs", "apex", "depth", "cross_check_ok",
        "paper_bracket_hit", "shifted_bracket_hit",
    )},
}

_SHARED_FIELDS = ["word", "tau", "max_run", "trace_abs", "length", "apex", "depth"]
_DEPTH_FIELDS = [*_SHARED_FIELDS, "winding_lo", "winding_hi", "cross_check_ok"]
_AUDIT_FIELDS = [*_SHARED_FIELDS, "paper_bracket_hit", "shifted_bracket_hit"]


def _depth_columns(reports: Sequence[geo.DepthReport], fields: list[str]) -> list[list]:
    return [list(map(_DEPTH_COLUMNS[k], reports)) for k in fields]


def cmd_depth(args) -> int:
    report = geo.max_depth(_word_from_args(args))
    # a trace_abs past the interpreter's int-to-str digit limit is refused
    # before the row is written
    _write_columns([_depth_columns([report], _DEPTH_FIELDS)], _DEPTH_FIELDS, args.format)
    return 0 if report.cross_check_ok else 1


def cmd_audit(args) -> int:
    _check_enumerable("--tmax", args.tmax)
    report = geo.audit_lemma71(args.tmax)
    columns = _depth_columns(report.rows, _AUDIT_FIELDS)
    if args.format == "json":
        rows = [dict(zip(_AUDIT_FIELDS, row)) for row in zip(*columns)]
        print(json.dumps({"rows": rows, "summary": report.summary}, indent=2))
    else:
        _write_columns([columns], _AUDIT_FIELDS, args.format)
        for key, value in report.summary.items():
            if not isinstance(value, dict):
                print(f"# {key}: {value}")
        for k, hist in report.summary["by_max_run"].items():
            print(
                f"# max_run {k}: paper {hist['paper']}, shifted {hist['shifted']}, "
                f"neither {hist['neither']}"
            )
    return 0 if all(r.cross_check_ok for r in report.rows) else 1


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
