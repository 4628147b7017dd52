"""Output checks for benchmark ops, independent of the code they check.

``check(op, rc, stdout, exc, n_checks)`` returns ``(status, detail, rows)``:

- status "ok": the op returned exit code 0 and its output is right;
- status "known-failure": a known-failing op (``op["expect"]``) failed the
  known way; it counts in ``ops_failed_frac`` but is not a wrong answer;
- status "bad": anything else, including a wrong row, count or exit code.

``rows`` is the number of classes the op emitted or measured, for
``classes_per_s``.  Expected values come from ``reference``, never from
modgeod, and no stored output digest is used, so a change that only reorders
rows still passes.
"""

from __future__ import annotations

import json
import math

import reference as ref


class CheckError(Exception):
    """An op's output is wrong; the message says how."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(got: float, want: float, rel: float = 1e-9) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-300)


def _csv_rows(text: str, fields: list[str]) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    _require(bool(lines) and lines[0] == ",".join(fields), f"bad CSV header {lines[:1]!r}")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        _require(len(cells) == len(fields), f"bad CSV row {ln!r}")
        rows.append(dict(zip(fields, cells)))
    return rows


def _table(op: dict, text: str, fields: list[str]) -> list[dict]:
    """Rows as strings, from either output format."""
    if op.get("format") == "json":
        data = json.loads(text)
        _require(isinstance(data, list), "JSON output is not a list of rows")
        for row in data:
            _require(isinstance(row, dict) and list(row) == fields, f"bad JSON row {row!r}")
        return [{k: _cell(v) for k, v in row.items()} for row in data]
    return _csv_rows(text, fields)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# per command


def _check_enumerate(op: dict, text: str) -> int:
    t, m, primitive = op["t"], op["m"], op["primitive"]
    if op["family"] == "classes":
        rows = _table(op, text, ["word", "tau"])
        if m is None:
            want = ref.classes_count(t, primitive)
        else:
            want = ref.bounded_classes_count(t, m, primitive)
            if not primitive:
                _require(len(rows) >= ref.lower_bound(t, m), "count below the lower bound")
        words = [r["word"] for r in rows]
        for r in rows:
            w = r["word"]
            _require(len(w) == t and set(w) <= {"+", "-"}, f"bad word {w!r}")
            _require(r["tau"] == str(t), f"bad tau in {r!r}")
            _require(ref.least_rotation(w) == w, f"{w} is not its least rotation")
            _require(m is None or ref.max_cyclic_run(w) <= m, f"{w} breaks --m {m}")
    else:
        rows = _table(op, text, ["word", "t", "k0"])
        want = ref.reciprocal_count(t, primitive, m)
        words = [r["word"] for r in rows]
        for r in rows:
            w = r["word"]
            _require(len(w) == 2 * t and ref.is_mirrored(w), f"{w} is not a mirrored word")
            k0 = ref.mirror_shift(w)
            _require(r["t"] == str(t) and r["k0"] == str(k0), f"bad t/k0 in {r!r}")
            partner = w[-k0:] + w[:-k0]
            _require(ref.as_bits(w) < ref.as_bits(partner), f"{w} is not the smaller of its pair")
            _require(not primitive or k0 == t, f"{w} is not primitive")
            _require(m is None or ref.max_cyclic_run(w) <= m, f"{w} breaks --m {m}")
    _require(len(set(words)) == len(words), "a word repeats")
    _require(len(rows) == want, f"{len(rows)} rows, expected {want}")
    return len(rows)


def _expected_count(op: dict) -> int:
    family, t, m, cumulative, primitive = (
        op["family"], op["t"], op["m"], op["cumulative"], op["primitive"])
    lengths = range(1, t + 1) if cumulative else (t,)
    if family in ("classes", "primitive"):
        return sum(ref.classes_count(n, primitive or family == "primitive") for n in lengths)
    if family == "classes+torsion":
        return sum(ref.classes_count(n) for n in lengths) + ref.TORSION_CLASSES
    if family in ("reciprocal", "reciprocal-primitive"):
        prim = primitive or family == "reciprocal-primitive"
        return sum(ref.reciprocal_count(n, prim) for n in lengths)
    if family == "lowlying":
        return sum(ref.bounded_classes_count(n, m, primitive) for n in lengths)
    if family in ("lowlying-reciprocal", "compositions"):
        table = ref.composition_table(t, m)
        return sum(table[n] for n in lengths)
    raise CheckError(f"no reference for family {family!r}")


def _check_count(op: dict, text: str) -> int:
    want = _expected_count(op)
    if op["format"] == "json":
        record = json.loads(text)
        _require(record.get("exact") == want, f"exact {record.get('exact')!r}, expected {want}")
        for key in ("family", "t", "m", "cumulative", "primitive"):
            _require(record.get(key) == op[key], f"field {key} is {record.get(key)!r}")
    else:
        _require(text.strip() == str(want), f"printed {text.strip()[:40]!r}, expected {want}")
    if op["family"] == "lowlying" and not op["primitive"] and not op["cumulative"]:
        _require(want >= ref.lower_bound(op["t"], op["m"]), "count below the lower bound")
    return 0


def _check_alpha(op: dict, text: str) -> int:
    (row,) = _csv_rows(text, ["m", "alpha", "d", "residual"])
    m = op["m"]
    _require(row["m"] == str(m), f"bad m {row['m']!r}")
    _require(abs(float(row["alpha"]) - ref.alpha(m)) < 1e-12, f"alpha {row['alpha']} is off")
    _require(_close(float(row["d"]), ref.alpha_coefficient(m)), f"d {row['d']} is off")
    _require(abs(float(row["residual"])) < 1e-12, f"residual {row['residual']} too large")
    return 0


def _check_growth(op: dict, text: str) -> int:
    rows = _csv_rows(text, ["t", "exact", "target", "ratio"])
    item, m, tmax = op["item"], op["m"], op["tmax"]
    _require(len(rows) == tmax, f"{len(rows)} rows, expected {tmax}")
    comps = ref.composition_table(tmax // 2 + 1, m) if item == 2 else None
    acc, prim = 0, 0
    for t, row in enumerate(rows, start=1):
        if item == 1:
            exact = (1 << (t // 2)) - 1
        elif item == 2:
            if t % 2 == 0:
                acc += comps[t // 2]
            exact = acc
        else:
            prim += ref.classes_count(t, primitive=True)
            exact = prim - 2
        target = ref.growth_target(item, t, m)
        _require(row["t"] == str(t) and row["exact"] == str(exact), f"bad exact at t={t}: {row}")
        _require(_close(float(row["target"]), target), f"bad target at t={t}: {row}")
        _require(_close(float(row["ratio"]), exact / target, 1e-8), f"bad ratio at t={t}: {row}")
    return 0


def _check_table1(op: dict, text: str) -> int:
    rows = _csv_rows(text, ["family", "word_length", "formula", "enumerated", "check"])
    t, m = op["t"], op["m"]
    _require([r["family"] for r in rows] == ["classes", "reciprocal", "lowlying",
                                             "lowlying-reciprocal"], "bad family rows")
    exact = {
        "classes": (2 * t, ref.classes_count(t)),
        "reciprocal": (4 * t, ref.reciprocal_count(t)),
        "lowlying-reciprocal": (4 * t, ref.compositions(t, m)),
    }
    for r in rows:
        _require(r["enumerated"] == "" and r["check"] == "skipped", f"row not skipped: {r}")
        if r["family"] == "lowlying":
            _require(r["word_length"] == str(2 * t), f"bad row {r}")
            _require(_close(float(r["formula"]), ref.lower_bound(t, m)), f"bad bound {r}")
        else:
            length, value = exact[r["family"]]
            _require(r["word_length"] == str(length) and r["formula"] == str(value),
                     f"bad row {r}, expected {value}")
    return 0


_DEPTH_FIELDS = ["word", "tau", "max_run", "trace_abs", "length", "apex", "depth",
                 "winding_lo", "winding_hi", "cross_check_ok"]


def _check_depth_row(row: dict, word: str) -> None:
    want = ref.depth_reference(word)
    _require(row["word"] == word and row["tau"] == str(len(word)), f"bad word fields {row}")
    _require(row["max_run"] == str(want["max_run"]), f"bad max_run {row}")
    _require(row["trace_abs"] == str(want["trace_abs"]), f"trace {row['trace_abs']} != {want['trace_abs']}")
    for key in ("length", "apex", "depth"):
        _require(_close(float(row[key]), want[key], 1e-9), f"bad {key} {row[key]} vs {want[key]}")


def _check_depth(op: dict, text: str) -> int:
    (row,) = _table(op, text, _DEPTH_FIELDS)
    _check_depth_row(row, op["word"])
    _require(row["cross_check_ok"] == "true", "cross-check failed")
    lo, hi = int(row["winding_lo"]), int(row["winding_hi"])
    _require(hi == lo + 1, f"bad winding bracket {row}")
    return 1


_AUDIT_FIELDS = ["word", "tau", "max_run", "trace_abs", "length", "apex", "depth",
                 "paper_bracket_hit", "shifted_bracket_hit"]


def _check_audit(op: dict, text: str) -> int:
    rows = _csv_rows(text, _AUDIT_FIELDS)
    summary = dict(
        ln[2:].split(": ", 1) for ln in text.splitlines() if ln.startswith("# ") and ": " in ln
    )
    tmax = op["tmax"]
    want = sum(ref.classes_count(n) - 2 for n in range(1, tmax + 1))
    _require(summary.get("classes") == str(want), f"summary classes {summary.get('classes')}, expected {want}")
    _require(summary.get("cross_check_failures") == "0", "cross-check failures reported")
    _require(len(rows) == want, f"{len(rows)} rows, expected {want}")
    words = [r["word"] for r in rows]
    _require(len(set(words)) == len(words), "a class repeats")
    for r in rows:
        w = r["word"]
        _require(ref.least_rotation(w) == w and len(set(w)) == 2, f"{w} is not a hyperbolic class")
        _check_depth_row(r, w)
    return len(rows)


def _check_verify(op: dict, text: str, n_checks: int) -> int:
    lines = text.splitlines()
    _require(lines[-1:] == [f"{n_checks}/{n_checks} checks passed"],
             f"last line {lines[-1:]!r}, expected {n_checks}/{n_checks}")
    _require(len(lines) == n_checks + 1 and all(ln.startswith("PASS ") for ln in lines[:-1]),
             "not every check printed PASS")
    return 0


_CHECKERS = {
    "enumerate": _check_enumerate,
    "count": _check_count,
    "alpha": _check_alpha,
    "growth": _check_growth,
    "table1": _check_table1,
    "depth": _check_depth,
    "audit-lemma71": _check_audit,
}


def check(op: dict, rc, stdout: str, exc: list | None, n_checks: int = 0):
    """Judge one op's outcome; ``exc`` is [type name, message] if it raised."""
    if exc is not None:
        known = op["expect"] == "precision-limit" and exc[0] == "PrecisionLimitError"
        status = "known-failure" if known else "bad"
        return status, f"raised {exc[0]}: {exc[1]}", 0
    if rc != 0:
        return "bad", f"exit code {rc}", 0
    try:
        if op["cmd"] == "verify":
            rows = _check_verify(op, stdout, n_checks)
        else:
            rows = _CHECKERS[op["cmd"]](op, stdout)
    except (CheckError, ValueError, KeyError, TypeError) as err:
        return "bad", f"{type(err).__name__}: {err}", 0
    return "ok", "", rows
