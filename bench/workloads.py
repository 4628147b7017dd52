"""Seeded op lists for the four benchmark workloads.

An op is a dict with the argv the CLI receives, its kind ("query" for a
single-answer command, "batch" for one that emits many rows or runs a whole
suite), the parameters the output check needs, and ``expect`` set to
"precision-limit" for the known-failing table1 ops past the 2^52 ceiling.

Each workload keeps its cost nearly the same from seed to seed: the sizes that
set the cost are fixed slots or narrow bands, and the seed picks the
parameters and words that cost about the same either way, and the order of
the ops.
"""

from __future__ import annotations

import random

import reference as ref

WHY = {
    "enumerate": (
        "generate-and-canonicalise over 2^t words plus CLI row formatting near the t<=30 "
        "ceiling; geometry does no work here"
    ),
    "audit": (
        "encode and the _bfs_min_c conjugation search dominate (audit-lemma71 plus depth "
        "queries); enumeration scans only 2^12 words"
    ),
    "counts": (
        "formula-backed counters at large t (cumulative sums, alpha, growth, table1); "
        "enumeration does no work here"
    ),
    "verify": (
        "verify --suite all on its default thread pool; the only workload for the verify "
        "layer and the binwords object API"
    ),
}

WORKLOADS = tuple(WHY)


def _op(kind: str, argv: list[str], **params) -> dict:
    return {"kind": kind, "argv": argv, "expect": params.pop("expect", None), **params}


def _flag(name: str, on: bool) -> list[str]:
    return [name] if on else []


# ---------------------------------------------------------------------------
# enumerate

# (family, t, bounded, format): the slots that set a pass's cost; the seed
# picks m, --primitive and any format left as None.  The largest reciprocal
# slot always prints JSON, whose row list sets the pass's peak memory, so the
# peak does not depend on the seed.
_ENUMERATE_SLOTS = (
    ("classes", 17, True, None),
    ("classes", 16, False, None),
    ("classes", 16, True, None),
    ("classes", 15, True, None),
    ("classes", 14, False, None),
    ("reciprocal", 17, False, "json"),
    ("reciprocal", 14, False, None),
    ("reciprocal", 14, True, None),
    ("reciprocal", 13, True, None),
    ("reciprocal", 12, False, None),
)
# (t, cumulative) slots for count --family lowlying
_LOWLYING_SLOTS = ((15, False), (14, False), (13, True), (12, True), (12, False), (11, True))


def _enumerate_ops(rng: random.Random) -> list[dict]:
    ops = []
    for family, t, bounded, fixed_format in _ENUMERATE_SLOTS:
        m = rng.randint(2, 5) if bounded else None
        primitive = rng.random() < 0.5
        fmt = fixed_format or rng.choice(("csv", "json"))
        argv = ["enumerate", "--family", family, "--t", str(t)]
        argv += (["--m", str(m)] if m is not None else []) + _flag("--primitive", primitive)
        argv += ["--format", fmt]
        ops.append(_op("batch", argv, cmd="enumerate", family=family, t=t, m=m,
                       primitive=primitive, format=fmt))
    for t, cumulative in _LOWLYING_SLOTS:
        m = rng.randint(2, 5)
        primitive = rng.random() < 0.5
        argv = ["count", "--family", "lowlying", "--t", str(t), "--m", str(m)]
        argv += _flag("--cumulative", cumulative) + _flag("--primitive", primitive)
        ops.append(_op("query", argv, cmd="count", family="lowlying", t=t, m=m,
                       cumulative=cumulative, primitive=primitive, format="csv"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# audit

_DEPTH_QUERIES = 150


def _random_word(rng: random.Random, length: int, deep: bool) -> str:
    """A non-constant word; deep words are built from long runs, shallow from short."""
    while True:
        parts, sign = [], rng.choice("+-")
        while sum(map(len, parts)) < length:
            run = rng.randint(4, 9) if deep else rng.randint(1, 2)
            parts.append(sign * run)
            sign = "-" if sign == "+" else "+"
        word = "".join(parts)[:length]
        if len(set(word)) == 2:
            return word


def _audit_ops(rng: random.Random) -> list[dict]:
    ops = []
    for i in range(_DEPTH_QUERIES):
        length = 8 + (i // 2) % 25  # every length 8..32 equally often
        deep = i % 2 == 0
        word = _random_word(rng, length, deep)
        fmt = rng.choice(("csv", "json"))
        argv = ["depth", f"--word={word}", "--format", fmt]
        ops.append(_op("query", argv, cmd="depth", word=word, format=fmt))
    rng.shuffle(ops)
    audit = _op("batch", ["audit-lemma71", "--tmax", "12"], cmd="audit-lemma71", tmax=12,
                format="csv")
    return [audit] + ops


# ---------------------------------------------------------------------------
# counts

# heavy ops take ~0.5 s each on a 2-core x86 box at these sizes; their cost
# grows as t^2 (cumulative) or tmax^3 (growth item 2) and barely with m, so
# the seed picks m freely and the size only within a narrow band
_CUMULATIVE_T = (640, 680)
_GROWTH2_TMAX = (180, 195)
_LIGHT_FAMILIES = ("classes", "primitive", "reciprocal", "reciprocal-primitive", "compositions")
_TABLE1_OK, _TABLE1_FAIL = 6, 2


def _count_op(family, t, m=None, cumulative=False, fmt="csv") -> dict:
    argv = ["count", "--family", family, "--t", str(t)]
    argv += (["--m", str(m)] if m is not None else []) + _flag("--cumulative", cumulative)
    argv += ["--format", fmt]
    return _op("query", argv, cmd="count", family=family, t=t, m=m, cumulative=cumulative,
               primitive=False, format=fmt)


def _table1_t(rng: random.Random, m: int, fail: bool) -> int:
    ts = [t for t in range(17, 120)
          if (ref.past_round_ceiling(t, m, 4.0) if fail else not ref.past_round_ceiling(t, m, 0.25))]
    return rng.choice(ts)


def _counts_ops(rng: random.Random) -> list[dict]:
    ops = []
    for family in ("lowlying-reciprocal", "compositions"):
        for _ in range(2):
            m, t = rng.randint(2, 6), rng.randint(*_CUMULATIVE_T)
            ops.append(_count_op(family, t, m, cumulative=True, fmt=rng.choice(("csv", "json"))))
    for _ in range(2):
        m, tmax = rng.randint(2, 6), rng.randint(*_GROWTH2_TMAX)
        ops.append(_op("query", ["growth", "--item", "2", "--m", str(m), "--tmax", str(tmax)],
                       cmd="growth", item=2, m=m, tmax=tmax, format="csv"))
    for family in ("classes", "primitive", "classes+torsion"):
        t = rng.randint(700, 800)
        ops.append(_count_op(family, t, cumulative=True))
    ops.append(_count_op("reciprocal-primitive", rng.randint(1500, 2000), cumulative=True))
    for _ in range(24):
        family = rng.choice(_LIGHT_FAMILIES)
        m = rng.randint(2, 8) if family == "compositions" and rng.random() < 0.5 else None
        t = rng.randint(200, 2000)
        ops.append(_count_op(family, t, m, fmt=rng.choice(("csv", "json"))))
    for _ in range(4):
        ops.append(_count_op("lowlying-reciprocal", rng.randint(200, 2000), rng.randint(2, 8)))
    for m in rng.sample(range(2, 41), 8):
        ops.append(_op("query", ["alpha", "--m", str(m)], cmd="alpha", m=m, format="csv"))
    for item in (1, 1, 3, 3):
        tmax = rng.randint(200, 400)
        ops.append(_op("query", ["growth", "--item", str(item), "--tmax", str(tmax)],
                       cmd="growth", item=item, m=None, tmax=tmax, format="csv"))
    for i in range(_TABLE1_OK + _TABLE1_FAIL):
        fail = i >= _TABLE1_OK
        m = rng.randint(2, 6)
        t = _table1_t(rng, m, fail)
        ops.append(_op("query", ["table1", "--t", str(t), "--m", str(m)], cmd="table1", t=t,
                       m=m, format="csv", expect="precision-limit" if fail else None))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify


def _verify_ops(rng: random.Random) -> list[dict]:
    return [_op("batch", ["verify", "--suite", "all"], cmd="verify", format="csv")]


_GENERATORS = {
    "enumerate": _enumerate_ops,
    "audit": _audit_ops,
    "counts": _counts_ops,
    "verify": _verify_ops,
}


def ops_for(workload: str, seed: int) -> list[dict]:
    """The op list of one pass; the same (workload, seed) always gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
