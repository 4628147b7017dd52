"""Integer matrix representation of sign words and cusp-excursion depths.

A sign entry +1 maps to the parabolic product GEN_A * GEN_B and -1 to
GEN_A * GEN_B^-1; the second of these is the unit translation fixing the cusp
at infinity, the first is its conjugate fixing 0.  All matrix arithmetic is
exact; floats enter only via lengths, apex heights and depths.

``ProjectiveMatrix`` is the public type results are returned in.  The hot
paths (``encode``, the rotation candidates of ``max_depth`` and the
conjugation search ``_bfs_min_c``) run on plain ``(a, b, c, d)`` integer
tuples instead, with the same determinant check and the same projective sign
rule (``_canonical``), and build no intermediate matrix objects.  The
matrices of all t rotations of a word come from one another by conjugation
with a single letter, so the candidate set costs O(t) tuple operations, not
t encodings.

Depth convention: with the cusp parabolic normalised to a unit translation,
the axis of a hyperbolic matrix [[a,b],[c,d]] is the half-circle over its real
fixed points, whose apex height is sqrt(trace^2-4)/(2|c|); the depth past the
length-one horocycle is log of that apex.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

# rotate is unused here; the layer tracer in bench/tracer.py hooks geometry.rotate
from .binwords import BinaryWord, max_cyclic_run, rotate
from .enumeration import classes

__all__ = [
    "ProjectiveMatrix",
    "DepthReport",
    "AuditRow",
    "AuditReport",
    "GEN_A",
    "GEN_B",
    "encode",
    "classify",
    "geodesic_length",
    "apex_height",
    "max_depth",
    "in_thick_part",
    "audit_lemma71",
]

# strictness margin for bracket membership; nearer hits are flagged as
# boundary cases instead of being counted either way
_EDGE_MARGIN = 1e-9

Quad = tuple[int, int, int, int]


def _canonical(a: int, b: int, c: int, d: int) -> Quad:
    """The entries of a determinant-one matrix with its projective sign fixed.

    The first nonzero of (a, b, c, d) is made positive.  Raises ValueError
    when the determinant is not one.
    """
    if a * d - b * c != 1:
        raise ValueError(f"determinant must be 1: [[{a},{b}],[{c},{d}]]")
    if a < 0 or not a and (b < 0 or not b and (c < 0 or not c and d < 0)):
        return -a, -b, -c, -d
    return a, b, c, d


@dataclass(frozen=True)
class ProjectiveMatrix:
    """2x2 integer matrix of determinant one, taken modulo global sign.

    The stored sign is canonical: the first nonzero of (a, b, c, d) is
    positive, so dataclass equality and hashing agree with projective
    equality.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        a, b, c, d = _canonical(self.a, self.b, self.c, self.d)
        if (a, b, c, d) != (self.a, self.b, self.c, self.d):
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "c", c)
            object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls) -> "ProjectiveMatrix":
        return cls(1, 0, 0, 1)

    def __mul__(self, other: "ProjectiveMatrix") -> "ProjectiveMatrix":
        return ProjectiveMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ProjectiveMatrix":
        return ProjectiveMatrix(self.d, -self.b, -self.c, self.a)

    @property
    def trace_abs(self) -> int:
        return abs(self.a + self.d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


GEN_A = ProjectiveMatrix(0, -1, 1, 0)
GEN_B = ProjectiveMatrix(1, -1, 1, 0)


def _quad(M: ProjectiveMatrix) -> Quad:
    return M.a, M.b, M.c, M.d


_LETTER = {
    1: _quad(GEN_A * GEN_B),               # [[-1,0],[1,-1]] mod sign, fixes 0
    -1: _quad(GEN_A * GEN_B.inverse()),    # [[1,-1],[0,1]], unit translation
}
_LETTER_INV = {e: (d, -b, -c, a) for e, (a, b, c, d) in _LETTER.items()}


def _mul(x: Quad, y: Quad) -> Quad:
    """Checked, sign-canonical product of two determinant-one 4-tuples."""
    a, b, c, d = x
    e, f, g, h = y
    return _canonical(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def encode(w: BinaryWord) -> ProjectiveMatrix:
    """Ordered product of the letter matrices of w; exact integers.

    Multiplicative on concatenation of words.
    """
    out = (1, 0, 0, 1)
    for e in w.entries:
        out = _mul(out, _LETTER[e])
    return ProjectiveMatrix(*out)


def classify(M: ProjectiveMatrix) -> str:
    """'elliptic', 'parabolic' or 'hyperbolic' by absolute trace vs 2."""
    if M.trace_abs < 2:
        return "elliptic"
    if M.trace_abs == 2:
        return "parabolic"
    return "hyperbolic"


def geodesic_length(M: ProjectiveMatrix) -> float:
    """Translation length 2*arccosh(|trace|/2); hyperbolic matrices only."""
    if M.trace_abs <= 2:
        raise ValueError(f"geodesic length needs |trace| > 2, got {M.trace_abs}")
    return 2.0 * math.acosh(M.trace_abs / 2.0)


def apex_height(M: ProjectiveMatrix) -> float:
    """Apex of the axis half-circle: half the gap between real fixed points.

    Equals sqrt(trace^2 - 4) / (2|c|); undefined for c == 0 (vertical axis
    through infinity) or non-hyperbolic input.
    """
    if M.trace_abs <= 2:
        raise ValueError("apex height needs a hyperbolic matrix")
    if M.c == 0:
        raise ValueError("axis passes through infinity (c == 0)")
    tr = M.trace_abs
    return math.sqrt(tr * tr - 4) / (2 * abs(M.c))


def in_thick_part(w: BinaryWord, m: int) -> bool:
    """Whether every cyclic sign run of w has length at most m.

    This combinatorial test is the authoritative thick-part criterion here;
    the depth audit measures how the geometry lines up with it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return max_cyclic_run(w) <= m


@dataclass(frozen=True)
class DepthReport:
    """Per-word geometric summary of the deepest cusp excursion."""

    word: BinaryWord
    trace_abs: int
    geo_length: float
    max_run: int
    apex: float
    depth: float
    winding_bracket: tuple[int, int]
    cross_check_ok: Optional[bool]


def _rotation_candidates(w: BinaryWord, base: Quad) -> list[Quad]:
    """The matrix of every rotation of w, each followed by its A-conjugate.

    ``base`` is ``encode(w)``.  Rotations come in the order of
    ``rotate(w, k)`` for k = 0..t-1, and ``rotate(w, k)`` starts at entry
    (t-k) % t.  The rotation starting at entry i+1 is L^-1 M L, for M the
    rotation starting at entry i and L the letter at entry i, so the whole
    set costs O(t) products.  The A-conjugate [[d,-c],[-b,a]] swaps the
    roles of the cusps at 0 and infinity.
    """
    entries = w.entries
    t = len(entries)
    by_start = [base]
    for e in entries[:-1]:
        by_start.append(_mul(_mul(_LETTER_INV[e], by_start[-1]), _LETTER[e]))
    out = []
    for k in range(t):
        a, b, c, d = M = by_start[(t - k) % t]
        out.append(M)
        out.append(_canonical(d, -c, -b, a))
    return out


def _conjugates(a: int, b: int, c: int, d: int) -> tuple[Quad, Quad, Quad]:
    """g M g^-1 for g = GEN_A, GEN_B, GEN_B^-1 in that order, in closed form.

    Signs are left as they fall; ``_canonical`` checks and fixes them.
    """
    return (
        (d, -c, -b, a),
        (d - b, a - c + b - d, -b, a + b),
        (c + d, -c, c + d - a - b, a - c),
    )


def _bfs_min_c(
    start: Iterable[Quad],
    entry_cap: int,
    node_cap: int,
) -> tuple[int, int]:
    """Smallest |c| over a bounded conjugation search from ``start``.

    Breadth-first over conjugation by both generators (and the inverse of the
    three-torsion one), pruning once entries outgrow ``entry_cap`` and
    stopping once ``node_cap`` distinct matrices have been seen.  Nodes are
    sign-canonical 4-tuples, so projectively equal matrices are one node.
    Returns the smallest nonzero |c| found and the number of nodes seen.
    Purely an empirical safeguard: it can only ever lower the incumbent
    bound.
    """
    queue = deque(_canonical(*M) for M in start)
    seen = set(queue)
    best = min(abs(M[2]) for M in queue if M[2])
    while queue and len(seen) < node_cap:
        for N in _conjugates(*queue.popleft()):
            N = _canonical(*N)
            if N in seen:
                continue
            a, b, c, d = N
            if max(abs(a), abs(b), abs(c), abs(d)) > entry_cap:
                continue
            seen.add(N)
            if c and abs(c) < best:
                best = abs(c)
            queue.append(N)
    return best, len(seen)


def max_depth(w: BinaryWord, *, cross_validate: bool = True) -> DepthReport:
    """Deepest cusp excursion over the conjugacy class of w.

    Candidates are the matrices of all rotations of w together with their
    conjugates swapping the two cusp-fixing parabolics; the apex is the
    largest axis height among them and the depth its log.  A bounded
    conjugation search cross-validates that no explored conjugate beats the
    candidate set; disagreement is reported via ``cross_check_ok``, never
    silently resolved.
    """
    base = encode(w)
    if base.trace_abs <= 2:
        raise ValueError(f"word is not hyperbolic: {w}")
    candidates = _rotation_candidates(w, _quad(base))
    # hyperbolic integer matrices never have b or c zero, so every candidate
    # contributes a finite axis
    min_c = min(abs(M[2]) for M in candidates)
    tr = base.trace_abs
    apex = math.sqrt(tr * tr - 4) / (2 * min_c)
    winding = math.isqrt(tr * tr - 4) // min_c

    ok: Optional[bool] = None
    if cross_validate:
        entry_cap = 4 * max(max(map(abs, M)) for M in candidates) + 8
        found, _ = _bfs_min_c(candidates, entry_cap, node_cap=10000)
        ok = found >= min_c

    return DepthReport(
        word=w,
        trace_abs=tr,
        geo_length=geodesic_length(base),
        max_run=max_cyclic_run(w),
        apex=apex,
        depth=math.log(apex),
        winding_bracket=(winding, winding + 1),
        cross_check_ok=ok,
    )


@dataclass(frozen=True)
class AuditRow:
    """One hyperbolic class scored against both candidate depth brackets."""

    word: str
    tau: int
    max_run: int
    trace_abs: int
    length: float
    apex: float
    depth: float
    paper_bracket_hit: bool
    shifted_bracket_hit: bool
    boundary_flag: bool
    widened_hit: bool
    cross_check_ok: Optional[bool]


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]
    summary: dict


def _bracket_hit(depth: float, lo: float, hi: float) -> tuple[bool, bool]:
    # (strict hit with margin, boundary flag)
    near_edge = abs(depth - lo) <= _EDGE_MARGIN or abs(depth - hi) <= _EDGE_MARGIN
    return lo + _EDGE_MARGIN < depth < hi - _EDGE_MARGIN, near_edge


def _audit_row(w: BinaryWord, cross_validate: bool) -> AuditRow:
    report = max_depth(w, cross_validate=cross_validate)
    k = report.max_run
    paper_hit, edge1 = _bracket_hit(
        report.depth, math.log(k / 2), math.log((k + 1) / 2)
    )
    shifted_hit, edge2 = _bracket_hit(
        report.depth, math.log((k + 1) / 2), math.log((k + 2) / 2)
    )
    widened = (
        math.log(k / 2) - _EDGE_MARGIN
        < report.depth
        < math.log((k + 2) / 2) + _EDGE_MARGIN
    )
    return AuditRow(
        word=str(w),
        tau=w.length,
        max_run=k,
        trace_abs=report.trace_abs,
        length=report.geo_length,
        apex=report.apex,
        depth=report.depth,
        paper_bracket_hit=paper_hit,
        shifted_bracket_hit=shifted_hit,
        boundary_flag=edge1 or edge2,
        widened_hit=widened,
        cross_check_ok=report.cross_check_ok,
    )


def audit_lemma71(tau_max: int, *, cross_validate: bool = True) -> AuditReport:
    """Measure where every hyperbolic class's depth falls relative to its run.

    For each class with at most tau_max entries and largest cyclic run k, the
    depth from ``max_depth`` is scored against the bracket
    (log(k/2), log((k+1)/2)) and against the same bracket shifted up by one
    unit of k.  This is a measurement command: it tabulates and never asserts
    which bracket ought to win.  Rows come in class order.
    """
    if tau_max < 2:
        raise ValueError("tau_max must be >= 2")
    rows = [
        _audit_row(w, cross_validate)
        for tau in range(1, tau_max + 1)
        for w in classes(tau, hyperbolic=True)
    ]

    by_run: dict[int, dict[str, int]] = {}
    for row in rows:
        slot = by_run.setdefault(
            row.max_run, {"paper": 0, "shifted": 0, "neither": 0}
        )
        if row.paper_bracket_hit:
            slot["paper"] += 1
        elif row.shifted_bracket_hit:
            slot["shifted"] += 1
        else:
            slot["neither"] += 1
    total = len(rows)
    summary = {
        "classes": total,
        "paper_bracket_hits": sum(r.paper_bracket_hit for r in rows),
        "shifted_bracket_hits": sum(r.shifted_bracket_hit for r in rows),
        "widened_hits": sum(r.widened_hit for r in rows),
        "boundary_flags": sum(r.boundary_flag for r in rows),
        "cross_check_failures": sum(r.cross_check_ok is False for r in rows),
        "by_max_run": {k: by_run[k] for k in sorted(by_run)},
    }
    return AuditReport(rows=tuple(rows), summary=summary)
