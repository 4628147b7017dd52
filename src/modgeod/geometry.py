"""Integer matrix representation of sign words and cusp-excursion depths.

A sign entry +1 maps to the parabolic product GEN_A * GEN_B and -1 to
GEN_A * GEN_B^-1; the second of these is the unit translation fixing the cusp
at infinity, the first is its conjugate fixing 0.  Matrix arithmetic is exact,
on ``(a, b, c, d)`` tuples a sign run at a time: n letters -1 are
[[1,-n],[0,1]], n letters +1 are (-1)^n [[1,0],[-n,1]].  Floats enter only
via lengths, apex heights and depths.

Depth convention: the axis of a hyperbolic [[a,b],[c,d]] is the half-circle
over its real fixed points, with apex height sqrt(trace^2-4)/(2|c|); the depth
past the length-one horocycle is log of that apex.  The deepest excursion is
set by the smallest |c| over the rotations of the word and their conjugates
by A, which turns c into -b, so by the smallest |b| or |c| over the rotations.
Only rotations starting at a run boundary are needed: conjugated by
diag(1,-1), which keeps |b| and |c|, a rotation is up to sign a product of
R = [[1,1],[0,1]] and [[1,0],[1,1]].  So inside a -1 run of n letters the
rotations read R^(n-k) Q R^k, Q = [[p,q],[u,v]] >= 0: the c-entry u is fixed
and the b-entry q + (n-k)v + kp + k(n-k)u is concave in k, so least at
k = 0 or n.  Inside a +1 run, swap b and c.  ``max_depth`` checks the minimum
against the reduced cycle of the form (c, d - a, -b) (Buchmann and Vollmer,
*Binary Quadratic Forms*, 2007, ch. 6), ``verify`` against ``_bfs_min_c``.

The bracket audit's rows are these ``max_depth`` reports, one per class; the
rule that scores a depth against its run's bracket lives on ``DepthReport``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .binwords import BinaryWord, _run_lengths_bits, max_cyclic_run
from .enumeration import ContractViolationError, classes

__all__ = [
    "ProjectiveMatrix",
    "DepthReport",
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


def _runs(w: BinaryWord) -> tuple[bool, list[int]]:
    """Whether w starts with +1, and its linear run lengths, first to last."""
    t = w.length
    return bool(w.bits >> (t - 1)), _run_lengths_bits(w.bits, t)


def _run_product(plus: bool, runs: list[int]) -> Quad:
    """Product of the run matrices given by ``_runs``, unchecked and up to sign."""
    a, b, c, d = 1, 0, 0, 1
    for n in runs:
        if plus:
            a, c = a - n * b, c - n * d
        else:
            b, d = b - n * a, d - n * c
        plus = not plus
    return a, b, c, d


def encode(w: BinaryWord) -> ProjectiveMatrix:
    """Ordered product of the letter matrices of w; exact integers.

    Multiplicative on concatenation of words.
    """
    return ProjectiveMatrix(*_run_product(*_runs(w)))


def classify(M: ProjectiveMatrix) -> str:
    """'elliptic', 'parabolic' or 'hyperbolic' by absolute trace vs 2."""
    if M.trace_abs < 2:
        return "elliptic"
    if M.trace_abs == 2:
        return "parabolic"
    return "hyperbolic"


def geodesic_length(M: ProjectiveMatrix) -> float:
    """Translation length 2*arccosh(|trace|/2); hyperbolic matrices only."""
    tr = M.trace_abs
    if tr <= 2:
        raise ValueError(f"geodesic length needs |trace| > 2, got {tr}")
    # past a double's range, arccosh(x) = log(2x) to within its resolution
    return 2.0 * (math.acosh(tr / 2.0) if tr.bit_length() < 1024 else math.log(tr))


def _apex(tr: int, c: int) -> float:
    """sqrt(tr^2 - 4) / (2|c|) for c != 0; past a double's range, from the quotient."""
    D = tr * tr - 4
    return math.sqrt(D) / (2 * abs(c)) if D.bit_length() < 1024 else math.sqrt(D / (4 * c * c))


def apex_height(M: ProjectiveMatrix) -> float:
    """Apex of the axis half-circle: half the gap between real fixed points.

    Equals sqrt(trace^2 - 4) / (2|c|); undefined for c == 0 (vertical axis
    through infinity) or non-hyperbolic input.
    """
    if M.trace_abs <= 2:
        raise ValueError("apex height needs a hyperbolic matrix")
    if M.c == 0:
        raise ValueError("axis passes through infinity (c == 0)")
    return _apex(M.trace_abs, M.c)


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
    """Per-word geometric summary of the deepest cusp excursion.

    ``winding_bracket`` is (floor(L), floor(L) + 1) for L = 2 * apex =
    sqrt(trace^2 - 4) / min|c|, computed in integers.  ``cross_check_ok`` is
    True when the run walk's min|c| equals the reduced-cycle minimum, which
    ``max_depth`` always computes, and False when the two disagree.
    """

    word: BinaryWord
    trace_abs: int
    geo_length: float
    max_run: int
    apex: float
    depth: float
    winding_bracket: tuple[int, int]
    cross_check_ok: bool

    # The depth brackets of ``audit_lemma71``, for k = max_run: the paper's
    # (log(k/2), log((k+1)/2)), the one shifted up a unit of k, and their
    # union.  depth = log(L/2) for the irrational L = sqrt(D)/min|c|, so each
    # bracket test is exact on the lower winding bound
    # floor(L) = isqrt(D) // min|c|.

    @property
    def paper_bracket_hit(self) -> bool:
        return self.winding_bracket[0] == self.max_run

    @property
    def shifted_bracket_hit(self) -> bool:
        return self.winding_bracket[0] == self.max_run + 1

    @property
    def widened_hit(self) -> bool:
        return self.max_run <= self.winding_bracket[0] <= self.max_run + 1


def _boundary_rotations(base: Quad, plus: bool, runs: list[int]) -> list[Quad]:
    """Matrices of the rotations starting at each linear run, signs as they fall.

    ``base`` is the word's matrix and ``plus, runs`` its ``_runs``.  Each step
    is L^-1 M L in closed form, for L a run matrix.  The first rotation may
    start inside a cyclic run (first and last runs of one sign); harmless.
    """
    a, b, c, d = base
    out = [base]
    for n in runs[:-1]:
        if plus:
            a, c, d = a - n * b, c - n * (d - a) - n * n * b, d + n * b
        else:
            a, b, d = a + n * c, b - n * (a - d) - n * n * c, d - n * c
        out.append((a, b, c, d))
        plus = not plus
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


def _rho(A: int, B: int, C: int, s: int) -> tuple[int, int, int]:
    """The normalised step (A, B, C) -> (C, r, A - q(B - qC)) of a form of discriminant D.

    s = isqrt(D).  r = 2Cq - B, so r = -B mod 2|C|, taken in
    (sqrt(D) - 2|C|, sqrt(D)] when |C| < sqrt(D) and in (-|C|, |C|] otherwise;
    the new form is properly equivalent to the old one, of discriminant D.
    One divmod gives r and the small quotient q, so no step divides by C with
    a long quotient.
    """
    n = 2 * abs(C)
    if abs(C) <= s:
        k, r = divmod(s + B, n)
        r = s - r
    else:
        k, r = divmod(-B, n)
        k = -k
        if r > abs(C):
            r, k = r - n, k - 1
    q = k if C > 0 else -k
    return C, r, A - q * (B - q * C)


def _reduced_cycle_min_c(M: Quad, length: int) -> int:
    """Smallest |c| over the conjugacy class of a hyperbolic M; exact.

    Conjugation acts on the fixed-point form Q = (c, d - a, -b) of
    M = [[a,b],[c,d]], of discriminant D = trace^2 - 4, by a proper change of
    variables, so the smallest |c| over the class is the smallest |Q| on
    primitive vectors.  That minimum is below sqrt(D)/2 (Markov), so it is
    the smallest |leading coefficient| in the cycle of reduced forms
    equivalent to Q (Buchmann and Vollmer, *Binary Quadratic Forms*, 2007,
    ch. 6).  ``_rho`` reduces Q until |sqrt(D) - 2|A|| < B < sqrt(D), then
    walks the cycle back to its first reduced form.  D is not a square, so
    every comparison with sqrt(D) is an integer one with isqrt(D).

    ``length`` is the number of letters M is a product of.  The cycle has at
    most one form per cyclic sign run, so at most ``length`` forms, and the
    reduction takes O(1 + log(|c| / sqrt(D))) steps; a walk longer than
    ``length + D.bit_length()`` steps, or one that reaches a zero coefficient,
    raises ContractViolationError.
    Raises ValueError unless M has determinant one and |trace| > 2, which
    also rules out a square D.
    """
    a, b, c, d = _canonical(*M)
    if abs(a + d) <= 2:
        raise ValueError(f"reduced cycle needs |trace| > 2: [[{a},{b}],[{c},{d}]]")
    D = (a + d) ** 2 - 4
    s = math.isqrt(D)
    form = (c, d - a, -b)
    first = None
    for _ in range(length + D.bit_length() + 1):
        A, B, C = form
        if not C:  # a step went wrong: (A, B, 0) has the square discriminant B^2
            break
        if first is None:
            if 0 < B <= s < 2 * abs(A) + B and 2 * abs(A) - B <= s:
                first, best = form, abs(A)
        elif form == first:
            return best
        else:
            best = min(best, abs(A))
        form = _rho(A, B, C, s)
    raise ContractViolationError(
        f"reduced cycle of [[{a},{b}],[{c},{d}]] not closed within "
        f"{length + D.bit_length()} steps"
    )


def max_depth(w: BinaryWord) -> DepthReport:
    """Deepest cusp excursion over the conjugacy class of w.

    The apex is set by the smallest |b| or |c| over the rotations of w that
    start at a run boundary (the module docstring says why no other conjugate
    goes lower).  That minimum is always compared with the exact
    ``_reduced_cycle_min_c``, which shares no code with the run walk;
    disagreement is reported via ``cross_check_ok``, never silently resolved.
    """
    plus, runs = _runs(w)
    base = ProjectiveMatrix(*_run_product(plus, runs))
    if base.trace_abs <= 2:
        raise ValueError(f"word is not hyperbolic: {w}")
    quad = _quad(base)
    # a hyperbolic integer matrix has b and c nonzero
    min_c = min(min(abs(b), abs(c)) for _, b, c, _ in _boundary_rotations(quad, plus, runs))
    tr = base.trace_abs
    apex = _apex(tr, min_c)
    winding = math.isqrt(tr * tr - 4) // min_c
    # two runs or more; with an odd count the first and last join cyclically
    max_run = max(runs[0] + runs[-1] if len(runs) % 2 else 0, *runs)

    return DepthReport(
        word=w,
        trace_abs=tr,
        geo_length=geodesic_length(base),
        max_run=max_run,
        apex=apex,
        depth=math.log(apex),
        winding_bracket=(winding, winding + 1),
        cross_check_ok=_reduced_cycle_min_c(quad, w.length) == min_c,
    )


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[DepthReport, ...]
    summary: dict


def audit_lemma71(tau_max: int) -> AuditReport:
    """Measure where every hyperbolic class's depth falls relative to its run.

    The rows are the ``max_depth`` reports of the classes with at most
    tau_max entries, in class order, and the summary tallies their bracket
    properties: for largest cyclic run k, the paper's bracket
    (log(k/2), log((k+1)/2)) and the same bracket shifted up by one unit of
    k.  This is a measurement command: it tabulates and never asserts which
    bracket ought to win.
    """
    if tau_max < 2:
        raise ValueError("tau_max must be >= 2")
    rows = [max_depth(w) for tau in range(1, tau_max + 1) for w in classes(tau, hyperbolic=True)]

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
        "cross_check_failures": sum(not r.cross_check_ok for r in rows),
        "by_max_run": {k: by_run[k] for k in sorted(by_run)},
    }
    return AuditReport(rows=tuple(rows), summary=summary)
