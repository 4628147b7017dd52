"""Exact counters for rotation classes of sign words and their subfamilies.

Length bookkeeping used throughout: ``tau`` counts sign entries, so the group
word length is 2*tau.  Reciprocal (half-turn) families are parameterised by
``t`` with 2t sign entries, i.e. group length 4t.

Every count is an exact Python integer; floating point only appears in the
growth-target formulas and in the float views of the root data.  No count is
cached; the one cache holds ``alpha``.  Lengths past ``_MAX_SIZE`` = 10^7
are refused.  A run bound m is read by ``_run_bound``, at any size: one below
1 is refused, and one of at least the length bounds nothing, so that
``count("lowlying", 5, m=10**8)`` is the 8 classes of 5 entries.

Every family is one of two kinds, whole or with a run bound m (the low-lying
families; a bound of at least the length bounds nothing), and counts from its
totals by length:

- orbit families, ``classes`` and ``lowlying``, count rotation classes of
  words.  The totals are the words of d entries, 2^d, or with m the
  non-constant ones with cyclic runs at most m, W(d).  The count at n is one
  Burnside step over the totals at the divisors of n, ``_orbit_count``.
- power families, ``reciprocal``, ``compositions`` and ``lowlying-reciprocal``,
  count reciprocal classes of group length 4t, one per composition of t
  (parts at most m).  The totals, 2^(t-1) or c_t, are the counts themselves.

Every class is the power of exactly one primitive class, of a length dividing
its own, with the runs of that root unless it is constant.  So a primitive
count is one Mobius step over the totals, ``_mobius_sum``.  A constant word of
n entries is one run of length n, so W leaves out the two constant classes: a
bounded orbit family counts them while n <= m, and as primitive classes only
at n = 1.  The totals with m are linear recurrences (Flajolet-Sedgewick,
*Analytic Combinatorics* I.2 and IV.1), one step per length: c_0 = c_1 = 1
and c_k = 2 c_(k-1) - c_(k-1-m) with c_j = 0 for j < 0, from
1 / (1 - z - ... - z^m); W(d) = p_d + q_d with p_0 = m,
p_d = p_(d-1) + ... + p_(d-min(m,d-1)) + d [d <= m] (power sums of the roots of
z^m - z^(m-1) - ... - 1) and q_d = m if m + 1 divides d, else -1.

``count`` takes one step on the totals at the divisors of t, from their
closed forms when m is None or m >= t; ``count_series`` takes the steps along
the totals.  ``cumulative`` sums the first T counts by one route per kind,
over a Mobius sieve up to T built per call in 2T + 2 bytes where it needs one
(Dirichlet's hyperbola method; Apostol, *Introduction to Analytic Number
Theory*, 3.5):

- power: the primitive total, sum over n <= T of sum over d | n of
  mu(n/d) f(d), is sum over k <= T of mu(k) F(T // k), F(x) = f(1) + ... + f(x).
  The at most 2 sqrt(T) runs of k sharing T // k weigh F by the sum of mu over
  them, a difference of two Mertens values; the whole total is F(T).  F(x) is
  2^x - 1, or with m the running sum of the totals.
- orbit: the primitive counts P(n), n = 1..T, take their Mobius sums from the
  squarefree divisors the sieve marks, and the primitive total is their sum.
  A primitive class of length d has T // d powers up to T, so the classes up
  to T number sum over j <= T of P(1) + ... + P(T // j), plus 2 min(T, m)
  constant ones when bounded.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional

__all__ = [
    "AlphaData",
    "PrecisionLimitError",
    "necklace_count",
    "primitive_class_count",
    "reciprocal_count",
    "count",
    "count_series",
    "cumulative",
    "bounded_compositions",
    "alpha",
    "closed_form_compositions",
    "lowlying_lower_bound",
    "growth_target",
    "rnd",
]

# x = d * alpha^t from which ``closed_form_compositions`` refuses: a
# conservative margin on the root's bracket error, 2^-(m+130), which moves the
# exact x by at most about x * t * 2^-(m+130), far below 1/2 while x < 2^52
_ROUND_CEILING = 1 << 52


# the largest length any counter or generator takes: a cumulative count
# sieves two tables of about this many bytes, and past it most routes would
# run for hours or exhaust memory before they answer
_MAX_SIZE = 10**7


class PrecisionLimitError(ValueError):
    """Raised instead of silently returning an untrustworthy rounded integer."""


def _check_size(name: str, n: int, least: int = 1) -> None:
    # a length or run bound below ``least``, or past _MAX_SIZE
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    if n > _MAX_SIZE:
        raise ValueError(f"{name} must be <= {_MAX_SIZE}")


def _run_bound(name: str, m: Optional[int], t: Optional[int]) -> Optional[int]:
    # a run bound m at length t: one below 1 is refused, and one that bounds
    # nothing there, None or at least t, is None; a series has no t
    if m is None:
        return None
    if m < 1:
        raise ValueError(f"{name} must be >= 1")
    return m if t is None or m < t else None


def _factorise(n: int) -> list[tuple[int, int]]:
    # (prime, exponent) pairs of n >= 1, by trial division
    factors = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        if k:
            factors.append((p, k))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def _mobius_sum(n: int, f: Callable[[int], int]) -> int:
    """Sum of mu(e) * f(n/e) over the divisors e of n.

    mu vanishes off the squarefree divisors, so each prime of n splits the
    quotients n/e by the sign of mu(e): one term per squarefree divisor, at
    most 16 for n <= 2000.  When f(n) sums g(d) over the divisors d of n, the
    result is g(n): the primitive part of a per-length total.
    """
    plus, minus = [n], []
    for p, _ in _factorise(n):
        plus, minus = plus + [d // p for d in minus], minus + [d // p for d in plus]
    return sum(map(f, plus)) - sum(map(f, minus))


def _orbit_count(n: int, fixed: Callable[[int], int], primitive: bool = False) -> int:
    # rotation classes of a shift-closed set of n-entry words with fixed(d) words of
    # period d, those the shifts of gcd d fix; ``primitive`` keeps least period n
    if primitive:
        total = _mobius_sum(n, fixed)
    else:
        terms = [(n, 1)]  # (n/e, phi(e)) for the divisors e of n, built prime by prime
        for p, k in _factorise(n):
            step, factor = terms, p - 1  # phi(e p^j) = phi(e) (p - 1) p^(j-1)
            for _ in range(k):
                step = [(d // p, phi * factor) for d, phi in step]
                terms, factor = terms + step, p
        total = sum(phi * fixed(d) for d, phi in terms)
    return _orbit_quotient(total, n)


def _orbit_quotient(total: int, n: int) -> int:
    # Burnside's sum over the n shifts, divided by the group order; a remainder
    # means a faulty sum
    count, rem = divmod(total, n)
    if rem:
        raise ArithmeticError(f"orbit-count sum {total} is not divisible by the group order {n}")
    return count


# ---------------------------------------------------------------------------
# the two kinds of family: one argument check, one per-length step, one series

# number of torsion conjugacy classes of group-word length one
_TORSION_CLASSES = 3

_FORMULA_FAMILIES = ("classes", "reciprocal", "lowlying", "lowlying-reciprocal", "compositions")


def _kind(family: str, m: Optional[int], primitive: bool, t: Optional[int] = None) -> tuple:
    # check one family's arguments; return whether it is an orbit family, and
    # its run bound, None if it has none or if it bounds nothing at length t
    if m is not None and family in ("classes", "reciprocal"):
        # true of the command line's family names too
        raise ValueError("a run bound m is only for lowlying, lowlying-reciprocal, compositions")
    if family not in _FORMULA_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {_FORMULA_FAMILIES}")
    if primitive and family == "compositions":
        raise ValueError(f"primitive counts are not defined for family {family!r}")
    if m is None and family in ("lowlying", "lowlying-reciprocal"):
        raise ValueError(f"family {family!r} needs the run bound m")
    return family in ("classes", "lowlying"), _run_bound("run bound m", m, t)


def _totals(orbit: bool, m: Optional[int]) -> Iterator[int]:
    # a family's totals at lengths 1, 2, ... (module docstring)
    if m is None:
        return map((1).__lshift__, itertools.count(1 if orbit else 0))
    return _run_bounded_words(m) if orbit else _composition_series(m)


def _count_at(t: int, orbit: bool, m: Optional[int], primitive: bool, total=None) -> int:
    # the one per-length step: the count at t from a family's totals at the
    # divisors of t, drawn here unless given, from their closed forms when m is
    # None; a bounded orbit family adds its constant classes (module docstring)
    if total is None and m is None:
        total = (1).__lshift__ if orbit else lambda d: 1 << (d - 1)
    elif total is None and not (orbit or primitive):
        return next(itertools.islice(_totals(orbit, m), t - 1, None))  # the total at t
    elif total is None:
        drawn = enumerate(itertools.islice(_totals(orbit, m), t), 1)
        total = {d: w for d, w in drawn if t % d == 0}.__getitem__
    if not orbit:
        return _mobius_sum(t, total) if primitive else total(t)
    # the constant words of t entries are in when m bounds nothing at t
    constants = m is not None and _run_bound("run bound m", m, t) is None
    return _orbit_count(t, total, primitive) + 2 * (constants and (t == 1 or not primitive))


def necklace_count(tau: int) -> int:
    """Number of rotation classes of sign words with tau entries.

    Orbit counting for the cyclic shift action, with the shifts grouped by
    d = gcd(shift, tau): (1/tau) * sum over d | tau of phi(tau/d) * 2**d.
    """
    _check_size("tau", tau)
    return _count_at(tau, True, None, False)


def primitive_class_count(tau: int) -> int:
    """Rotation classes with tau entries that are not proper powers.

    Length 1 counts too: both one-entry classes are infinite order as group words.
    """
    _check_size("tau", tau)
    return _count_at(tau, True, None, True)


def reciprocal_count(t: int, primitive: bool = False) -> int:
    """Reciprocal classes of group length 4t: 2**(t-1), or the primitive part.

    Every reciprocal class at t is the t/d-th power of one primitive class at
    a divisor d of t, so the primitive part is ``_mobius_sum`` over 2**(d-1).
    """
    _check_size("t", t)
    return _count_at(t, False, None, primitive)


def bounded_compositions(t: int, m: Optional[int]) -> int:
    """Number of compositions of t with every part at most m.

    Conventions: one empty composition of 0, none of negative totals.  For
    m None or m >= t >= 1 this is all 2**(t-1) compositions.  Costs O(t)
    big-integer steps with at most m + 1 values live.
    """
    m = _run_bound("part bound m", m, t)
    if t < 0:
        return 0
    if t == 0:
        return 1
    _check_size("t", t)
    return _count_at(t, False, m, False)


def count(family: str, t: int, *, m: Optional[int] = None, primitive: bool = False) -> int:
    """Exact count of one formula-backed family at length t.

    ``classes`` counts rotation classes with t entries and ``reciprocal`` the
    reciprocal classes of group length 4t; both refuse m.  ``lowlying`` keeps the
    classes with cyclic runs at most m; by the bijection ``lowlying-reciprocal`` (runs
    at most m) and ``compositions`` (parts at most m) are the same count, and only
    ``compositions`` may omit m, counting all 2**(t-1) compositions.  ``primitive``
    drops proper powers; ``compositions`` refuses it.
    """
    _check_size("t", t)
    orbit, m = _kind(family, m, primitive, t)
    return _count_at(t, orbit, m, primitive)


def count_series(family: str, *, m: Optional[int] = None, primitive: bool = False) -> Iterator[int]:
    """Yield ``count(family, t, m=m, primitive=primitive)`` for t = 1, 2, ... .

    The arguments are checked before the first term.  With m each term is one
    recurrence step and one step on the totals drawn so far, which a power
    family yields as they are; without m each term is one ``count``.
    """
    orbit, m = _kind(family, m, primitive)
    if m is None:
        return (_count_at(n, orbit, None, primitive) for n in itertools.count(1))
    if not (orbit or primitive):
        return _totals(orbit, m)
    return _bounded_series(orbit, m, primitive)


def _bounded_series(orbit: bool, m: int, primitive: bool) -> Iterator[int]:
    held = [0]  # the totals drawn so far: the divisors of every later length
    for n, total in enumerate(_totals(orbit, m), 1):
        held.append(total)
        yield _count_at(n, orbit, m, primitive, held.__getitem__)


# ---------------------------------------------------------------------------
# cumulative counts: one sieved route per kind

def cumulative(
    family: str,
    t_max: int,
    *,
    m: Optional[int] = None,
    primitive: bool = False,
    include_torsion: bool = False,
) -> int:
    """Sum of ``count`` over lengths 1..t_max, the first t_max terms of ``count_series``.

    ``classes`` may add the 3 torsion classes of group length one.  The sum takes
    one route per kind (module docstring): a power family's is O(sqrt(t_max))
    big-integer terms, or one recurrence step per length with m; an orbit
    family's is one Mobius sum per length plus O(sqrt(t_max)) products.
    """
    _check_size("t_max", t_max)
    if include_torsion and (family != "classes" or primitive):
        raise ValueError("torsion classes add only to the non-primitive classes family")
    orbit, m = _kind(family, m, primitive, t_max)
    route = _cumulative_orbit if orbit else _cumulative_power
    return route(t_max, m, primitive) + (_TORSION_CLASSES if include_torsion else 0)


def _mobius_sieve(n: int) -> memoryview:
    # mu(0), ..., mu(n) as signed bytes, mu(0) = 0: a prime table by
    # Eratosthenes, then each prime negates mu at its multiples and zeroes it
    # at the multiples of its square; 2n + 2 bytes and no list of n ints
    prime = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    negate = bytes.maketrans(b"\x01\xff", b"\xff\x01")
    mu = bytearray([0]) + bytearray([1]) * n
    for p in itertools.compress(range(n + 1), prime):
        mu[p::p] = mu[p::p].translate(negate)
        if p * p <= n:
            mu[p * p :: p * p] = bytes(len(range(p * p, n + 1, p * p)))
    return memoryview(mu).cast("b")


def _quotient_blocks(n: int) -> Iterator[tuple[int, int, int]]:
    # (lo, hi, n // lo) for the maximal runs lo..hi of k <= n that share n // k,
    # at most 2 sqrt(n) of them, in increasing k
    lo = 1
    while lo <= n:
        q = n // lo
        hi = n // q
        yield lo, hi, q
        lo = hi + 1


def _weighted_prefix_sums(weights: dict[int, int], terms: Iterator[int]) -> int:
    # sum of weights[x] * (terms[1] + ... + terms[x]) over the keys x of
    # ``weights``, drawing max(weights) terms and keeping only their running sum
    total = running = 0
    for x, term in zip(range(1, max(weights) + 1), terms):
        running += term
        if x in weights:
            total += weights[x] * running
    return total


def _cumulative_power(t_max: int, m: Optional[int], primitive: bool) -> int:
    # sum over k <= t_max of mu(k) F(t_max // k), F the running sum of the totals,
    # a run of k sharing t_max // k weighted by its sum of mu; or all of F(t_max)
    weights = {t_max: 1}
    if primitive:
        mu = _mobius_sieve(t_max)
        weights = {q: sum(mu[lo : hi + 1]) for lo, hi, q in _quotient_blocks(t_max)}
    if m is None:
        # F(x) = 2^x - 1, smallest terms first, so that each addition costs the
        # larger term's size
        return sum(w * ((1 << q) - 1) for q, w in reversed(weights.items()))
    return _weighted_prefix_sums(weights, _totals(False, m))


def _cumulative_orbit(t_max: int, m: Optional[int], primitive: bool) -> int:
    # the primitive counts summed, or sum over j of P(1) + ... + P(t_max // j);
    # with m the constant classes too, of m < t_max lengths (_kind)
    weights = {t_max: 1}
    if not primitive:
        weights = {q: hi - lo + 1 for lo, hi, q in _quotient_blocks(t_max)}
    total = _weighted_prefix_sums(weights, _primitive_class_counts(t_max, m))
    return total if m is None else total + 2 * (1 if primitive else m)


# lengths whose signed-quotient lists ``_primitive_class_counts`` holds at once
_SEGMENT = 1 << 14


def _primitive_class_counts(t_max: int, m: Optional[int] = None) -> Iterator[int]:
    # P(n) for n = 1..t_max, (1/n) * sum over squarefree e | n of mu(e) total(n/e)
    # over an orbit family's totals.  Each squarefree e > 1 of the sieve files
    # the quotient j of each multiple n = e*j under its sign, a segment of
    # lengths at a time, so no length is factorised and the lists stay
    # O(_SEGMENT log t_max).  Those quotients are at most t_max // 2, so W is
    # held only that far (2^d is a shift) and each length's own total, e = 1,
    # comes from a second pass over the totals.
    mu = _mobius_sieve(t_max)
    total = (1).__lshift__
    if m is not None:
        total = [0, *itertools.islice(_totals(True, m), t_max // 2)].__getitem__
    own = _totals(True, m)
    for lo in range(1, t_max + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, t_max + 1)
        plus: list[list[int]] = [[] for _ in range(lo, hi)]
        minus: list[list[int]] = [[] for _ in range(lo, hi)]
        for e in itertools.compress(range(2, hi), mu[2:hi]):
            quotients = plus if mu[e] > 0 else minus
            for j in range(-(-lo // e), (hi - 1) // e + 1):
                quotients[e * j - lo].append(j)
        for n, first, up, down in zip(range(lo, hi), own, plus, minus):
            yield _orbit_quotient(first + sum(map(total, up)) - sum(map(total, down)), n)


# ---------------------------------------------------------------------------
# bounded compositions and bounded-run words

def _composition_series(m: int) -> Iterator[int]:
    # c_1, c_2, ... by c_k = 2 c_(k-1) - c_(k-1-m).  ``window`` holds
    # c_(k-1-m) .. c_(k-1) once k > m, and the c_0 .. c_(k-1) before, the
    # missing terms being zero.  It is trimmed by hand rather than by
    # ``maxlen``, which must fit a C ssize_t while m is any positive int.
    window = deque([1, 1])  # c_0, c_1
    yield 1
    while True:
        c = 2 * window[-1] - (window.popleft() if len(window) > m else 0)
        window.append(c)
        yield c


def _run_bounded_words(m: int) -> Iterator[int]:
    # W(1), W(2), ... (module docstring); ``window`` holds the last min(m, d - 1)
    # p's and ``total`` their sum, trimmed by hand as in ``_composition_series``
    window, total = deque(), 0
    for d in itertools.count(1):
        p = total + (d if d <= m else 0)
        window.append(p)
        total += p - (window.popleft() if len(window) > m else 0)
        yield p + (m if d % (m + 1) == 0 else -1)


# ---------------------------------------------------------------------------
# growth-rate root and closed form

@dataclass(frozen=True)
class AlphaData:
    """Positive root of z^m - z^(m-1) - ... - z - 1 with derived coefficient.

    ``alpha_exact`` and ``d_exact`` are rational approximants sharp enough
    that the exact residual is far below the 1e-12 contract; ``alpha``, ``d``
    and ``residual`` are their float views.
    """

    m: int
    alpha: float
    d: float
    residual: float
    alpha_exact: Fraction
    d_exact: Fraction

    def __post_init__(self) -> None:
        lower = 2 * (1 - Fraction(1, 1 << self.m))
        if not lower <= self.alpha_exact < 2:
            raise ValueError("root escaped its bracket")
        if abs(self.residual) >= 1e-12:
            raise ValueError("root residual above tolerance")
        if self.d_exact <= 0:
            raise ValueError("closed-form coefficient must be positive")


def _run_polynomial(z: Fraction, m: int) -> Fraction:
    # z^m - z^(m-1) - ... - z - 1, via the equivalent quotient
    # (z^(m+1) - 2 z^m + 1) / (z - 1); exact for rational z != 1
    return (z ** (m + 1) - 2 * z ** m + 1) / (z - 1)


@lru_cache(maxsize=None)
def _alpha_cached(m: int) -> AlphaData:
    # the bracket [2(1 - 2^-m), 2] as dyadic integers lo = a / 2^s, hi = b / 2^s
    s = m - 1
    a, b = (1 << m) - 1, 1 << m

    def negative(x: int, k: int) -> bool:
        # z^(m+1) - 2 z^m + 1 < 0 at z = x / 2^k, times 2^(k(m+1)):
        # x^(m+1) - (x^m << (k+1)) + 2^(k(m+1)) < 0; the polynomial shares
        # the root's sign for z > 1
        p = x**m
        return p * x - (p << (k + 1)) + (1 << (k * (m + 1))) < 0

    if not negative(a, s):
        raise ArithmeticError(
            f"[{Fraction(a, 1 << s)}, 2] does not bracket the growth root for m={m}"
        )

    # enough halvings to pin the exact residual orders of magnitude below
    # 1e-12 even at m = 40
    for _ in range(130):
        # the midpoint (a + b) / 2^(s+1), with the bracket rescaled to 2^(s+1)
        s += 1
        mid = a + b
        if negative(mid, s):
            a, b = mid, b << 1
        else:
            a, b = a << 1, mid

    root = Fraction(a + b, 1 << (s + 1))
    d_exact = (root - 1) / (2 + (m + 1) * (root - 2))
    return AlphaData(
        m=m,
        alpha=float(root),
        d=float(d_exact),
        residual=float(_run_polynomial(root, m)),
        alpha_exact=root,
        d_exact=d_exact,
    )


# the largest run bound ``alpha`` takes: each of its 130 bisection
# steps raises a numerator of more than m bits to the m-th power, so a root
# costs about m^3, about 1 s at this m
_ALPHA_MAX_M = 512


def alpha(m: int) -> AlphaData:
    """Bisect for the unique positive root of z^m - z^(m-1) - ... - 1.

    Deterministic bisection on the bracket [2(1 - 2^-m), 2], halved 130
    times, exact on dyadic rationals held as integer numerators over a power
    of two; no floating-point transcendentals are involved.  m runs from 2
    to ``_ALPHA_MAX_M`` = 512; a larger m is refused before any work.
    """
    _check_size("m", m, 2)
    if m > _ALPHA_MAX_M:
        raise ValueError(
            f"m must be <= {_ALPHA_MAX_M} for the growth root alpha(m), whose cost grows as m^3"
        )
    return _alpha_cached(m)


def rnd(x) -> int:
    """Round half up: floor(x + 1/2).  Exact on Fractions."""
    if isinstance(x, Fraction):
        return math.floor(x + Fraction(1, 2))
    return math.floor(x + 0.5)


def closed_form_compositions(t: int, m: int) -> int:
    """Bounded-composition count via the rounded growth formula rnd(d * alpha^t).

    Exact on ``d_exact`` and ``alpha_exact``, so it agrees with
    ``bounded_compositions`` wherever it answers; refuses with
    ``PrecisionLimitError`` once d * alpha^t reaches the margin 2**52.  The
    recursion remains the authority beyond that point.  A t whose float
    estimate of log2(d * alpha^t) is already 53 or more is refused before the
    exact power, which costs seconds from t of about 10^5, is built.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if t < 0:
        raise ValueError("t must be >= 0")
    data = alpha(m)
    # t is clamped so that the float product cannot overflow; the estimate
    # passes 53 long before t reaches _MAX_SIZE
    if min(t, _MAX_SIZE) * math.log2(data.alpha) + math.log2(data.d) < 53:
        x = data.d_exact * data.alpha_exact ** t
        if x < _ROUND_CEILING:
            return rnd(x)
    raise PrecisionLimitError(
        f"d * alpha^t at t={t}, m={m} reaches the 2^52 margin on the root's "
        "bracket error; use the recursion instead"
    )


# ---------------------------------------------------------------------------
# growth laws

def _count_floor_log2(
    family: str, t: int, *, m: Optional[int] = None, primitive: bool = False
) -> Optional[int]:
    """An exponent e with 2^e <= count(family, t, m=m, primitive=primitive) whenever e >= 0.

    e = t - ceil(t/m) - [orbit family] bitlen(t) - [primitive], with m read as t
    where it bounds nothing (``_run_bound``), and may be negative.  A
    cumulative count to t is at least its last term, so e bounds it too.
    Exact, unlike the float ``lowlying_lower_bound``, which overflows a double
    past t of about 1024 / (1 - 1/m).  None only for a t outside
    1..``_MAX_SIZE``, leaving its refusal to the counters; any other argument
    they refuse, ``_kind`` refuses here with the same message.

    Proof.  Let k = ceil(t/m), and c_j the compositions of j into parts at
    most m, all 2^(j-1) of them while j <= m.
    - power, not primitive: a composition of t is a choice of cuts among the
      t - 1 gaps between t entries in a row, and a part is longer than m iff
      some m consecutive gaps are all uncut.  Cut the gaps after entries m,
      2m, ..., k - 1 of them, and leave the other t - k free: each of the
      2^(t-k) choices is its own composition, with parts at most m since the
      forced cuts and the two ends are at most m apart, so c_t >= 2^e.
    - orbit, not primitive, e >= 0, so t >= 2 and m >= 2: cut the t entries
      into k consecutive blocks of at most m entries, the last of at least two
      (k - 1 blocks of m and the rest, or, when the rest is one entry, the
      last two blocks of m - 1 and 2).  Let the first entry of each block
      after the first differ from the entry before it, the last entry differ
      from the first, and the other t - k entries be free.  Each of the 2^(t-k) free
      assignments gives its own word, which is not constant and whose cyclic
      runs each lie in one block, since every block, the first included,
      starts with a sign change: every run is at most m.  A class holds at
      most t words, so the count is at least 2^(t-k) / t > 2^e, as
      t < 2^bitlen(t).
    - primitive, e >= 0 and t >= 16, so m >= 2: every word or composition
      counted at t that is not primitive is a power of one at a proper divisor
      of t, at most h = t // 2.  Now c_j >= c_(j-1) + c_(j-2) >= 2 c_(j-2), and
      by induction c_0 + ... + c_h <= c_(h+2).
      - power: the primitive count is at least c_t - c_(h+2) >= c_t / 2 >= 2^e,
        since c_t >= 2 c_(t-2) >= 2 c_(h+2).
      - orbit: let W(d) be the non-constant d-entry words whose cyclic runs
        are at most m.  A power u^(t/d) is in W(t) iff u is in W(d), and
        W(d) <= 2 c_d, the words whose runs, read in a row, are at most m.
        So t times the primitive count is at least W(t) - 2 c_(h+2) >=
        W(t) - c_t / 4, since c_t >= 8 c_(t-6) >= 8 c_(h+2).  The words of
        W(t) include those whose first and last entries differ: 2 E_t, with
        E_t the compositions of t into an even number of parts at most m.
        E_t less the odd ones is the coefficient of z^t in
        (1 - z) / (1 - z^(m+1)), at least -1, so W(t) >= c_t - 1, and t times
        the count is at least c_t / 2 >= 2^(t-k-1).  The count exceeds
        2^(t-k-1-bitlen(t)) = 2^e.
    - primitive, t < 16: with m read as t, these are finitely many cases,
      each checked against the exact count in ``tests/test_counting.py``.
    """
    if not 1 <= t <= _MAX_SIZE:
        return None
    orbit, m = _kind(family, m, primitive, t)
    return t - -(-t // (m or t)) - orbit * t.bit_length() - primitive


def lowlying_lower_bound(t: int, m: int) -> float:
    """Lower bound 2^(t - t/m - 1) / t for bounded-run classes with t entries.

    Refuses m < 2: at m = 1 the formula gives 1/(2t), yet no word of odd
    length alternates, so the count it would bound is 0 at every odd t.
    """
    # not _check_size: a t past _MAX_SIZE overflows, which ``table1 --t 10**40`` reads
    if t < 1:
        raise ValueError("t must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    return 2.0 ** (t - t / m - 1) / t


def growth_target(item: int, t: int, m: Optional[int] = None) -> float:
    """Right-hand side of the four headline growth laws, evaluated as printed.

    The left-hand sides, exact counts up to length t, are ``_growth_exacts``':
    1: 2^floor(t/2)          reciprocal classes of group length 4k, k <= t // 2
    2: (alpha/(2+(m+1)(alpha-2))) * alpha^floor(t/2)   the same, runs <= m, m >= 2
    3: 2^(t+1) / t           primitive hyperbolic classes of <= t entries
    4: 2^(t(1-1/m)) / t      the same, runs <= m, m >= 3

    Each raises ``OverflowError`` once its value passes the largest double.
    """
    # not _check_size: every t past a few thousand overflows, _MAX_SIZE's too
    if t < 1:
        raise ValueError("t must be >= 1")
    if item in (1, 3) and m is not None:
        raise ValueError(f"growth item {item} takes no m")
    if item == 1:
        return float(1 << (t // 2))
    if item == 2:
        if m is None:
            raise ValueError("growth item 2 needs m")
        if m < 2:
            raise ValueError("growth item 2 needs m >= 2")
        a = alpha(m).alpha
        target = (a / (2 + (m + 1) * (a - 2))) * a ** (t // 2)
        if math.isinf(target):
            # the power can be a double while the product is not
            raise OverflowError(f"growth item 2 overflows a double at t={t}, m={m}")
        return target
    if item == 3:
        return 2.0 ** (t + 1) / t
    if item == 4:
        if m is None:
            raise ValueError("growth item 4 needs m")
        if m < 3:
            raise ValueError("growth item 4 needs m >= 3")
        return 2.0 ** (t * (1 - 1 / m)) / t
    raise ValueError(f"unknown growth item {item!r}")


def _growth_exacts(item: int, m: Optional[int], last: int) -> Iterator[int]:
    """Yield the exact side of law ``item`` at t = 1, 2, ..., through ``last`` for items 3, 4."""
    if item in (1, 2):
        # reciprocal lengths up to t // 2, all of them or with runs at most m:
        # none at t = 1, then each total serves t = 2h and t = 2h + 1
        yield 0
        for total in itertools.accumulate(count_series("compositions", m=m)):
            yield total
            yield total
    else:
        # primitive hyperbolic classes; with no run bound the sieve counts the constant ones
        for total in itertools.accumulate(_primitive_class_counts(last, m)):
            yield total - 2 * (m is None)
