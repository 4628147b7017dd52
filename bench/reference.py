"""Reference values for the benchmark's output checks.

Everything here is computed by routes other than the ones modgeod uses, so a
check can fail when the library is wrong: Burnside through Euler's totient
instead of the gcd sum, Mobius inversion instead of the divisor recursion, a
transfer matrix for bounded-run classes instead of enumeration, a two-term
recurrence for bounded compositions, and a float root finder for alpha.
Nothing here imports modgeod.
"""

from __future__ import annotations

import math
from functools import lru_cache

ROUND_CEILING = 1 << 52
TORSION_CLASSES = 3

# letter matrices: +1 -> A*B (fixes 0), -1 -> A*B^-1 (unit translation)
_LETTERS = {"+": (-1, 0, 1, -1), "-": (1, -1, 0, 1)}


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    result, p, k = n, 2, n
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1
    if k > 1:
        result -= result // k
    return result


def _from_fixed_points(n: int, fixed, primitive: bool) -> int:
    """Orbit count from words fixed by each period; primitive ones by Mobius."""
    if primitive:
        total = sum(mobius(n // d) * fixed(d) for d in divisors(n))
    else:
        total = sum(totient(n // d) * fixed(d) for d in divisors(n))
    count, rem = divmod(total, n)
    if rem:
        raise ArithmeticError(f"orbit sum not divisible at n={n}")
    return count


def classes_count(n: int, primitive: bool = False) -> int:
    """Rotation classes of sign words with n entries (all or primitive)."""
    return _from_fixed_points(n, lambda d: 1 << d, primitive)


@lru_cache(maxsize=None)
def _cyclic_bounded_nonconstant(d: int, m: int) -> int:
    # closed walks of length d in the (sign, run-so-far) automaton: each
    # non-constant cyclic word with every run <= m labels exactly one
    size = 2 * m
    T = [[0] * size for _ in range(size)]
    for s in range(2):
        for r in range(m):
            i = s * m + r
            if r + 1 < m:
                T[i][i + 1] = 1
            T[i][(1 - s) * m] = 1
    P = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(d):
        P = [[sum(P[i][k] * T[k][j] for k in range(size)) for j in range(size)] for i in range(size)]
    return sum(P[i][i] for i in range(size))


def bounded_classes_count(n: int, m: int, primitive: bool = False) -> int:
    """Rotation classes with n entries whose cyclic runs are all <= m.

    A constant word has run n, so its two classes count only when n <= m.
    """

    def fixed(d: int) -> int:
        return _cyclic_bounded_nonconstant(d, m) + (2 if n <= m else 0)

    return _from_fixed_points(n, fixed, primitive)


def reciprocal_count(t: int, primitive: bool = False, m: int | None = None) -> int:
    """Reciprocal classes of half-length t, optionally primitive and bounded."""

    def total(d: int) -> int:
        return 1 << (d - 1) if m is None else compositions(d, m)

    if not primitive:
        return total(t)
    return sum(mobius(t // d) * total(d) for d in divisors(t))


def composition_table(t: int, m: int | None) -> list[int]:
    """Compositions of 0..t with parts <= m, by c(k) = 2 c(k-1) - c(k-1-m)."""
    c = [1]
    for k in range(1, t + 1):
        if k == 1:
            c.append(1)
            continue
        c.append(2 * c[k - 1] - (c[k - 1 - m] if m is not None and k - 1 - m >= 0 else 0))
    return c


def compositions(t: int, m: int | None = None) -> int:
    return composition_table(t, m)[t] if t >= 0 else 0


def lower_bound(t: int, m: int) -> float:
    """Bounded-run lower bound 2^(t - t/m - 1) / t, as the paper states it."""
    return 2.0 ** (t - t / m - 1) / t


@lru_cache(maxsize=None)
def alpha(m: int) -> float:
    """Positive root of z^m - z^(m-1) - ... - 1 by float bisection on (1, 2)."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** m - sum(mid ** i for i in range(m)) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def alpha_coefficient(m: int) -> float:
    a = alpha(m)
    return (a - 1) / (2 + (m + 1) * (a - 2))


def past_round_ceiling(t: int, m: int, margin: float) -> bool:
    """Whether d * alpha^t is at least ``margin`` times the 2^52 ceiling."""
    return alpha_coefficient(m) * alpha(m) ** t >= margin * ROUND_CEILING


def growth_target(item: int, t: int, m: int | None = None) -> float:
    if item == 1:
        return float(1 << (t // 2))
    if item == 2:
        a = alpha(m)
        return (a / (2 + (m + 1) * (a - 2))) * a ** (t // 2)
    if item == 3:
        return 2.0 ** (t + 1) / t
    raise ValueError(f"no reference for growth item {item}")


# ---------------------------------------------------------------------------
# words and matrices, on '+'/'-' strings


_BITS = str.maketrans("-+", "01")


def as_bits(word: str) -> str:
    """'0'/'1' spelling, so string order is modgeod's order (- before +)."""
    return word.translate(_BITS)


def least_rotation(word: str) -> str:
    return min((word[k:] + word[:k] for k in range(len(word))), key=as_bits)


def max_cyclic_run(word: str) -> int:
    if len(set(word)) == 1:
        return len(word)
    k = next(i for i in range(len(word)) if word[i] != word[i - 1])
    rolled = word[k:] + word[:k]
    best = run = 1
    for a, b in zip(rolled, rolled[1:]):
        run = run + 1 if a == b else 1
        best = max(best, run)
    return best


def is_mirrored(word: str) -> bool:
    """Second half is the reversed, sign-flipped first half."""
    n = len(word)
    if n % 2:
        return False
    flip = word[: n // 2][::-1].translate(str.maketrans("+-", "-+"))
    return word[n // 2 :] == flip


def mirror_shift(word: str) -> int:
    """Smallest positive rotation carrying a mirrored word onto a mirrored word."""
    n = len(word)
    return next(k for k in range(1, n + 1) if is_mirrored(word[-k:] + word[:-k]))


def word_matrix(word: str) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for ch in word:
        e, f, g, h = _LETTERS[ch]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def depth_reference(word: str) -> dict:
    """Trace, length and deepest apex over rotations and their A-conjugates."""
    a, b, c, d = word_matrix(word)
    tr = abs(a + d)
    min_c = min(
        min(abs(M[2]), abs(M[1]))
        for M in (word_matrix(word[k:] + word[:k]) for k in range(len(word)))
    )
    apex = math.sqrt(tr * tr - 4) / (2 * min_c)
    return {
        "trace_abs": tr,
        "length": 2.0 * math.acosh(tr / 2.0),
        "apex": apex,
        "depth": math.log(apex),
        "max_run": max_cyclic_run(word),
    }
