"""Cyclic binary words over {+1, -1}: rotations, canonical forms, runs.

A word with entries (e_0, ..., e_{t-1}), each +-1, stands for the alternating
group word a b^{e_0} a b^{e_1} ... a b^{e_{t-1}} in the free product of a
two-torsion generator a and a three-torsion generator b, so t sign entries
encode a group word of length 2t.  Conjugacy between such group words is
rotation of the entry sequence, which turns every conjugacy-class question
into a necklace question about sign sequences.

Words are bit-packed: entry j is stored in bit t-1-j of a plain integer, with
-1 encoded as bit 0.  First entries occupy high bits, so comparing the backing
integers of equal-length words is exactly lexicographic comparison of entry
sequences with -1 ordered before +1.  All values here are immutable and all
operations are pure, so they are safe to share across threads.

The kernels work on the packed integers directly.  Run profiles are read from
the edge bits ``bits ^ (bits >> 1)``, one set bit per sign change, and
expanded back by shifting in blocks of ones and zeros.  The mirror test of a
word h.l of 2t entries compares the reverse of one half with the complement
of the other, reversing t bits instead of 2t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "BinaryWord",
    "HalfTurnWord",
    "Composition",
    "rotate",
    "canonical_form",
    "primitive_root",
    "max_cyclic_run",
    "half_turn_partner",
    "runs_of",
    "from_composition",
    "is_half_turn",
]


# ---------------------------------------------------------------------------
# integer kernels (shared with the enumeration module for bulk scans)

def _rotate_bits(bits: int, k: int, t: int) -> int:
    k %= t
    if k == 0:
        return bits
    return (bits >> k) | ((bits & ((1 << k) - 1)) << (t - k))


def _rotations_bits(bits: int, t: int) -> list[int]:
    # the rotations by 0, 1, ..., t-1: the t-bit windows of the doubled word
    mask = (1 << t) - 1
    doubled = (bits << t) | bits
    return [doubled >> k & mask for k in range(t)]


def _min_rotation_bits(bits: int, t: int) -> int:
    return min(_rotations_bits(bits, t))


# byte i holds the eight bits of i in reverse order
_REV8 = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _reverse_bits(bits: int, t: int) -> int:
    # bits < 2^t; up to two bytes are looked up directly
    if t <= 8:
        return _REV8[bits] >> (8 - t)
    if t <= 16:
        return (_REV8[bits & 0xFF] << 8 | _REV8[bits >> 8]) >> (16 - t)
    # reverse each byte and the byte order, i.e. all 8n bits, then drop the
    # zero bits that stood above bit t-1
    n = (t + 7) >> 3
    return int.from_bytes(bits.to_bytes(n, "little").translate(_REV8), "big") >> (8 * n - t)


@lru_cache(maxsize=None)
def _prime_divisors(t: int) -> tuple[int, ...]:
    # the distinct primes dividing t >= 1, by trial division
    primes = []
    r = 2
    while r * r <= t:
        if t % r == 0:
            primes.append(r)
            while t % r == 0:
                t //= r
        r += 1
    if t > 1:
        primes.append(t)
    return tuple(primes)


def _smallest_period_bits(bits: int, t: int) -> int:
    # smallest p dividing t with rotation by p acting as the identity.  The
    # periods dividing t are the multiples of the smallest one p0 that divide
    # t, so starting from p = t, each prime r of t divides p while p / r is
    # still a period; that strips r down to its exponent in p0, and the other
    # primes leave that exponent alone.  For p dividing t, rotation by p is
    # the identity iff the first t - p entries equal the last t - p.
    p = t
    for r in _prime_divisors(t):
        while p % r == 0:
            q = p // r
            if bits >> q != bits & ((1 << (t - q)) - 1):
                break
            p = q
    return p


def _max_cyclic_run_bits(bits: int, t: int) -> int:
    mask = (1 << t) - 1
    if bits == 0 or bits == mask:
        return t
    # every cyclic run of a non-constant word appears whole in the doubled
    # word, and no block there is longer than the cyclic run it cuts from.
    # Bit i of same is set iff entries i and i + 1 of the doubled word agree,
    # so a run of n entries is a block of n - 1 ones, and each step shortens
    # every block by one.
    doubled = (bits << t) | bits
    same = ~(doubled ^ (doubled >> 1)) & ((1 << (2 * t - 1)) - 1)
    n = 1
    while same:
        same &= same >> 1
        n += 1
    return n


def _run_lengths_bits(bits: int, t: int) -> list[int]:
    # linear run lengths, first entry's run first; bit i of edges is set iff
    # entries t-2-i and t-1-i differ, i.e. a run ends there
    edges = (bits ^ (bits >> 1)) & ((1 << (t - 1)) - 1)
    parts = []
    top = t - 1  # bit of the current run's first entry
    while edges:
        i = edges.bit_length() - 1
        parts.append(top - i)
        top = i
        edges ^= 1 << i
    parts.append(top + 1)
    return parts


def _is_half_turn_bits(bits: int, length: int) -> bool:
    if length % 2:
        return False
    # h.l is mirrored iff rev_2t(h.l) = rev_t(l).rev_t(h) equals ~h.~l, i.e.
    # rev_t(l) = ~h and rev_t(h) = ~l; reversing either equation gives the
    # other, so the second alone decides
    t = length >> 1
    mask = (1 << t) - 1
    if t <= 16:
        # the two-byte table path of _reverse_bits, inline
        h = bits >> t
        return (_REV8[h & 0xFF] << 8 | _REV8[h >> 8]) >> (16 - t) == (~bits & mask)
    return _reverse_bits(bits >> t, t) == (~bits & mask)


def _k0_bits(bits: int, length: int) -> int:
    # smallest positive rotation carrying a mirrored word back onto one;
    # for a mirrored word the rotation by k lands back in the family iff 2k
    # is a period, and the smallest period is itself even, so the answer is
    # half the smallest period
    p = _smallest_period_bits(bits, length)
    if p % 2:
        raise ValueError(
            f"not a mirrored word: {BinaryWord(bits, length)} has odd smallest period {p}"
        )
    return p // 2


def _full_from_half_bits(half: int, t: int) -> int:
    # mirror-negate the first half onto the second half
    mask = (1 << t) - 1
    return (half << t) | (~_reverse_bits(half, t) & mask)


# ---------------------------------------------------------------------------
# domain types

_SIGN_CHARS = str.maketrans("01", "-+")


@dataclass(frozen=True)
class BinaryWord:
    """Fixed-length sequence of +-1 signs, bit-packed."""

    bits: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("word length must be a positive integer")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError("bits out of range for the given length")

    @classmethod
    def from_entries(cls, entries) -> "BinaryWord":
        entries = tuple(entries)
        if not entries:
            raise ValueError("word length must be a positive integer")
        bits = 0
        for e in entries:
            if e not in (-1, 1):
                raise ValueError(f"entries must be +1 or -1, got {e!r}")
            bits = (bits << 1) | (e == 1)
        return cls(bits, len(entries))

    @classmethod
    def from_text(cls, text: str) -> "BinaryWord":
        """Parse a string over {+,-}; whitespace is ignored."""
        chars = [c for c in text if not c.isspace()]
        if not chars:
            raise ValueError("empty word text")
        if any(c not in "+-" for c in chars):
            raise ValueError(f"word text must use only '+' and '-': {text!r}")
        return cls.from_entries(1 if c == "+" else -1 for c in chars)

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(
            1 if (self.bits >> (self.length - 1 - j)) & 1 else -1
            for j in range(self.length)
        )

    @property
    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == (1 << self.length) - 1

    def entry(self, j: int) -> int:
        j %= self.length
        return 1 if (self.bits >> (self.length - 1 - j)) & 1 else -1

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b").translate(_SIGN_CHARS)

    def __repr__(self) -> str:
        return f"BinaryWord({str(self)!r})"

    def __len__(self) -> int:
        return self.length

    def __lt__(self, other: "BinaryWord") -> bool:
        return (self.length, self.bits) < (other.length, other.bits)

    def __le__(self, other: "BinaryWord") -> bool:
        return (self.length, self.bits) <= (other.length, other.bits)


@dataclass(frozen=True)
class Composition:
    """Ordered sequence of positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(p < 1 for p in self.parts):
            raise ValueError("composition parts must be positive integers")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class HalfTurnWord:
    """Even-length word whose second half mirror-negates the first.

    These are the sign words of group commutators [a, g] with g a word in the
    three-torsion generator, i.e. the normal forms of reciprocal group words.
    ``k0`` is the smallest positive rotation carrying the word back onto one
    of the same mirrored shape; it equals half the length exactly when the
    word is primitive.
    """

    word: BinaryWord
    k0: int = field(init=False)

    def __post_init__(self) -> None:
        if self.word.length % 2:
            raise ValueError("half-turn words have even length")
        if not _is_half_turn_bits(self.word.bits, self.word.length):
            raise ValueError(
                f"entries do not satisfy the mirror condition: {self.word}"
            )
        object.__setattr__(self, "k0", _k0_bits(self.word.bits, self.word.length))

    @classmethod
    def from_half(cls, half: BinaryWord) -> "HalfTurnWord":
        """Build the full word whose free first half is ``half``."""
        t = half.length
        return cls(BinaryWord(_full_from_half_bits(half.bits, t), 2 * t))

    @property
    def t(self) -> int:
        return self.word.length // 2

    @property
    def half(self) -> BinaryWord:
        t = self.t
        return BinaryWord(self.word.bits >> t, t)

    def __str__(self) -> str:
        return str(self.word)


# ---------------------------------------------------------------------------
# operations

def rotate(w: BinaryWord, k: int) -> BinaryWord:
    """Cyclic shift: entry j of the result is entry j-k (mod length) of w."""
    return BinaryWord(_rotate_bits(w.bits, k, w.length), w.length)


def canonical_form(w: BinaryWord) -> BinaryWord:
    """Lexicographically least rotation of w, with -1 ordered before +1.

    Constant on rotation orbits and idempotent, so it is usable as the
    canonical representative of a conjugacy class.
    """
    return BinaryWord(_min_rotation_bits(w.bits, w.length), w.length)


def primitive_root(w: BinaryWord) -> tuple[BinaryWord, int]:
    """Shortest word z and exponent s with w equal to z repeated s times.

    The root is primitive (has no shorter period); s == 1 iff w is primitive.
    """
    t = w.length
    p = _smallest_period_bits(w.bits, t)
    return BinaryWord(w.bits >> (t - p), p), t // p


def max_cyclic_run(w: BinaryWord) -> int:
    """Length of the longest constant-sign block read cyclically.

    Constant words return the full length, so a constant word fails every
    bounded-run test with a bound below its length.
    """
    return _max_cyclic_run_bits(w.bits, w.length)


def is_half_turn(w: BinaryWord) -> bool:
    """True when w is even-length and its second half mirror-negates the first."""
    return _is_half_turn_bits(w.bits, w.length)


def half_turn_partner(h: HalfTurnWord) -> tuple[HalfTurnWord, int]:
    """The one other mirrored word in h's rotation orbit, with the shift k0.

    A rotation orbit meets the mirrored family in exactly two points; the
    partner is always distinct from h.
    """
    partner = HalfTurnWord(rotate(h.word, h.k0))
    return partner, h.k0


def runs_of(halfword: BinaryWord) -> Composition:
    """Lengths of maximal constant-sign blocks, read left to right.

    Non-cyclic on purpose: this is the run profile of the free first half of
    a mirrored word, whereas ``max_cyclic_run`` reads the full word cyclically.
    The parts always sum to the word length.
    """
    return Composition(tuple(_run_lengths_bits(halfword.bits, halfword.length)))


def from_composition(c: Composition, leading_sign: int) -> BinaryWord:
    """Right inverse of ``runs_of``: expand run lengths into sign blocks.

    The two choices of leading sign give the two run-profile preimages.
    """
    if leading_sign not in (-1, 1):
        raise ValueError("leading sign must be +1 or -1")
    bits = length = 0
    ones = leading_sign == 1
    for part in c.parts:
        bits = (bits << part) | ((1 << part) - 1 if ones else 0)
        length += part
        ones = not ones
    return BinaryWord(bits, length)
