"""Generators of word classes and the structural bijections.

``classes`` walks the necklaces of tau signs with the FKM successor
(Fredricksen-Kessler-Maiorana; Cattell, Ruskey, Sawada, Serra and Miers,
J. Algorithms 2000): each prenecklace is the periodic extension of its last
Lyndon prefix, and it is a necklace exactly when that prefix length p divides
tau, a Lyndon (primitive) word exactly when p equals tau.  A run bound m is
applied to prefixes (Ruskey-Sawada, COCOON 2000): a prefix with a run longer
than m is skipped together with every word that extends it.
``reciprocal_classes`` walks the free first halves, under a run bound only
those whose runs are at most m, through the packed core ``_reciprocal_chunks``,
which yields the kept words of a block of halves with their k0s; the CLI and
``verify`` read the core.  With no run bound, a half whose first and last
entries are equal is kept or dropped by them alone; the words with a proper
period are built from their roots, so only they are scanned for k0.  Both
walks do a constant amount of big-integer work per class on average, and
neither canonicalises a word by rotating it.
``classes`` makes the extension of a prefix length when the walk first
reaches it, so it builds no table before its first word.

The FKM walk is the packed-int core ``_class_bits``, which ``classes`` wraps
in a ``BinaryWord`` per class.  What only counts classes reads the core and
builds no object: the verify checks ``class_count_oracle``,
``primitive_count_oracle``, ``lowlying_lower_bound`` and ``filter_monotone``,
and ``enumerate --family classes``.  One rule, ``_half_rule``, picks each
reciprocal class's representative: ``_block_chunker`` applies it by table
lookups, and ``phi_inverse`` and ``canonical_reciprocal`` call it.

``lower_bound_witnesses`` yields the words of the proof behind
``counting._count_floor_log2``, each a few whole-int operations on the
assignment of its free entries, with no search.

Emission is in increasing bit order of the canonical representative, which is
lexicographic order of the entries with -1 first, so output is sorted and
deterministic; the tests pin this order.  The naive generate-and-canonicalise
scans that these generators are checked against are the tuple oracles of the
test suite.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice, repeat
from typing import Callable, Iterator, Optional, Sequence

from .binwords import (
    BinaryWord,
    Composition,
    HalfTurnWord,
    _full_from_half_bits,
    _k0_bits,
    _prime_divisors,
    _reverse_bits,
    _smallest_period_bits,
    canonical_form,
    from_composition,
    half_turn_partner,
    runs_of,
)
from .counting import _check_size, _run_bound

__all__ = [
    "ContractViolationError",
    "classes",
    "reciprocal_classes",
    "canonical_reciprocal",
    "phi",
    "phi_inverse",
    "power_map",
    "lower_bound_witnesses",
]


class ContractViolationError(RuntimeError):
    """A proven structural guarantee failed on a valid input.

    A bijection did not round-trip on a canonical input, or a walk outran the
    bound its termination argument gives.
    """


def classes(
    tau: int,
    *,
    primitive: bool = False,
    m: Optional[int] = None,
    hyperbolic: bool = False,
) -> Iterator[BinaryWord]:
    """Yield one canonical word per rotation class of tau entries.

    Filters compose: ``primitive`` drops proper powers, ``m`` keeps only
    words whose cyclic runs are at most m, and ``hyperbolic`` drops the two
    constant-sign classes (the only ones whose matrices are parabolic rather
    than hyperbolic).  The words are those of ``_class_bits``, in its order.
    """
    yield from map(BinaryWord, _class_bits(tau, primitive, m, hyperbolic), repeat(tau))


def _class_bits(
    tau: int, primitive: bool = False, m: Optional[int] = None, hyperbolic: bool = False
) -> Iterator[int]:
    """Packed bits of the words of ``classes``, in its order, with no object per class.

    Arguments are checked on the first pull.
    """
    _check_size("tau", tau)
    m = _run_bound("run bound m", m, tau)
    bound = m or tau
    # a constant word's run is its length; it is primitive only at tau = 1
    keep_constants = m is None and not hyperbolic and (tau == 1 or not primitive)
    if m is None:
        bits = 0
        if keep_constants:
            yield bits
    else:
        # the last word starting with bound + 1 entries -1: the first step
        # leaves all such words behind
        bits = (1 << (tau - bound - 1)) - 1
    # the periodic extension of an i-entry prefix to tau entries is
    # prefix * factor | prefix >> drop; the factor has tau bits, so the pair
    # for each i is made when the walk first reaches that length
    extensions = {}
    while True:
        # FKM successor: raise the last -1 entry, at position i, to +1; x ^ (x + 1)
        # sets the trailing ones of x and the bit above them
        ones = (bits ^ (bits + 1)).bit_length() - 1
        i = tau - ones
        if i == 1:
            if keep_constants:
                yield (1 << tau) - 1
            return
        prefix = (bits >> ones) | 1
        if (prefix ^ (prefix + 1)).bit_length() > bound + 1:
            # no word extending this prefix keeps its runs at most bound
            bits |= 1 << ones
            continue
        # A non-constant prenecklace starts with -1 and its Lyndon prefix ends
        # with +1, so the copies of the prefix meet at a sign change, and so
        # does the wrap of a necklace, which ends on a whole copy: the runs of
        # an emitted word, cyclic ones included, are the runs of its prefix.
        try:
            factor, drop = extensions[i]
        except KeyError:
            q, r = divmod(tau, i)
            factor, drop = extensions[i] = (((1 << (i * q)) - 1) // ((1 << i) - 1) << r, i - r)
        bits = prefix * factor | prefix >> drop
        if i == tau or (not primitive and tau % i == 0):
            yield bits


def _bounded_run_words(t: int, bound: int) -> Iterator[int]:
    """Words of t entries whose runs, read linearly, are at most bound.

    Yielded in increasing order.  Every prefix with a longer run is skipped
    together with all its extensions.
    """
    # least valid continuation after a +1 entry: blocks of bound -1 entries,
    # each closed by a +1, cut to length
    fill = 0
    for j in range(t):
        fill = (fill << 1) | (j % (bound + 1) == bound)
    bits = fill
    while True:
        yield bits
        while True:
            # trailing ones, as in _class_bits
            ones = (bits ^ (bits + 1)).bit_length() - 1
            if ones == t:
                return
            head = (bits >> ones) | 1
            if (head ^ (head + 1)).bit_length() <= bound + 1:
                bits = (head << ones) | (fill >> (t - ones))
                break
            bits |= 1 << ones


# the longest halves whose mirrors ``_mirror_tables`` tabulates, 2^16 per table
_TABULATED_HALF = 32


class _Mirrors:
    # s(x) = mirrors[x] on n entries, for halves too long to tabulate
    def __init__(self, n: int) -> None:
        self.n = n
        self.mask = (1 << n) - 1

    def __getitem__(self, x: int) -> int:
        return self.mask ^ _reverse_bits(x, self.n)


def _mirror_tables(t: int) -> tuple:
    """``(low, low_mask, s_low, s_high)`` with s(h) = s_low[h & low_mask] | s_high[h >> low].

    s(h) = ~rev_t(h) on t entries.  With h = hi.lo, lo of ``low`` bits,
    rev_t(h) = rev(lo).rev(hi), so s(h) is the complemented reversal of lo,
    placed high, beside that of hi.  Past ``_TABULATED_HALF``, lo is empty
    and s_high mirrors all t bits.
    """
    if t > _TABULATED_HALF:
        return 0, 0, (0,), _Mirrors(t)
    low = t >> 1
    high = t - low
    low_mask, high_mask = (1 << low) - 1, (1 << high) - 1
    s_low = [(low_mask ^ _reverse_bits(x, low)) << high for x in range(1 << low)]
    return low, low_mask, s_low, [high_mask ^ _reverse_bits(x, high) for x in range(1 << high)]


def _half_rule(half: int, mirror: int, t: int) -> bool:
    """Whether the mirrored word h.s(h) is smaller than its rotation partner.

    h is ``half``, s(h) is ``mirror``, s is reverse-complement on t entries,
    and the rule reads no period and no rotation.  The partner of h.s(h) is
    its rotation by k0 = p/2, p the smallest period, and p divides 2t.  If
    h != s(h), then 2t/p is odd (were it even, t would be a period and
    h = s(h)), so t = k0 (mod p) and the partner is the rotation by t,
    s(h).h: the word is the smaller iff h < s(h).  If h = s(h), t is even and
    the word is h.h, whose rotations are the doubled rotations of h, so it is
    the smaller of its pair iff h is the smaller of its own; and h, equal to
    s(h), is a mirrored word of t entries, so the test repeats on its halves.
    It ends, since the middle entry of an odd-length word is not its own
    negation, so such a word never equals its mirror.
    """
    head, tail, n = half, mirror, t
    while head == tail:
        # the word is head.head, and head is mirrored: compare its halves
        n >>= 1
        head, tail = head >> n, head & ((1 << n) - 1)
    return head < tail


# halves per block of _reciprocal_chunks
_RECIPROCAL_BLOCK = 4096


def _reciprocal_chunks(
    t: int, m: Optional[int], primitive: bool
) -> Iterator[tuple[list[int], list[int]]]:
    """Packed bits and k0s of the words of ``reciprocal_classes``, a block at a time.

    Same words in the same order, with no object per word.  Yields one pair
    of equal-length lists, packed words and their k0s, per block of
    ``_RECIPROCAL_BLOCK`` halves that keeps a word; ``_block_chunker`` makes
    each pair.  With no run bound a block is a range of halves; under a run
    bound m it is a list of the halves whose runs are at most m.  With
    ``primitive`` only the words with k0 = t are kept.  Arguments are checked
    on the first pull.
    """
    _check_size("t", t)
    m = _run_bound("run bound m", m, t)
    chunk_of = _block_chunker(t, primitive)
    size = _RECIPROCAL_BLOCK
    if m is None:
        end = 1 << t
        blocks = (range(start, min(start + size, end)) for start in range(0, end, size))
    else:
        # both junctions of a mirrored word change sign, so its cyclic runs
        # are the runs of its half
        halves = _bounded_run_words(t, m)
        blocks = iter(lambda: list(islice(halves, size)), [])
    for block in blocks:
        words, k0s = chunk_of(block)
        if words:
            yield words, k0s


def _block_chunker(t: int, primitive: bool) -> Callable[[Sequence[int]], tuple]:
    """The function from a block of halves to the words it keeps and their k0s.

    The block is a non-empty, increasing sequence of halves of t entries: a
    range of step 1, or any other sequence.  The words are the mirrored words
    h.s(h) that ``_half_rule`` keeps, in increasing order; list
    comprehensions make them, so pulling words runs in C.  With
    ``primitive`` only the words with k0 = t are returned.

    A half h is kept by ``_half_rule``, with s(h) from two table lookups and
    a call only where h = s(h).  The first entry of s(h) negates the last
    entry of h, so a half whose first and last entries are both -1 is kept
    with no test and one whose first and last entries are both +1 is never
    kept.  In a range, a parity and the top bit pick those halves out, and
    only the other half of the range meets the test.

    A word of L = 2t entries has a proper period exactly when its rotation
    by L/r is the identity for some prime r dividing L, since the rotations
    that fix it form a subgroup of Z_L.  For a mirrored word h.s(h) that
    holds exactly when it is (a.s(a))^r for a root a of t/r entries, r a
    prime dividing t: at r = 2 these are the words with h = s(h), and an odd
    r divides L only by dividing t.  So a block's periodic words are built
    from the roots whose words have their half in the block, few in any
    block and none made before the block is reached, and only those go to
    ``_k0_bits``; every other word has smallest period L and so k0 = t.
    """
    length, top = 2 * t, 1 << (t - 1)
    low, low_mask, s_low, s_high = _mirror_tables(t)
    # per prime r dividing t: the root length n = t/r, the shift that keeps
    # the first n entries of a half, and the repunit of r ones 2n bits apart,
    # which repeats a 2n-entry word r times (read in base 2 in linear time)
    roots = [
        (n, t - n, int("1".zfill(2 * n) * r, 2))
        for r in _prime_divisors(t)
        for n in [t // r]
    ]

    def tested(halves) -> list[int]:
        return [
            (half << t) | mirror
            for half in halves
            if (mirror := s_low[half & low_mask] | s_high[half >> low]) > half
            or mirror == half and _half_rule(half, mirror, t)
        ]

    def chunk_of(block: Sequence[int]) -> tuple[list[int], list[int]]:
        if type(block) is range:
            start, stop = block.start, block.stop
            # halves below mid start with -1: the even ones end with -1 and
            # are kept, the odd ones are tested; from mid on, halves start
            # with +1, the even ones are tested and the odd ones dropped
            mid = min(max(start, top), stop)
            chunk = [
                (half << t) | s_low[half & low_mask] | s_high[half >> low]
                for half in range(start + (start & 1), mid, 2)
            ]
            if odd := tested(range(start | 1, mid, 2)):
                chunk += odd
                chunk.sort()
            chunk += tested(range(mid + (mid & 1), stop, 2))
        else:
            chunk = tested(block)
        # the periodic words whose halves lie between the block's first and
        # last, found in the chunk by bisection where it keeps them
        first, last = block[0], block[-1]
        periodic = set()
        for n, shift, repunit in roots:
            mask = (1 << n) - 1
            for root in range(first >> shift, (last >> shift) + 1):
                bits = ((root << n) | (mask ^ _reverse_bits(root, n))) * repunit
                i = bisect_left(chunk, bits)
                if i < len(chunk) and chunk[i] == bits:
                    periodic.add(i)
        if primitive:
            for i in sorted(periodic, reverse=True):
                del chunk[i]
            return chunk, [t] * len(chunk)
        k0s = [t] * len(chunk)
        for i in sorted(periodic):
            k0s[i] = _k0_bits(chunk[i], length)
        return chunk, k0s

    return chunk_of


def reciprocal_classes(
    t: int,
    m: Optional[int] = None,
    *,
    primitive: bool = False,
) -> Iterator[HalfTurnWord]:
    """Yield one representative per conjugacy class of reciprocal words.

    The free first half ranges over all 2^t sign patterns; each mirrored word
    pairs with exactly one rotation partner of the same shape, and the
    lexicographically smaller of the pair is emitted, giving 2^(t-1) classes.
    With ``m`` set, only words with cyclic runs at most m survive, and the
    number of survivors equals the number of compositions of t with parts
    at most m.  ``primitive`` keeps the classes whose return shift is t.

    The words are those of ``_reciprocal_chunks``, in its order; each goes
    through the checked ``HalfTurnWord`` constructor, which tests the mirror
    condition and scans no period: k0 is found when it is read.
    """
    length = 2 * t
    for words, _ in _reciprocal_chunks(t, m, primitive):
        yield from map(HalfTurnWord, map(BinaryWord, words, repeat(length)))


def canonical_reciprocal(h: HalfTurnWord) -> HalfTurnWord:
    """The smaller of h and its rotation partner: h if ``_half_rule`` keeps it."""
    t = h.t
    if _half_rule(h.half.bits, h.word.bits & ((1 << t) - 1), t):
        return h
    return half_turn_partner(h)[0]


def phi(h: HalfTurnWord) -> Composition:
    """Run profile of the free first half of a reciprocal representative.

    Restricted to the canonical representatives emitted by
    ``reciprocal_classes`` this is a bijection onto compositions, and the run
    bound of the full word equals the largest part of the image.
    """
    return runs_of(h.half)


def phi_inverse(c: Composition) -> HalfTurnWord:
    """Canonical reciprocal representative whose half has run profile c.

    The halves with run profile c are h and its complement ~h, and
    s(~h) = ~s(h), so ``_half_rule``, which compares complemented halves,
    keeps exactly one of the two mirrored words they make; that one is
    returned.
    """
    t = c.total
    if t < 1:
        raise ValueError("composition must have positive total")
    mask = (1 << t) - 1
    low = from_composition(c, -1).bits
    for half in (low, low ^ mask):
        full = _full_from_half_bits(half, t)
        if _half_rule(half, full & mask, t):
            return HalfTurnWord(BinaryWord(full, 2 * t))
    raise ContractViolationError(
        f"no canonical reciprocal representative maps onto {c.parts!r}"
    )


def power_map(w: BinaryWord, n: int) -> BinaryWord:
    """Canonical form of w repeated n times; defined on primitive words only.

    Ranging over all primitive classes of each proper divisor length, these
    images partition the nonprimitive classes with no collisions; the verify
    suite checks that explicitly.
    """
    if n < 2:
        raise ValueError("exponent must be >= 2")
    if _smallest_period_bits(w.bits, w.length) != w.length:
        raise ValueError(f"word is not primitive: {w}")
    bits = 0
    for _ in range(n):
        bits = (bits << w.length) | w.bits
    return canonical_form(BinaryWord(bits, n * w.length))


def lower_bound_witnesses(t: int, m: int) -> Iterator[BinaryWord]:
    """Generate bounded-run words from the forced-slot construction.

    The words of the proof of ``counting._count_floor_log2``, orbit family:
    the t entries are cut into k = ceil(t/m) blocks of at most m entries, the
    last of at least two; the first entry of each block after the first
    negates the entry before it, the last entry negates the first, and the
    other t - k entries take every assignment.  So at t, m >= 2 this yields
    2^(t-k) distinct, non-constant words with cyclic runs at most m, in
    increasing order; m is read as t where it bounds nothing.  At m = 1 the words alternate, two at even t and none at odd t,
    and at t = 1 they are the two one-entry words.
    """
    _check_size("t", t)
    m = _run_bound("run bound m", m, t) or t
    mask = (1 << t) - 1
    if m == 1:
        if t == 1 or t % 2 == 0:
            alternating = mask // 3
            yield from (BinaryWord(alternating, t), BinaryWord(alternating ^ mask, t))
        return
    # the starts of the blocks after the first, entries m, 2m, ..., top, as a
    # repunit; entry j is bit t-1-j.  When the last block would be one entry,
    # its start, the last entry, moves one entry back, so that the last two
    # blocks are m - 1 and 2 entries; at m = 2 that start follows another.
    top = m * (-(-t // m) - 1)
    starts = ((1 << top) - 1) // ((1 << m) - 1) << (t - 1 - top)
    if starts & 1:
        starts ^= 3
    chained = starts & (starts >> 1)
    # the free entries are the rest but the last; the submask step walks
    # their subsets in increasing order (Knuth, TAOCP 4A, 7.1.3)
    free = mask ^ starts ^ 1
    subset = 0
    while True:
        bits = subset | starts & ~(subset >> 1)
        if chained:
            # a second pass reads the start before a chained one
            bits = subset | starts & ~(bits >> 1)
        # the last entry, bit 0, negates the first, bit t-1
        yield BinaryWord(bits | (bits >> (t - 1)) ^ 1, t)
        if subset == free:
            return
        subset = (subset - free) & free
