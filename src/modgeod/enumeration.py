"""Generators of word classes and the structural bijections.

``classes`` walks the necklaces of tau signs with the FKM successor
(Fredricksen-Kessler-Maiorana; Cattell, Ruskey, Sawada, Serra and Miers,
J. Algorithms 2000): each prenecklace is the periodic extension of its last
Lyndon prefix, and it is a necklace exactly when that prefix length p divides
tau, a Lyndon (primitive) word exactly when p equals tau.  A run bound m is
applied to prefixes (Ruskey-Sawada, COCOON 2000): a prefix with a run longer
than m is skipped together with every word that extends it.
``reciprocal_classes`` walks the free first halves, and under a run bound
only those whose runs are at most m.  Both do a constant amount of big-integer
work per class on average, and neither canonicalises a word by rotating it.
``reciprocal_classes`` wraps a private core that yields packed bits, which the
CLI streams rows from and ``verify`` counts.

Emission is in increasing bit order of the canonical representative, which is
lexicographic order of the entries with -1 first, so output is sorted and
deterministic; the tests pin this order.  The naive generate-and-canonicalise
scans that these generators are checked against are the tuple oracles of the
test suite.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from .binwords import (
    BinaryWord,
    Composition,
    HalfTurnWord,
    _full_from_half_bits,  # unused here; kept because bench/tracer.py hooks this name
    _max_cyclic_run_bits,
    _reverse_bits,
    _smallest_period_bits,
    canonical_form,
    from_composition,
    half_turn_partner,
    runs_of,
)

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
    """A structural bijection failed to round-trip on a canonical input."""


def _trailing_ones(bits: int) -> int:
    return (bits ^ (bits + 1)).bit_length() - 1


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
    than hyperbolic).
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if m is not None and m < 1:
        raise ValueError("run bound m must be >= 1")
    bound = tau if m is None else min(m, tau)
    # a constant word's run is its length; it is primitive only at tau = 1
    keep_constants = bound == tau and not hyperbolic and (tau == 1 or not primitive)
    if bound == tau:
        bits = 0
        if keep_constants:
            yield BinaryWord(bits, tau)
    else:
        # the last word starting with bound + 1 entries -1: the first step
        # leaves all such words behind
        bits = (1 << (tau - bound - 1)) - 1
    # the periodic extension of an i-entry prefix to tau entries is
    # prefix * scale[i] | prefix >> drop[i]
    scale = [0] * (tau + 1)
    drop = [0] * (tau + 1)
    for i in range(2, tau + 1):
        q, r = divmod(tau, i)
        scale[i] = ((1 << (i * q)) - 1) // ((1 << i) - 1) << r
        drop[i] = i - r
    while True:
        # FKM successor: raise the last -1 entry, at position i, to +1
        ones = _trailing_ones(bits)
        i = tau - ones
        if i == 1:
            if keep_constants:
                yield BinaryWord((1 << tau) - 1, tau)
            return
        prefix = (bits >> ones) | 1
        if _trailing_ones(prefix) > bound:
            # no word extending this prefix keeps its runs at most bound
            bits |= 1 << ones
            continue
        # A non-constant prenecklace starts with -1 and its Lyndon prefix ends
        # with +1, so the copies of the prefix meet at a sign change, and so
        # does the wrap of a necklace, which ends on a whole copy: the runs of
        # an emitted word, cyclic ones included, are the runs of its prefix.
        bits = prefix * scale[i] | prefix >> drop[i]
        if i == tau or (not primitive and tau % i == 0):
            yield BinaryWord(bits, tau)


def _bounded_run_words(t: int, bound: int) -> Iterator[int]:
    """Words of t entries whose runs, read linearly, are at most bound.

    Yielded in increasing order.  Every prefix with a longer run is skipped
    together with all its extensions.
    """
    if bound >= t:
        yield from range(1 << t)
        return
    # least valid continuation after a +1 entry: blocks of bound -1 entries,
    # each closed by a +1, cut to length
    fill = 0
    for j in range(t):
        fill = (fill << 1) | (j % (bound + 1) == bound)
    bits = fill
    while True:
        yield bits
        while True:
            ones = _trailing_ones(bits)
            if ones == t:
                return
            head = (bits >> ones) | 1
            if _trailing_ones(head) <= bound:
                bits = (head << ones) | (fill >> (t - ones))
                break
            bits |= 1 << ones


def _reciprocal_bits(t: int, m: Optional[int] = None) -> Iterator[int]:
    """Packed bits of the canonical mirrored words of ``reciprocal_classes``.

    Same words in the same order, with no object and no period per word: the
    callers check each word and find its k0.  Arguments are checked on the
    first pull.

    Canonicity is read off the two halves, with no period and no rotation.
    Let s be reverse-complement on t entries, so the word is h.s(h).  Its
    partner is its rotation by k0 = p/2, p the smallest period, and p divides
    2t.  If h != s(h), then 2t/p is odd (were it even, t would be a period
    and h = s(h)), so t = k0 (mod p) and the partner is the rotation by t,
    s(h).h: the word is the smaller iff h < s(h).  If h = s(h), t is even and
    the word is h.h, whose rotations are the doubled rotations of h, so it is
    the smaller of its pair iff h is the smaller of its own; and h, equal to
    s(h), is a mirrored word of t entries, so the test repeats on its halves.
    It ends, since the middle entry of an odd-length word is not its own
    negation, so such a word never equals its mirror.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if m is not None and m < 1:
        raise ValueError("run bound m must be >= 1")
    mask = (1 << t) - 1
    # s(h) = ~rev_t(h) reverses h's two parts and swaps them: with h = hi.lo,
    # lo of `low` bits, rev_t(h) = rev(lo).rev(hi)
    low = t >> 1
    high = t - low
    low_mask = (1 << low) - 1
    rev_high = [_reverse_bits(x, high) for x in range(1 << high)]
    rev_low = [_reverse_bits(x, low) << high for x in range(1 << low)]
    # both junctions of a mirrored word change sign, so its cyclic runs are
    # the runs of its half
    for half in _bounded_run_words(t, t if m is None else m):
        mirror = mask ^ (rev_low[half & low_mask] | rev_high[half >> low])
        head, tail, n = half, mirror, t
        while head == tail:
            n >>= 1
            head, tail = head >> n, head & ((1 << n) - 1)
        if head < tail:
            yield (half << t) | mirror


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

    The words come from ``_reciprocal_bits``; each goes through the checked
    ``HalfTurnWord`` constructor, which finds its k0 with one period scan.
    """
    length = 2 * t
    for bits in _reciprocal_bits(t, m):
        h = HalfTurnWord(BinaryWord(bits, length))
        if primitive and h.k0 != t:
            continue
        yield h


def canonical_reciprocal(h: HalfTurnWord) -> HalfTurnWord:
    """The lexicographically smaller of h and its rotation partner."""
    partner, _ = half_turn_partner(h)
    return h if h.word <= partner.word else partner


def phi(h: HalfTurnWord) -> Composition:
    """Run profile of the free first half of a reciprocal representative.

    Restricted to the canonical representatives emitted by
    ``reciprocal_classes`` this is a bijection onto compositions, and the run
    bound of the full word equals the largest part of the image.
    """
    return runs_of(h.half)


def phi_inverse(c: Composition) -> HalfTurnWord:
    """Canonical reciprocal representative whose half has run profile c.

    The two run-profile preimages differ by a global sign flip and land in
    mirror-image classes; the one whose canonical representative maps back to
    c is returned.
    """
    if c.total < 1:
        raise ValueError("composition must have positive total")
    for leading in (-1, 1):
        candidate = canonical_reciprocal(
            HalfTurnWord.from_half(from_composition(c, leading))
        )
        if phi(candidate) == c:
            return candidate
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


def _subset_tables(masks: list[int]) -> tuple[list[int], list[int]]:
    """Split tables of the unions of disjoint bit masks, about 2^(n/2) entries each.

    Index the subsets of the n masks by n-bit numbers, the first mask the most
    significant bit.  With k = n // 2, subset (u << k) | v is the union
    hi[u] | lo[v], so walking u and then v walks the indices in order.
    """

    def unions(part: list[int]) -> list[int]:
        table = [0]
        for mask in part:
            table = [x | bit for x in table for bit in (0, mask)]
        return table

    split = len(masks) - len(masks) // 2
    return unions(masks[:split]), unions(masks[split:])


def lower_bound_witnesses(t: int, m: int) -> Iterator[BinaryWord]:
    """Generate bounded-run words from the forced-slot construction.

    Slots are grouped m at a time; the first slot of every group after the
    first, plus the final slot, are forced, and the rest choose signs freely.
    For each free assignment the forced slots are set to the first value
    combination (in sign order) that keeps every cyclic run at most m; free
    patterns admitting no such combination are skipped.  The number of free
    slots is at least t - floor(t/m) - 1, which is what makes these words a
    counting witness for the lower bound on bounded-run classes.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if m < 1:
        raise ValueError("run bound m must be >= 1")
    forced = {g for g in range(m, t, m)}
    forced.add(t - 1)
    # entry j is bit t-1-j; slot lists run in entry order, so the first slot
    # of each list is the most significant bit of its assignment index
    free_hi, free_lo = _subset_tables([1 << (t - 1 - j) for j in range(t) if j not in forced])
    forced_hi, forced_lo = _subset_tables([1 << (t - 1 - j) for j in sorted(forced)])
    for hi in free_hi:
        for lo in free_lo:
            free_bits = hi | lo
            for f_hi, f_lo in product(forced_hi, forced_lo):
                bits = free_bits | f_hi | f_lo
                if _max_cyclic_run_bits(bits, t) <= m:
                    yield BinaryWord(bits, t)
                    break
