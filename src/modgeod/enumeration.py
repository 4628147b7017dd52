"""Generators of word classes and the structural bijections.

``classes`` walks the necklaces of tau signs with the FKM successor
(Fredricksen-Kessler-Maiorana; Cattell, Ruskey, Sawada, Serra and Miers,
J. Algorithms 2000): each prenecklace is the periodic extension of its last
Lyndon prefix, and it is a necklace exactly when that prefix length p divides
tau, a Lyndon (primitive) word exactly when p equals tau.  A run bound m is
applied to prefixes (Ruskey-Sawada, COCOON 2000): a prefix with a run longer
than m is skipped together with every word that extends it.
``reciprocal_classes`` walks the free first halves, under a run bound only
those whose runs are at most m, through a private core that yields packed
bits a block of halves at a time; ``verify`` counts these and checks the
composition bijection on them.  Both do a constant amount of big-integer work
per class on average, and neither canonicalises a word by rotating it.  The
CLI streams its rows from ``_reciprocal_chunks``, which makes the
``HalfTurnWord`` constructor's checks on the core's words a block at a time:
the mirror test, and k0 from one period test per prime dividing 2t, with
``_k0_bits`` only for the few words that have a proper period.
``classes`` makes the extension of a prefix length when the walk first
reaches it, and ``lower_bound_witnesses`` walks the assignments of its free
slots with the submask step, so neither builds a table before its first word.

The FKM walk is the packed-int core ``_class_bits``, which ``classes`` wraps
in a ``BinaryWord`` per class.  What only counts classes reads the core and
builds no object: the verify checks ``class_count_oracle``,
``primitive_count_oracle``, ``lowlying_lower_bound`` and ``filter_monotone``,
and ``enumerate --family classes``.  ``phi_inverse`` decides between the two
preimages of a composition on packed bits and builds one ``HalfTurnWord``,
its answer.

``lower_bound_witnesses`` completes each free assignment by an iterative
depth-first search over the forced slots, about t/m of them, so it serves
every admitted t, where a frame per slot would pass the interpreter's
recursion limit from t = 2500 at m = 2.  It is exact while testing only the
run through the slot just set, and at a complete word only the run that wraps
from the last entry to the first: any other run either was tested whole at an
earlier slot or lies in a stretch of free entries no longer than m.

Emission is in increasing bit order of the canonical representative, which is
lexicographic order of the entries with -1 first, so output is sorted and
deterministic; the tests pin this order.  The naive generate-and-canonicalise
scans that these generators are checked against are the tuple oracles of the
test suite.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Iterator, Optional

from .binwords import (
    BinaryWord,
    Composition,
    HalfTurnWord,
    _full_from_half_bits,  # unused here; kept because bench/tracer.py hooks this name
    _k0_bits,
    _max_cyclic_run_bits,  # unused here; kept because bench/tracer.py hooks this name
    _reverse_bits,
    _rotate_bits,
    _smallest_period_bits,
    canonical_form,
    from_composition,
    half_turn_partner,
    runs_of,
)
from .counting import _check_size, _factorise

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
    # a run bound past tau bounds nothing, here as in the counters
    bound = tau if m is None else min(m, tau)
    _check_size("run bound m", bound)
    # a constant word's run is its length; it is primitive only at tau = 1
    keep_constants = bound == tau and not hyperbolic and (tau == 1 or not primitive)
    if bound == tau:
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


# the longest halves whose reversals ``_mirror_tables`` tabulates, 2^16 per table
_TABULATED_HALF = 32


class _Reversals:
    # rev_n(x) = rev_n[x], for halves too long to tabulate
    def __init__(self, n: int) -> None:
        self.n = n

    def __getitem__(self, x: int) -> int:
        return _reverse_bits(x, self.n)


def _mirror_tables(t: int) -> tuple:
    # s(h) = ~rev_t(h) on t entries: with h = hi.lo, lo of `low` bits,
    # rev_t(h) = rev(lo).rev(hi), so s(h) = mask ^ (rev_low[lo] | rev_high[hi]);
    # past _TABULATED_HALF, lo is empty and rev_high reverses all t bits
    if t > _TABULATED_HALF:
        return 0, 0, (0,), _Reversals(t)
    low = t >> 1
    high = t - low
    rev_low = [_reverse_bits(x, low) << high for x in range(1 << low)]
    return low, (1 << low) - 1, rev_low, [_reverse_bits(x, high) for x in range(1 << high)]


# halves per block of _reciprocal_bits
_RECIPROCAL_BLOCK = 4096


def _reciprocal_bits(t: int, m: Optional[int] = None) -> Iterator[int]:
    """Packed bits of the canonical mirrored words of ``reciprocal_classes``.

    Same words in the same order, with no object and no period per word: the
    callers check each word and find its k0.  Arguments are checked on the
    first pull.  One list comprehension makes the words of each block of
    ``_RECIPROCAL_BLOCK`` halves, so pulling words runs in C.

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
    return chain.from_iterable(_reciprocal_blocks(t, m))


def _reciprocal_blocks(t: int, m: Optional[int]) -> Iterator[list[int]]:
    # the lists _reciprocal_bits chains, one per block of halves, maybe empty
    _check_size("t", t)
    if m is not None:
        _check_size("run bound m", min(m, t))
    mask = (1 << t) - 1
    low, low_mask, rev_low, rev_high = _mirror_tables(t)

    def halving_keeps(half: int) -> bool:
        # half = s(half): compare its halves, then theirs while they are equal
        head, tail, n = half, half, t
        while head == tail:
            n >>= 1
            head, tail = head >> n, head & ((1 << n) - 1)
        return head < tail

    # both junctions of a mirrored word change sign, so its cyclic runs are
    # the runs of its half
    halves = iter(range(1 << t) if m is None or m >= t else _bounded_run_words(t, m))
    while block := list(islice(halves, _RECIPROCAL_BLOCK)):
        yield [
            (half << t) | mirror
            for half in block
            if (mirror := mask ^ (rev_low[half & low_mask] | rev_high[half >> low])) > half
            or mirror == half and halving_keeps(half)
        ]


def _reciprocal_chunks(
    t: int, m: Optional[int], primitive: bool
) -> Iterator[tuple[list[int], list[int]]]:
    """The words of ``_reciprocal_bits`` and their k0s, checked a block at a time.

    Yields one pair of equal-length lists, packed words and k0s, per block of
    ``_reciprocal_blocks`` that keeps a word, in the core's order.  Each word
    gets the checks the ``HalfTurnWord`` constructor makes, a block at a time:
    a word that is not mirrored raises ``ContractViolationError`` naming it,
    and k0 equals ``_k0_bits``.  With ``primitive`` only the words with
    k0 = t are kept.  Arguments are checked on the first pull.

    The rotations that fix a word of L = 2t entries form a subgroup of Z_L,
    so the word has a proper period exactly when its rotation by L/r is the
    identity for some prime r dividing L.  Only the words that pass such a
    test, few in any block, go to ``_k0_bits``; every other word has smallest
    period L and so k0 = t.
    """
    blocks = _reciprocal_blocks(t, m)
    blocks = chain([next(blocks, [])], blocks)  # checks t and m before anything else
    length = 2 * t
    mask = (1 << t) - 1
    low, low_mask, rev_low, rev_high = _mirror_tables(t)
    hi_shift = t + low
    # the rotation by d of a word of L entries is the identity iff its first
    # L - d entries equal its last L - d ones
    periods = [(length // r, (1 << (length - length // r)) - 1) for r, _ in _factorise(length)]
    for chunk in filter(None, blocks):
        # mirrored iff s(first half) = second half, as _is_half_turn_bits
        broken = [
            bits for bits in chunk
            if mask ^ (rev_low[bits >> t & low_mask] | rev_high[bits >> hi_shift]) != bits & mask
        ]
        if broken:
            raise ContractViolationError(f"not a mirrored word: {BinaryWord(broken[0], length)}")
        periodic = set()
        for d, head in periods:
            periodic.update([bits for bits in chunk if bits >> d == bits & head])
        if not periodic:
            yield chunk, [t] * len(chunk)
        elif primitive:
            chunk = [bits for bits in chunk if bits not in periodic]
            if chunk:
                yield chunk, [t] * len(chunk)
        else:
            k0 = {bits: _k0_bits(bits, length) for bits in periodic}
            yield chunk, [k0.get(bits, t) for bits in chunk]


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
    c is returned.  A half has run profile c exactly when it is one of the two
    preimages, so each candidate is decided on packed bits: its mirrored word,
    the rotation of that word by k0, and the smaller of the two.
    """
    t = c.total
    if t < 1:
        raise ValueError("composition must have positive total")
    length = 2 * t
    mask = (1 << t) - 1
    low = from_composition(c, -1).bits
    preimages = (low, low ^ mask)
    for half in preimages:
        full = (half << t) | (mask ^ _reverse_bits(half, t))
        partner = _rotate_bits(full, _k0_bits(full, length), length)
        bits = min(full, partner)
        if bits >> t in preimages:
            return HalfTurnWord(BinaryWord(bits, length))
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

    Slots are grouped m at a time; the first slot of every group after the
    first, plus the final slot, are forced, and the rest choose signs freely.
    For each free assignment the forced slots are set to the first value
    combination (in sign order) that keeps every cyclic run at most m; free
    patterns admitting no such combination are skipped.  The number of free
    slots is at least t - floor(t/m) - 1, which is what makes these words a
    counting witness for the lower bound on bounded-run classes.

    The combination is found by an iterative depth-first search over the
    forced slots, -1 before +1, so its depth is no limit on t.  Setting a
    slot tests only the run through it, read up to the entry before the next
    forced slot, and a complete word tests only the run that wraps from its
    last entry to its first.  That is exact: every other run of the known
    entries was tested whole at an earlier slot, or lies in a stretch of free
    entries, at most m long (the first m entries) or shorter than m (those
    between two forced slots, which are at most m apart).
    """
    _check_size("t", t)
    _check_size("run bound m", min(m, t))
    forced = sorted({*range(m, t, m), t - 1})
    slots = [1 << (t - 1 - g) for g in forced]
    free = (1 << t) - 1 - sum(slots)
    # per forced slot: the bit b of its entry, the shift b + 1 that leaves the
    # entries before it, and the shift and mask that leave the free entries
    # up to the next forced slot, the n bits b-1 .. b-n
    spans = [
        (1 << b, b + 1, b - n, (1 << n) - 1, n)
        for b, n in ((t - 1 - g, end - g - 1) for g, end in zip(forced, (*forced[1:], t)))
    ]
    last = spans[-1]
    mask = (1 << t) - 1

    def wrap_fits(bits: int) -> bool:
        # the run through the last and first entries; every other cyclic run
        # is a linear run, and a constant word's one run was tested linearly
        if bits >> (t - 1) != bits & 1:
            return True
        if bits & 1:
            bits ^= mask
        # leading and trailing -1s, or none for the constant word
        return not bits or t - bits.bit_length() + (bits & -bits).bit_length() - 1 <= m

    # entry j is bit t-1-j, so increasing order of the free assignments is
    # entry order; the submask step walks the subsets of free in that order
    # (Knuth, TAOCP 4A, 7.1.3)
    subset = 0
    while True:
        bits, k = subset, 0
        while k >= 0:
            # bits holds the choices of slots 0..k, and -1 at every later slot
            slot, shift, low, tail, n = span = spans[k]
            # x holds the sign of slot k as +1, so the run through the slot is
            # the +1s that end the entries before it, its own entry, and the
            # +1s that start the free entries after it
            x = bits if bits & slot else bits ^ mask
            above = x >> shift
            run = (above ^ (above + 1)).bit_length() + n - (tail ^ (x >> low & tail)).bit_length()
            if run <= m:
                if span is not last:
                    k += 1
                    continue
                if wrap_fits(bits):
                    yield BinaryWord(bits, t)
                    break
            # the next choice in sign order: raise slot k, or clear it and
            # back up to the last slot still at -1
            while k >= 0 and bits & slots[k]:
                bits ^= slots[k]
                k -= 1
            if k >= 0:
                bits |= slots[k]
        if subset == free:
            return
        subset = (subset - free) & free
