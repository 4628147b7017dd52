import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import groupby, islice
from pathlib import Path

import pytest

from modgeod import binwords, enumeration
from modgeod.binwords import (
    BinaryWord,
    Composition,
    HalfTurnWord,
    canonical_form,
    max_cyclic_run,
    primitive_root,
    rotate,
)
from modgeod.counting import (
    bounded_compositions,
    necklace_count,
    primitive_class_count,
    reciprocal_count,
)
from modgeod.enumeration import (
    canonical_reciprocal,
    classes,
    lower_bound_witnesses,
    phi,
    phi_inverse,
    power_map,
    reciprocal_classes,
)

import oracles


def W(text):
    return BinaryWord.from_text(text)


# ---------------------------------------------------------------------------
# class enumeration

def test_classes_examples():
    assert [str(w) for w in classes(2)] == ["--", "-+", "++"]
    assert [str(w) for w in classes(3, primitive=True)] == ["--+", "-++"]
    assert sum(1 for _ in classes(3, m=2)) == 2
    assert all(not w.is_constant for w in classes(3, m=2))


@pytest.mark.parametrize("tau", range(1, 12))
def test_classes_against_tuple_oracle(tau):
    # sequence equality: the generator must emit the sorted oracle, in order
    constants = {(-1,) * tau, (1,) * tau}
    everything = oracles.class_reps(tau)
    for primitive in (False, True):
        for hyperbolic in (False, True):
            for m in (None, 1, 2, 3, tau):
                expected = sorted(
                    w
                    for w in everything
                    if (not primitive or oracles.is_primitive_tuple(w))
                    and not (hyperbolic and w in constants)
                    and (m is None or oracles.max_cyclic_run_tuple(w) <= m)
                )
                got = [
                    w.entries
                    for w in classes(tau, primitive=primitive, m=m, hyperbolic=hyperbolic)
                ]
                assert got == expected, (primitive, hyperbolic, m)


def test_classes_counts_match_formulas():
    for tau in range(1, 15):
        assert sum(1 for _ in classes(tau)) == necklace_count(tau)
        assert sum(1 for _ in classes(tau, primitive=True)) == primitive_class_count(tau)
    assert sum(1 for _ in classes(20)) == necklace_count(20)


def test_classes_emission_is_sorted_canonical():
    out = list(classes(8))
    assert out == sorted(out)
    assert all(canonical_form(w) == w for w in out)


def test_classes_run_bound_at_a_thousand_entries():
    # the walk is iterative: a thousand-entry word needs no deep call stack
    assert list(classes(1201, m=1)) == []
    assert [str(w) for w in classes(1200, m=1)] == ["-+" * 600]


def test_classes_validation():
    with pytest.raises(ValueError):
        list(classes(0))
    with pytest.raises(ValueError):
        list(classes(3, m=0))


# ---------------------------------------------------------------------------
# reciprocal enumeration

def test_reciprocal_examples():
    only = list(reciprocal_classes(1))
    assert [str(h.word) for h in only] == ["-+"]
    assert sum(1 for _ in reciprocal_classes(3)) == 4
    low = list(reciprocal_classes(2, 1))
    assert [str(h.word) for h in low] == ["-+-+"]


def test_reciprocal_counts_and_canonicality():
    for t in range(1, 13):
        reps = list(reciprocal_classes(t))
        assert len(reps) == 1 << (t - 1)
        for h in reps:
            assert h == canonical_reciprocal(h)
        prim = list(reciprocal_classes(t, primitive=True))
        assert len(prim) == reciprocal_count(t, primitive=True)
        assert all(primitive_root(h.word)[1] == 1 for h in prim)


def test_canonical_reciprocal_matches_the_tuple_oracle_on_every_mirrored_word():
    # kept words and their partners alike
    for t in range(1, 13):
        for half in range(1 << t):
            h = HalfTurnWord.from_half(BinaryWord(half, t))
            expected = oracles.smaller_mirrored_rotation(h.word.entries)
            assert canonical_reciprocal(h).word.entries == expected, h


def test_the_half_rule_keeps_one_of_each_complementary_pair():
    # the two run-profile preimages of a composition, which phi_inverse
    # decides between
    for t in range(1, 17):
        mask = (1 << t) - 1
        for half in range(1 << (t - 1)):
            keeps = [
                enumeration._half_rule(h, binwords._full_from_half_bits(h, t) & mask, t)
                for h in (half, half ^ mask)
            ]
            assert keeps.count(True) == 1, (t, half)


def test_reciprocal_against_tuple_oracle():
    # each class once, as the smaller mirrored member of its orbit, in order
    for t in range(1, 9):
        smaller = oracles.smaller_mirrored_reps(t)
        for primitive in (False, True):
            for m in (None, 1, 2, 3, t):
                expected = sorted(
                    w
                    for w in smaller
                    if (not primitive or oracles.is_primitive_tuple(w))
                    and (m is None or oracles.max_cyclic_run_tuple(w) <= m)
                )
                got = [h.word.entries for h in reciprocal_classes(t, m, primitive=primitive)]
                assert got == expected, (t, primitive, m)


def test_reciprocal_half_compare_matches_rotation_definition():
    # the generator decides canonicity from the two halves; by definition a
    # word is kept unless its rotation by k0, onto its partner, is smaller
    for t in range(1, 13):
        kept = []
        for half in range(1 << t):
            h = HalfTurnWord.from_half(BinaryWord(half, t))
            if not rotate(h.word, h.k0).bits < h.word.bits:
                kept.append((h.word.bits, h.k0, max_cyclic_run(h.word)))
        for primitive in (False, True):
            for m in (None, *range(1, t + 1)):
                expected = [
                    (bits, k0)
                    for bits, k0, run in kept
                    if (not primitive or k0 == t) and (m is None or run <= m)
                ]
                got = [
                    (h.word.bits, h.k0)
                    for h in reciprocal_classes(t, m, primitive=primitive)
                ]
                assert got == expected, (t, m, primitive)


def test_reciprocal_classes_find_each_period_once(monkeypatch):
    # the canonical test and the constructor need no period, so what is left
    # is the one the walk computes for each word with a proper period to give
    # its k0; with primitive the walk drops such words unscanned
    real = binwords._smallest_period_bits
    calls = 0

    def counted(bits, t):
        nonlocal calls
        calls += 1
        return real(bits, t)

    monkeypatch.setattr(binwords, "_smallest_period_bits", counted)
    monkeypatch.setattr(enumeration, "_smallest_period_bits", counted)
    for t, m in ((1, None), (8, None), (10, 3), (12, None), (12, 2)):
        k0s = [h.k0 for h in reciprocal_classes(t, m)]
        periodic = sum(k0 != t for k0 in k0s)
        assert periodic > 0 or t == 1, (t, m)
        for primitive in (False, True):
            calls = 0
            built = sum(1 for _ in reciprocal_classes(t, m, primitive=primitive))
            assert built and calls == (0 if primitive else periodic), (t, m, primitive)


@pytest.fixture(scope="module")
def mirrored_oracle():
    # per t <= 12: the tuple oracle's smaller mirrored members in order, each
    # with its return shift, whether it is primitive and its longest cyclic run
    return {
        t: [
            (w, oracles.return_shift_tuple(w), oracles.is_primitive_tuple(w),
             oracles.max_cyclic_run_tuple(w))
            for w in sorted(oracles.smaller_mirrored_reps(t))
        ]
        for t in range(1, 13)
    }


@pytest.mark.parametrize("block", [None, 3])
def test_reciprocal_chunks_match_tuple_oracle(monkeypatch, mirrored_oracle, block):
    # the one reciprocal walk behind the CLI rows and reciprocal_classes: its
    # words are the smaller mirrored members and its k0s their return shifts.
    # Blocks of three halves put kept and periodic words on block edges, leave
    # some blocks keeping none, and at even t give the halving test halves
    # equal to their own mirror
    if block is not None:
        monkeypatch.setattr(enumeration, "_RECIPROCAL_BLOCK", block)
    for t, reps in mirrored_oracle.items():
        for m in (None, 1, 2, 3, 4, t):
            for primitive in (False, True):
                expected = [
                    (w, k0)
                    for w, k0, prim, run in reps
                    if (not primitive or prim) and (m is None or run <= m)
                ]
                chunks = list(enumeration._reciprocal_chunks(t, m, primitive))
                assert all(words and len(words) == len(k0s) for words, k0s in chunks)
                got = [
                    (BinaryWord(bits, 2 * t).entries, k0)
                    for words, k0s in chunks
                    for bits, k0 in zip(words, k0s)
                ]
                assert got == expected, (t, m, primitive, block)


def test_reciprocal_chunks_are_the_checked_blocks_that_keep_a_word(monkeypatch):
    # past the oracle's reach, the k0s agree with the checked constructor's,
    # which come from its own period scan
    for t in range(1, 17):
        for m in (None, *range(1, 7)):
            chunks = list(enumeration._reciprocal_chunks(t, m, False))
            reps = list(reciprocal_classes(t, m))
            assert [w for words, _ in chunks for w in words] == [h.word.bits for h in reps]
            assert [k for _, k0s in chunks for k in k0s] == [h.k0 for h in reps], (t, m)
    # with no run bound, the halves are 0, 1, ..., so a chunk is the kept
    # words whose halves share a block of three
    monkeypatch.setattr(enumeration, "_RECIPROCAL_BLOCK", 3)
    for t in range(1, 11):
        for primitive in (False, True):
            kept = [h.word.bits for h in reciprocal_classes(t, primitive=primitive)]
            blocks = [list(g) for _, g in groupby(kept, key=lambda bits: (bits >> t) // 3)]
            chunks = enumeration._reciprocal_chunks(t, None, primitive)
            assert [words for words, _ in chunks] == blocks, (t, primitive)


@pytest.mark.parametrize("t, m", [(0, None), (-1, 2), (3, 0)])
def test_reciprocal_chunks_validation(t, m):
    for primitive in (False, True):
        with pytest.raises(ValueError):
            next(enumeration._reciprocal_chunks(t, m, primitive))


@pytest.mark.parametrize(
    "words",
    [classes, reciprocal_classes, enumeration._reciprocal_chunks, lower_bound_witnesses],
    ids=lambda words: words.__name__,
)
def test_sizes_past_maxsize_are_refused_on_the_first_pull(words):
    # refused before any table of about t entries is built, past sys.maxsize
    # as past the counters' ceiling of 10**7
    for huge in (sys.maxsize + 1, sys.maxsize, 10**7 + 1):
        if words is lower_bound_witnesses:
            pulled = words(huge, 3)
        elif words is enumeration._reciprocal_chunks:
            pulled = words(huge, None, False)
        else:
            pulled = words(huge)
        with pytest.raises(ValueError, match="must be <= 10000000"):
            next(pulled)


_SRC = Path(__file__).resolve().parents[1] / "src"


def _first_words_under_600_mb(expr):
    # evaluate expr in a fresh interpreter whose address space is capped at
    # 600 MB, so that a table built before the first word ends there
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))\n"
        "from itertools import islice\n"
        "from modgeod import enumeration\n"
        f"print({expr})\n"
    )
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=20
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_long_reciprocal_words_come_before_any_table():
    # halves past 32 entries are reversed word by word, not looked up in two
    # tables of 2^(t/2) entries each
    def mirrored(half, t):
        return half << t | int(format(half, f"0{t}b")[::-1].translate({48: 49, 49: 48}), 2)

    first = [mirrored(half, 60) for half in range(3)]
    out = _first_words_under_600_mb(
        "[h.word.bits for h in islice(enumeration.reciprocal_classes(60), 3)],"
        "next(enumeration._reciprocal_chunks(60, None, False))[0][:3]"
    )
    assert out == f"{first} {first}\n"


@pytest.mark.parametrize("t", range(1, 41))
def test_mirror_tables_give_the_complemented_reversal(t):
    # past 32 entries the halves are mirrored one by one, not tabulated
    low, low_mask, s_low, s_high = enumeration._mirror_tables(t)
    rng = random.Random(t)
    halves = range(1 << t)
    if t > 12:
        halves = [0, (1 << t) - 1, *(rng.getrandbits(t) for _ in range(500))]
    for half in halves:
        mirror = int(format(half, f"0{t}b")[::-1].translate({48: 49, 49: 48}), 2)
        assert s_low[half & low_mask] | s_high[half >> low] == mirror, (t, half)


def _s(half, t):
    # s(h), the reversed negation of a half of t entries, by its text
    return int(format(half, f"0{t}b")[::-1].translate({48: 49, 49: 48}), 2)


def _periodic_halves(t, m):
    # halves h whose mirrored word h.s(h) is (a.s(a))^r, for a prime r
    # dividing t and a root a of t/r entries, that the rule keeps and whose
    # runs are at most m: two per prime, from the ends of its list
    found = []
    for r in (r for r in range(2, t + 1) if t % r == 0 and all(r % q for q in range(2, r))):
        n = t // r
        roots = range(1 << n) if n <= 12 else random.Random(t).sample(range(1 << n), 4096)
        halves = []
        for root in roots:
            unit = format(root, f"0{n}b") + format(_s(root, n), f"0{n}b")
            half = int((unit * r)[:t], 2)
            text = format(half, f"0{t}b")
            if m is not None and ("0" * (m + 1) in text or "1" * (m + 1) in text):
                continue
            if _s(half, t) > half or _s(half, t) == half and enumeration._half_rule(half, half, t):
                halves.append(half)
        found += sorted(halves)[:1] + sorted(halves)[-1:]
    return found


@pytest.mark.parametrize("m", [None, 3])
@pytest.mark.parametrize("size", [enumeration._RECIPROCAL_BLOCK, 3])
@pytest.mark.parametrize("t", [15, 18, 20, 21, 45])
def test_block_chunks_give_periodic_words_their_k0(t, size, m):
    # 15 and 21 have two odd primes, 18 and 20 are twice an odd prime's
    # multiple, and halves of 45 entries are past _TABULATED_HALF.  Each block
    # holds a periodic word: with no run bound, the range of size halves that
    # the walk reads; under a bound, up to size of the nearby halves whose
    # runs are at most m, a list as the walk reads it
    length = 2 * t
    chunk_of = enumeration._block_chunker(t, False)
    primitive_chunk_of = enumeration._block_chunker(t, True)
    periodic = _periodic_halves(t, m)
    assert periodic
    for half in periodic:
        if m is None:
            start = half - half % size
            block = range(start, min(start + size, 1 << t))
        else:
            near = [
                x for x in range(max(0, half - 4 * size), min(1 << t, half + 4 * size))
                if "0" * (m + 1) not in format(x, f"0{t}b")
                and "1" * (m + 1) not in format(x, f"0{t}b")
            ]
            i = near.index(half)
            block = near[max(0, i - size // 2):][:size]
        words, k0s = chunk_of(block)
        expected = [
            (x << t) | _s(x, t)
            for x in block
            if _s(x, t) > x or _s(x, t) == x and enumeration._half_rule(x, x, t)
        ]
        assert words == expected, (t, size, m, half)
        assert k0s == [binwords._k0_bits(w, length) for w in words], (t, size, m, half)
        # the chosen word is there, with a proper period
        word = (half << t) | _s(half, t)
        k0 = k0s[words.index(word)]
        assert k0 < t and k0 == oracles.return_shift_tuple(BinaryWord(word, length).entries)
        assert primitive_chunk_of(block) == (
            [w for w, k in zip(words, k0s) if k == t], [t] * k0s.count(t)
        )


def test_class_bits_are_the_words_of_classes():
    # every filter combination, run bounds past tau included
    for tau in range(1, 15):
        for primitive in (False, True):
            for hyperbolic in (False, True):
                for m in (None, *range(1, tau + 2)):
                    flags = {"primitive": primitive, "m": m, "hyperbolic": hyperbolic}
                    words = [w.bits for w in classes(tau, **flags)]
                    assert list(enumeration._class_bits(tau, **flags)) == words, (tau, flags)


def test_long_classes_build_their_extension_factors_as_the_walk_needs_them():
    out = _first_words_under_600_mb(
        "[w.bits for w in islice(enumeration.classes(60000, primitive=True), 2)]"
    )
    assert out == "[1, 3]\n"


def test_classes_keep_no_table_of_tau_entries():
    # the walk reaches two prefix lengths before its second word, so it
    # holds two extensions, not lists of tau + 1 entries
    tracemalloc.start()
    try:
        words = [w.bits for w in islice(classes(10**6, primitive=True), 2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words == [1, 3]
    assert peak < 2 << 20


def test_long_witnesses_come_before_any_table():
    # the free entries all -1, then the last free entry (77) +1, then the one
    # before it (76); entries 3, 6, ..., 78 negate the entry before them and
    # entry 79 negates entry 0
    first = ["---" + "+--" * 25 + "++", "---" + "+--" * 24 + "+-+-+"]
    first.append("---" + "+--" * 24 + "++-++")
    out = _first_words_under_600_mb(
        "[str(w) for w in islice(enumeration.lower_bound_witnesses(80, 3), 3)]"
    )
    assert out == f"{first}\n"


def test_reciprocal_lowlying_matches_compositions():
    for t in range(1, 11):
        for m in range(1, t + 1):
            n = sum(1 for _ in reciprocal_classes(t, m))
            assert n == bounded_compositions(t, m)
    assert sum(1 for _ in reciprocal_classes(18, 3)) == bounded_compositions(18, 3)


# ---------------------------------------------------------------------------
# the composition bijection

def test_phi_examples():
    h = HalfTurnWord.from_half(W("---++-+"))
    assert h == canonical_reciprocal(h)
    assert phi(h).parts == (3, 2, 1, 1)

    only = phi_inverse(Composition((1,)))
    assert only.t == 1

    images = {phi(h).parts for h in reciprocal_classes(4, 2)}
    assert images == {c for c in map(tuple, oracles.bounded_compositions_list(4, 2))}
    assert len(images) == 5


def test_phi_round_trip_exhaustive():
    for t in range(1, 11):
        for h in reciprocal_classes(t):
            c = phi(h)
            assert c.total == t
            assert max(c.parts) == max_cyclic_run(h.word)
            assert phi_inverse(c) == h


def test_phi_inverse_round_trip_from_compositions():
    for t in range(1, 9):
        for parts in oracles.compositions(t):
            h = phi_inverse(Composition(parts))
            assert phi(h).parts == parts


def test_phi_inverse_validation():
    with pytest.raises(ValueError):
        phi_inverse(Composition(()))


def _phi_inverse_by_objects(parts):
    # phi_inverse by its definition, on entry tuples and apart from the half
    # rule: the smaller mirrored rotation of each preimage's mirrored word,
    # kept when its half maps back onto parts
    t = sum(parts)
    for leading in (-1, 1):
        half = oracles.composition_entries(parts, leading)
        smaller = oracles.smaller_mirrored_rotation(half + tuple(-e for e in reversed(half)))
        if oracles.runs_tuple(smaller[:t]) == parts:
            return smaller
    raise AssertionError(f"no smaller mirrored rotation maps onto {parts!r}")


def test_phi_inverse_matches_the_object_route():
    for t in range(1, 13):
        for parts in oracles.compositions(t):
            h = phi_inverse(Composition(parts))
            assert h.word.entries == _phi_inverse_by_objects(parts), parts


def test_phi_inverse_raises_where_the_rule_keeps_neither_preimage(monkeypatch):
    # a rule that keeps only the mirrored word whose half is all -1, which
    # maps back only onto (t,)
    monkeypatch.setattr(enumeration, "_half_rule", lambda half, mirror, t: half == 0)
    for parts in oracles.compositions(5):
        c = Composition(parts)
        if parts == (5,):
            assert phi_inverse(c).word.entries == _phi_inverse_by_objects(parts)
            continue
        with pytest.raises(enumeration.ContractViolationError, match=re.escape(repr(parts))):
            phi_inverse(c)


# ---------------------------------------------------------------------------
# power map

def test_power_map_examples():
    assert power_map(W("+-"), 2) == canonical_form(W("+-+-"))

    nonprim6 = [w for w in classes(6) if primitive_root(w)[1] > 1]
    assert len(nonprim6) == 5 == necklace_count(6) - primitive_class_count(6)

    images8 = set()
    for s in (1, 2):
        for z in classes(s, primitive=True):
            images8.add(power_map(z, 4 // s))
    nonprim8 = {w for w in classes(4) if primitive_root(w)[1] > 1}
    assert images8 == nonprim8
    assert len(images8) == 3


def test_power_map_partitions_nonprimitive():
    for tau in range(2, 13):
        images = []
        for s in range(1, tau):
            if tau % s:
                continue
            images.extend(power_map(z, tau // s) for z in classes(s, primitive=True))
        assert len(images) == len(set(images))
        assert set(images) == {w for w in classes(tau) if primitive_root(w)[1] > 1}


def test_power_map_validation():
    with pytest.raises(ValueError):
        power_map(W("+-+-"), 2)
    with pytest.raises(ValueError):
        power_map(W("+-"), 1)


# ---------------------------------------------------------------------------
# lower-bound witness generator

def test_witnesses_stay_low_lying_and_plentiful():
    # the proof's 2^(t - ceil(t/m)) distinct, non-constant words, m read as t
    # where it bounds nothing, so at least 2^(t - floor(t/m) - 1) / t classes;
    # the alternating words at m = 1, and both one-entry words
    for t in range(1, 15):
        for m in (*range(1, 12), 10**8):
            words = list(lower_bound_witnesses(t, m))
            bits = {w.bits for w in words}
            if t == 1:
                expected = 2
            elif m == 1:
                expected = 2 if t % 2 == 0 else 0
            else:
                expected = 1 << (t - -(-t // min(m, t)))
                assert not {0, (1 << t) - 1} & bits, (t, m)
                distinct = {canonical_form(w) for w in words}
                assert len(distinct) >= -(-(1 << max(t - t // m - 1, 0)) // t), (t, m)
            assert len(bits) == len(words) == expected, (t, m)
            assert all(max_cyclic_run(w) <= m for w in words), (t, m)


def test_witnesses_match_entry_oracle():
    # m >= t from m = t + 1 through 8, and m = t past that
    for t in range(1, 17):
        for m in sorted({*range(1, 9), t}):
            words = [w.entries for w in lower_bound_witnesses(t, m)]
            assert words == list(oracles.witness_entries(t, m)), (t, m)


@pytest.mark.parametrize("t, m", [(20_000, 2), (5000, 3)])
def test_witnesses_serve_lengths_past_the_recursion_limit(t, m):
    # one forced slot per m entries: a search that recursed once per slot
    # overflowed the interpreter's recursion limit on the first pull
    words = list(islice(lower_bound_witnesses(t, m), 3))
    assert len(words) == 3
    assert all(w.length == t and max_cyclic_run(w) <= m for w in words)
    assert len(set(words)) == 3


def test_witnesses_deterministic():
    a = list(lower_bound_witnesses(9, 2))
    b = list(lower_bound_witnesses(9, 2))
    assert a == b
