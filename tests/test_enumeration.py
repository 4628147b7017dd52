import os
import re
import subprocess
import sys
import tracemalloc
from itertools import islice
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
    # the canonical test needs no period, so the only one left is the one the
    # constructor of each kept word computes, primitive or not
    real = binwords._smallest_period_bits
    calls = 0

    def counted(bits, t):
        nonlocal calls
        calls += 1
        return real(bits, t)

    monkeypatch.setattr(binwords, "_smallest_period_bits", counted)
    monkeypatch.setattr(enumeration, "_smallest_period_bits", counted)
    for t, m in ((1, None), (8, None), (10, 3), (12, None), (12, 2)):
        built = sum(1 for _ in reciprocal_classes(t, m))
        for primitive in (False, True):
            calls = 0
            for _ in reciprocal_classes(t, m, primitive=primitive):
                pass
            assert calls == built, (t, m, primitive)


def test_reciprocal_bits_match_generator_and_tuple_oracle():
    # the core yields the public generator's words, in its order; through
    # t = 12 they are also the tuple oracle's smaller mirrored members
    for t in range(1, 17):
        smaller = sorted(oracles.smaller_mirrored_reps(t)) if t <= 12 else None
        for m in (None, *range(1, 7)):
            core = list(enumeration._reciprocal_bits(t, m))
            assert core == [h.word.bits for h in reciprocal_classes(t, m)], (t, m)
            if smaller is not None:
                expected = [
                    w for w in smaller if m is None or oracles.max_cyclic_run_tuple(w) <= m
                ]
                assert [BinaryWord(bits, 2 * t).entries for bits in core] == expected, (t, m)


def test_reciprocal_bits_blocks_match_tuple_oracle(monkeypatch):
    # blocks of three halves: kept words fall on block edges, some blocks keep
    # none, and at even t the halves equal to their own mirror take the
    # halving test
    monkeypatch.setattr(enumeration, "_RECIPROCAL_BLOCK", 3)
    for t in range(1, 11):
        smaller = sorted(oracles.smaller_mirrored_reps(t))
        for m in (None, 1, 2, 3, 4, t):
            expected = [w for w in smaller if m is None or oracles.max_cyclic_run_tuple(w) <= m]
            core = enumeration._reciprocal_bits(t, m)
            assert [BinaryWord(bits, 2 * t).entries for bits in core] == expected, (t, m)
    for t, m in [(0, None), (3, 0)]:
        words = enumeration._reciprocal_bits(t, m)  # checked on the first pull
        with pytest.raises(ValueError):
            next(words)


def test_reciprocal_chunks_are_the_checked_blocks_that_keep_a_word(monkeypatch):
    # blocks of three halves, some keeping no word: each chunk is one block
    # that keeps a word, with the k0s of the checked constructor
    monkeypatch.setattr(enumeration, "_RECIPROCAL_BLOCK", 3)
    for t in range(1, 11):
        for m in (None, 1, 2, 3):
            for primitive in (False, True):
                chunks = list(enumeration._reciprocal_chunks(t, m, primitive))
                assert all(words for words, _ in chunks), (t, m, primitive)
                reps = list(reciprocal_classes(t, m, primitive=primitive))
                assert [w for words, _ in chunks for w in words] == [h.word.bits for h in reps]
                assert [k for _, k0s in chunks for k in k0s] == [h.k0 for h in reps]
            blocks = [block for block in enumeration._reciprocal_blocks(t, m) if block]
            assert [words for words, _ in enumeration._reciprocal_chunks(t, m, False)] == blocks


@pytest.mark.parametrize("t, m", [(0, None), (-1, 2), (3, 0)])
def test_reciprocal_bits_validation(t, m):
    with pytest.raises(ValueError):
        next(enumeration._reciprocal_bits(t, m))


@pytest.mark.parametrize(
    "words",
    [classes, reciprocal_classes, enumeration._reciprocal_bits, lower_bound_witnesses],
    ids=lambda words: words.__name__,
)
def test_sizes_past_maxsize_are_refused_on_the_first_pull(words):
    # refused before any table of about t entries is built, past sys.maxsize
    # as past the counters' ceiling of 10**7
    for huge in (sys.maxsize + 1, sys.maxsize, 10**7 + 1):
        pulled = words(huge, 3) if words is lower_bound_witnesses else words(huge)
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
    # the free slots all -1, then the last free slot (entry 77) +1, then the
    # one before it (entry 76), each completed by the first forced setting
    # whose runs are at most 3
    first = ["---+" + "--+" * 24 + "---+", "---+" + "--+" * 24 + "-+-+"]
    first.append("---+" + "--+" * 23 + "---+--+")
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


def _phi_inverse_by_objects(c):
    # the object route phi_inverse took before it decided on packed bits
    if c.total < 1:
        raise ValueError("composition must have positive total")
    for leading in (-1, 1):
        candidate = canonical_reciprocal(
            HalfTurnWord.from_half(binwords.from_composition(c, leading))
        )
        if phi(candidate) == c:
            return candidate
    raise enumeration.ContractViolationError(
        f"no canonical reciprocal representative maps onto {c.parts!r}"
    )


def test_phi_inverse_matches_the_object_route():
    for t in range(1, 13):
        for parts in oracles.compositions(t):
            c = Composition(parts)
            h = phi_inverse(c)
            assert h == _phi_inverse_by_objects(c), parts


def test_phi_inverse_raises_where_the_object_route_does(monkeypatch):
    # a k0 rotation that lands on the mirrored word whose half is all -1 makes
    # that word the smaller of every pair, and it maps back only onto (t,)
    def onto_the_least(bits, k, length):
        return (1 << (length // 2)) - 1

    monkeypatch.setattr(binwords, "_rotate_bits", onto_the_least)
    monkeypatch.setattr(enumeration, "_rotate_bits", onto_the_least)
    for parts in oracles.compositions(5):
        c = Composition(parts)
        if parts == (5,):
            assert phi_inverse(c) == _phi_inverse_by_objects(c)
            continue
        for route in (phi_inverse, _phi_inverse_by_objects):
            with pytest.raises(enumeration.ContractViolationError, match=re.escape(repr(parts))):
                route(c)


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
    for m in (2, 3, 4):
        for t in range(1, 13):
            words = list(lower_bound_witnesses(t, m))
            assert all(max_cyclic_run(w) <= m for w in words)
            distinct = {canonical_form(w) for w in words}
            need = -(-(1 << max(t - t // m - 1, 0)) // t)
            assert len(distinct) >= need


def test_witnesses_match_entry_oracle():
    for m in range(1, 7):
        for t in range(1, 17):
            words = [w.entries for w in lower_bound_witnesses(t, m)]
            assert words == list(oracles.witness_entries(t, m)), (t, m)


@pytest.mark.parametrize("m", range(1, 9))
def test_witnesses_match_the_recursive_completion(m):
    # the iterative search yields the former recursion's words, in its order,
    # past the ceilings of the entry oracle and for m >= t too
    for t in range(1, 23):
        words = [w.bits for w in lower_bound_witnesses(t, m)]
        assert words == oracles.recursive_witness_bits(t, m), (t, m)


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
