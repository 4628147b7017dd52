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


@pytest.mark.parametrize("t, m", [(0, None), (-1, 2), (3, 0)])
def test_reciprocal_bits_validation(t, m):
    with pytest.raises(ValueError):
        next(enumeration._reciprocal_bits(t, m))


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


def test_witnesses_deterministic():
    a = list(lower_bound_witnesses(9, 2))
    b = list(lower_bound_witnesses(9, 2))
    assert a == b
