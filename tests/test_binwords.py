import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modgeod.binwords import (
    BinaryWord,
    Composition,
    HalfTurnWord,
    canonical_form,
    from_composition,
    half_turn_partner,
    is_half_turn,
    max_cyclic_run,
    primitive_root,
    rotate,
    runs_of,
    _is_half_turn_bits,
    _k0_bits,
    _max_cyclic_run_bits,
    _min_rotation_bits,
    _reverse_bits,
    _smallest_period_bits,
)

import oracles

words = st.builds(
    BinaryWord.from_entries,
    st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=24),
)
half_lengths = st.integers(min_value=1, max_value=10)


def W(text):
    return BinaryWord.from_text(text)


# ---------------------------------------------------------------------------
# construction and text round trip

def test_entries_round_trip():
    w = BinaryWord.from_entries([1, -1, -1])
    assert w.entries == (1, -1, -1)
    assert str(w) == "+--"
    assert BinaryWord.from_text("+--") == w


def test_text_ignores_whitespace():
    assert BinaryWord.from_text("+ + -") == W("++-")


@given(words)
def test_text_round_trip_bit_exact(w):
    assert BinaryWord.from_text(str(w)) == w


def test_bit_order_matches_lexicographic_order():
    # -1 encodes to bit 0, first entries sit in high bits
    pairs = sorted(oracles.all_words(4))
    encoded = sorted(oracles.all_words(4), key=lambda e: BinaryWord.from_entries(e).bits)
    assert pairs == encoded


@pytest.mark.parametrize(
    "bad",
    [lambda: BinaryWord(0, 0), lambda: BinaryWord(4, 2), lambda: BinaryWord(-1, 3)],
)
def test_invalid_construction(bad):
    with pytest.raises(ValueError):
        bad()


def test_invalid_entries_and_text():
    with pytest.raises(ValueError):
        BinaryWord.from_entries([1, 0, -1])
    with pytest.raises(ValueError):
        BinaryWord.from_text("+x-")
    with pytest.raises(ValueError):
        BinaryWord.from_text("   ")


# ---------------------------------------------------------------------------
# rotate

def test_rotate_examples():
    assert rotate(W("+--"), 1) == W("-+-")
    assert rotate(W("+--"), 3) == W("+--")
    # index arithmetic: entry j of the output is entry j-2 of the input
    assert rotate(W("++--"), 2) == BinaryWord.from_entries(
        oracles.rotate_tuple((1, 1, -1, -1), 2)
    )
    assert str(rotate(W("++--"), 2)) == "--++"


@given(words, st.integers(-30, 30), st.integers(-30, 30))
def test_rotate_group_action(w, i, j):
    assert rotate(rotate(w, i), j) == rotate(w, i + j)
    assert rotate(w, w.length) == w


# ---------------------------------------------------------------------------
# canonical form

def test_canonical_form_examples():
    # any rotation of the 12-entry block word has the same canonical form
    low = BinaryWord.from_entries((-1, -1, -1, 1, -1, -1, -1, 1, -1, -1, 1, 1))
    for k in range(12):
        assert canonical_form(rotate(low, k)) == low
    assert canonical_form(W("+++")) == W("+++")
    assert canonical_form(W("+-+-")) == BinaryWord.from_entries(
        oracles.canonical_tuple((1, -1, 1, -1))
    )
    assert str(canonical_form(W("+-+-"))) == "-+-+"


@given(words)
def test_canonical_matches_tuple_oracle(w):
    assert canonical_form(w).entries == oracles.canonical_tuple(w.entries)


def test_min_rotation_bits_matches_tuple_oracle_on_every_short_word():
    for t in range(1, 13):
        for entries in oracles.all_words(t):
            bits = BinaryWord.from_entries(entries).bits
            least = BinaryWord.from_entries(oracles.canonical_tuple(entries)).bits
            assert _min_rotation_bits(bits, t) == least, (t, entries)


def test_canonical_form_holds_one_rotation_at_a_time():
    # the 20 000 rotations of a 20 000-entry word, each a 2.7 kB int, would
    # hold about 54 MB if built at once
    t = 20_000
    w = BinaryWord(random.Random(7).getrandbits(t), t)
    tracemalloc.start()
    try:
        canonical_form(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(words, st.integers(0, 40))
def test_canonical_rotation_invariant_and_idempotent(w, k):
    c = canonical_form(w)
    assert canonical_form(rotate(w, k)) == c
    assert canonical_form(c) == c


# ---------------------------------------------------------------------------
# primitive root

def test_primitive_root_examples():
    assert primitive_root(W("+-+-")) == (W("+-"), 2)
    root, exp = primitive_root(W("++-"))
    assert (root, exp) == (W("++-"), 1)
    assert oracles.is_primitive_tuple((1, 1, -1))
    assert primitive_root(W("++++++")) == (W("+"), 6)


@given(words)
def test_primitive_root_reconstructs(w):
    root, exp = primitive_root(w)
    assert exp * root.length == w.length
    assert root.entries * exp == w.entries
    assert oracles.is_primitive_tuple(root.entries)
    assert (exp == 1) == oracles.is_primitive_tuple(w.entries)


def _smallest_period_by_scan(bits, t):
    # the first proper divisor p of t whose rotation fixes the text, else t
    text = format(bits, f"0{t}b")
    return next((p for p in range(1, t) if t % p == 0 and text[p:] + text[:p] == text), t)


def test_smallest_period_matches_a_divisor_scan_on_every_short_word():
    for t in range(1, 17):
        for bits in range(1 << t):
            assert _smallest_period_bits(bits, t) == _smallest_period_by_scan(bits, t), (t, bits)


@pytest.mark.parametrize("t", [720, 1024, 2310, 1009])
def test_smallest_period_matches_a_divisor_scan_on_seeded_long_words(t):
    # a random block of each divisor length, repeated: its smallest period is
    # that length or one of its divisors
    rng = random.Random(t)
    for d in [d for d in range(1, t + 1) if t % d == 0]:
        for _ in range(3):
            block = rng.getrandbits(d)
            bits = int(format(block, f"0{d}b") * (t // d), 2)
            assert _smallest_period_bits(bits, t) == _smallest_period_by_scan(bits, t), (t, d)


# ---------------------------------------------------------------------------
# cyclic runs

def test_max_cyclic_run_examples():
    assert max_cyclic_run(W("++-")) == oracles.max_cyclic_run_tuple((1, 1, -1)) == 2
    assert max_cyclic_run(W("---")) == 3
    # the two +'s wrap around the seam
    assert max_cyclic_run(W("+--+")) == oracles.max_cyclic_run_tuple((1, -1, -1, 1)) == 2


@given(words, st.integers(0, 40))
def test_max_cyclic_run_oracle_and_rotation_invariance(w, k):
    assert max_cyclic_run(w) == oracles.max_cyclic_run_tuple(w.entries)
    assert max_cyclic_run(rotate(w, k)) == max_cyclic_run(w)


def test_max_cyclic_run_bits_matches_tuple_oracle():
    for t in range(1, 15):
        for entries in oracles.all_words(t):
            bits = BinaryWord.from_entries(entries).bits
            assert _max_cyclic_run_bits(bits, t) == oracles.max_cyclic_run_tuple(entries)
    rng = random.Random(3)
    for t in range(15, 201):
        k = rng.randint(1, t - 1)
        cases = [
            (-1,) * t,
            (1,) * t,
            # one long run that wraps round the seam
            (1,) * k + (-1,) + (1,) * (t - k - 1),
        ]
        cases += [tuple(rng.choice((-1, 1)) for _ in range(t)) for _ in range(3)]
        for entries in cases:
            bits = BinaryWord.from_entries(entries).bits
            assert _max_cyclic_run_bits(bits, t) == oracles.max_cyclic_run_tuple(entries)


def test_constant_words_fail_small_run_bounds():
    w = W("-----")
    assert max_cyclic_run(w) == 5
    assert all(max_cyclic_run(w) > m for m in range(1, 5))


# ---------------------------------------------------------------------------
# half-turn words

def test_half_turn_partner_examples():
    h = HalfTurnWord(W("+-"))
    partner, k0 = half_turn_partner(h)
    assert (str(partner.word), k0) == ("-+", 1)
    assert k0 == h.t == 1

    h = HalfTurnWord(W("++--"))
    partner, k0 = half_turn_partner(h)
    assert (str(partner.word), k0) == ("--++", 2)
    assert k0 == h.t == 2
    assert primitive_root(h.word)[1] == 1

    h = HalfTurnWord(W("+-+-"))
    partner, k0 = half_turn_partner(h)
    assert (str(partner.word), k0) == ("-+-+", 1)
    assert k0 == 1 < h.t == 2
    assert primitive_root(h.word) == (W("+-"), 2)


def test_half_turn_rejects_bad_words():
    with pytest.raises(ValueError):
        HalfTurnWord(W("++"))
    with pytest.raises(ValueError):
        HalfTurnWord(W("+-+"))


def test_k0_rejects_a_word_with_odd_smallest_period():
    with pytest.raises(ValueError, match=r"--\+"):
        _k0_bits(0b001, 3)


def test_reverse_bits_matches_string_reversal():
    rng = random.Random(7)
    for t in range(1, 71):
        mask = (1 << t) - 1
        for bits in (0, mask, 1, 1 << (t - 1), *(rng.getrandbits(t) for _ in range(20))):
            assert _reverse_bits(bits, t) == int(format(bits, f"0{t}b")[::-1], 2), (t, bits)


def test_is_half_turn_matches_oracle():
    for t in range(1, 7):
        for entries in oracles.all_words(2 * t):
            w = BinaryWord.from_entries(entries)
            assert is_half_turn(w) == oracles.is_mirrored_tuple(entries)


def test_is_half_turn_matches_string_definition():
    # every word of every length 1..18, odd lengths included
    to_signs = str.maketrans("01", "-+")
    for n in range(1, 19):
        for bits in range(1 << n):
            text = format(bits, f"0{n}b").translate(to_signs)
            assert _is_half_turn_bits(bits, n) == oracles.is_mirrored_text(text), text


def test_is_half_turn_matches_string_definition_on_seeded_long_words():
    # half-lengths 10..20, across the two-byte table's edge at 16: mirrored
    # words, and each with one entry flipped
    to_signs = str.maketrans("01", "-+")
    rng = random.Random(16)
    for t in range(10, 21):
        n = 2 * t
        for _ in range(200):
            half = rng.getrandbits(t)
            mirrored = (half << t) | (~_reverse_bits(half, t) & ((1 << t) - 1))
            for bits in (mirrored, mirrored ^ (1 << rng.randrange(n)), rng.getrandbits(n)):
                text = format(bits, f"0{n}b").translate(to_signs)
                assert _is_half_turn_bits(bits, n) == oracles.is_mirrored_text(text), text


@given(half_lengths, st.integers(0, 1023))
def test_half_turn_partner_properties(t, seed):
    half = BinaryWord(seed % (1 << t), t)
    h = HalfTurnWord.from_half(half)
    assert h.half == half
    partner, k0 = half_turn_partner(h)
    assert 1 <= k0 <= t
    assert partner.word != h.word
    assert is_half_turn(partner.word)
    # the orbit meets the mirrored family in exactly the pair {h, partner}
    back, _ = half_turn_partner(partner)
    assert back.word == h.word


# ---------------------------------------------------------------------------
# run profiles and their inverses

def test_runs_of_examples():
    assert runs_of(W("---++-+")).parts == (3, 2, 1, 1)
    assert runs_of(W("+")).parts == (1,)
    assert runs_of(W("+-+-")).parts == oracles.runs_tuple((1, -1, 1, -1)) == (1, 1, 1, 1)


def test_from_composition_examples():
    assert from_composition(Composition((3, 2, 1, 1)), -1) == W("---++-+")
    assert from_composition(Composition((1,)), 1) == W("+")
    assert from_composition(Composition((2, 2)), 1) == W("++--")


def test_runs_of_matches_groupby_oracle():
    for t in range(1, 15):
        for entries in oracles.all_words(t):
            assert runs_of(BinaryWord.from_entries(entries)).parts == oracles.runs_tuple(entries)


def test_from_composition_matches_entry_oracle():
    for t in range(1, 15):
        for parts in oracles.compositions(t):
            for leading in (-1, 1):
                word = from_composition(Composition(parts), leading)
                assert word.entries == oracles.composition_entries(parts, leading)


def test_from_composition_rejects_the_empty_composition():
    with pytest.raises(ValueError, match="word length must be a positive integer"):
        from_composition(Composition(()), 1)


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition((1, 0, 2))
    with pytest.raises(ValueError):
        from_composition(Composition((2,)), 0)
    assert Composition((2, 3)).total == 5


@given(words)
def test_runs_round_trip(w):
    c = runs_of(w)
    assert c.total == w.length
    assert from_composition(c, w.entries[0]) == w
    # the two leading signs give the only two preimages
    flipped = from_composition(c, -w.entries[0])
    assert flipped.entries == tuple(-e for e in w.entries)
    assert runs_of(flipped) == c
