import dataclasses
import itertools
import math
import sys
import time
import tracemalloc
from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modgeod import counting
from modgeod.counting import (
    PrecisionLimitError,
    _alpha_cached,
    _factorise,
    _mobius_sieve,
    _primitive_class_counts,
    _quotient_blocks,
    _run_bounded_words,
    alpha,
    bounded_compositions,
    closed_form_compositions,
    count,
    count_series,
    cumulative,
    growth_target,
    lowlying_lower_bound,
    necklace_count,
    primitive_class_count,
    reciprocal_count,
    rnd,
)
from modgeod.enumeration import (
    _reciprocal_chunks,
    classes,
    lower_bound_witnesses,
    reciprocal_classes,
)

import oracles


# ---------------------------------------------------------------------------
# necklace counts

def test_necklace_examples():
    assert necklace_count(1) == 2
    assert necklace_count(4) == (2 + 4 + 2 + 16) // 4 == 6
    assert necklace_count(6) == (2 + 4 + 8 + 4 + 2 + 64) // 6 == 14


@pytest.mark.parametrize("tau", range(1, 13))
def test_necklace_against_orbit_oracle(tau):
    assert necklace_count(tau) == len(oracles.class_reps(tau))


def test_necklace_divisor_sum_matches_shift_sum():
    # every tau to 300, then primes and highly composite tau near 2000
    for tau in (*range(1, 301), 1680, 1999, 2003, 2048, 2310, 2520):
        assert necklace_count(tau) == oracles.necklace_count_shifts(tau), tau


def test_necklace_domain_error():
    with pytest.raises(ValueError):
        necklace_count(0)


# ---------------------------------------------------------------------------
# primitive counts

def test_primitive_examples():
    assert primitive_class_count(2) == 1
    assert primitive_class_count(4) == 6 - 2 - 1 == 3
    assert primitive_class_count(6) == 14 - 2 - 1 - 2 == 9


@pytest.mark.parametrize("tau", range(1, 13))
def test_primitive_against_filter_oracle(tau):
    reps = oracles.class_reps(tau, predicate=oracles.is_primitive_tuple)
    assert primitive_class_count(tau) == len(reps)


def test_inversion_matches_divisor_peel_to_2000():
    T = 2000
    necklaces = [0] + [necklace_count(n) for n in range(1, T + 1)]
    reciprocal = [0] + [1 << (n - 1) for n in range(1, T + 1)]
    assert [primitive_class_count(n) for n in range(1, T + 1)] == (
        oracles.primitive_table(necklaces)[1:]
    )
    assert [reciprocal_count(n, primitive=True) for n in range(1, T + 1)] == (
        oracles.primitive_table(reciprocal)[1:]
    )


# every route of ``cumulative``: (family, m, primitive, include_torsion)
_SIEVED = [("classes", None, True, False), ("classes", None, False, False),
           ("classes", None, False, True), ("reciprocal", None, True, False),
           *(("lowlying-reciprocal", m, True, False) for m in range(1, 9)),
           ("reciprocal", None, False, False), ("compositions", None, False, False),
           *(("compositions", m, False, False) for m in (1, 3, 8)),
           *(("lowlying-reciprocal", m, False, False) for m in (2, 5)),
           *(("lowlying", m, primitive, False) for m in range(1, 9) for primitive in (True, False))]


def test_primitive_counts_retain_no_memory():
    # nothing computed along the way outlives the call, on any sieved route
    for family, m, primitive, torsion in _SIEVED:
        if m not in (None, 3):
            continue

        def run(t):
            cumulative(family, t, m=m, primitive=primitive, include_torsion=torsion)

        run(50)  # first-call set-up, if any
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(5000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 16 * 1024, (family, m, primitive, torsion, retained)


def _cumulative_peak(family, t, m):
    cumulative(family, 50, m=m, primitive=True)
    tracemalloc.start()
    try:
        cumulative(family, t, m=m, primitive=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cumulative_composition_peak_is_far_below_its_terms():
    # the primitive bounded-composition total keeps a running sum and O(sqrt(T))
    # block weights, not the T terms that an inversion term by term holds
    T = 5000
    held = sum(map(sys.getsizeof, itertools.islice(count_series("lowlying-reciprocal", m=3), T)))
    peak = _cumulative_peak("lowlying-reciprocal", T, 3)
    assert peak < held // 20, (peak, held)


def test_cumulative_lowlying_peak_is_far_below_its_totals():
    # the orbit sieve holds W(d) for d <= T // 2 only, about a quarter of the
    # bits of all T totals, and draws each length's own total again
    T = 20000
    held = sum(map(sys.getsizeof, itertools.islice(_run_bounded_words(3), T)))
    peak = _cumulative_peak("lowlying", T, 3)
    assert peak < held // 2, (peak, held)


def test_mobius_sieve_matches_factorisation():
    def mu(n):
        factors = _factorise(n)
        return 0 if any(k > 1 for _, k in factors) else (-1) ** len(factors)

    sieve = _mobius_sieve(5000)
    assert sieve[0] == 0
    assert list(sieve[1:]) == [mu(n) for n in range(1, 5001)]
    assert list(_mobius_sieve(1)) == [0, 1]


def test_primitive_class_counts_across_segments(monkeypatch):
    # segments far shorter than the lengths, so most quotients are filed in a
    # segment that does not start at 1; over the totals 2^d and W(d)
    for segment in (1, 7, 64):
        monkeypatch.setattr(counting, "_SEGMENT", segment)
        assert list(_primitive_class_counts(300)) == [
            primitive_class_count(n) for n in range(1, 301)
        ]
        assert cumulative("classes", 300) == sum(necklace_count(n) for n in range(1, 301))
        for m in (1, 3, 8):
            # with a run bound the sieve leaves out the two constant classes
            assert list(_primitive_class_counts(300, m)) == [
                count("lowlying", n, m=m, primitive=True) - 2 * (n == 1) for n in range(1, 301)
            ]
            assert cumulative("lowlying", 300, m=m) == sum(
                count("lowlying", n, m=m) for n in range(1, 301)
            )


def test_quotient_blocks_cover_every_k_once():
    for n in (*range(1, 200), 1507, 2000):
        blocks = list(_quotient_blocks(n))
        assert [k for lo, hi, _ in blocks for k in range(lo, hi + 1)] == list(range(1, n + 1))
        assert all(n // lo == n // hi == q for lo, hi, q in blocks)
        assert len(blocks) <= 2 * math.isqrt(n)


# ---------------------------------------------------------------------------
# reciprocal counts

def test_reciprocal_examples():
    assert reciprocal_count(3) == 4
    assert reciprocal_count(2, primitive=True) == 2 - 1 == 1
    assert reciprocal_count(1) == 1


@pytest.mark.parametrize("t", range(1, 9))
def test_reciprocal_against_mirrored_oracle(t):
    mirrored = [w for w in oracles.all_words(2 * t) if oracles.is_mirrored_tuple(w)]
    reps = {oracles.canonical_tuple(w) for w in mirrored}
    assert reciprocal_count(t) == len(reps)
    primitive = {w for w in reps if oracles.is_primitive_tuple(w)}
    assert reciprocal_count(t, primitive=True) == len(primitive)


def test_lowlying_reciprocal_primitive_matches_enumeration():
    for m in range(1, 7):
        per_length = [
            sum(1 for _ in reciprocal_classes(t, m, primitive=True)) for t in range(1, 17)
        ]
        sums = list(itertools.accumulate(per_length))
        for t in range(1, 17):
            assert count("lowlying-reciprocal", t, m=m, primitive=True) == per_length[t - 1]
            got = cumulative("lowlying-reciprocal", t, m=m, primitive=True)
            assert got == sums[t - 1], (t, m)


# ---------------------------------------------------------------------------
# bounded-run (lowlying) classes

def test_run_bounded_words_match_transfer_matrix_trace():
    for m in range(1, 9):
        expected = oracles.run_bounded_word_table(80, m)[1:]
        assert list(itertools.islice(_run_bounded_words(m), 80)) == expected, m


def test_lowlying_matches_class_oracle():
    for n in range(1, 13):
        reps = oracles.class_reps(n)
        primitive = {w for w in reps if oracles.is_primitive_tuple(w)}
        for m in range(1, 7):
            for primitive_only, words in ((False, reps), (True, primitive)):
                kept = sum(oracles.max_cyclic_run_tuple(w) <= m for w in words)
                assert count("lowlying", n, m=m, primitive=primitive_only) == kept, (n, m)


def test_lowlying_matches_enumeration():
    for n in range(1, 17):
        for m in range(1, 8):
            for primitive in (False, True):
                enumerated = sum(1 for _ in classes(n, m=m, primitive=primitive))
                assert count("lowlying", n, m=m, primitive=primitive) == enumerated


def test_lowlying_matches_shift_sum_oracle_far_out():
    # the constant classes add 2 while n <= m, and only at n = 1 when primitive
    for m in range(1, 9):
        hyperbolic = oracles.run_bounded_hyperbolic_table(90, m)
        primitive = oracles.primitive_table(hyperbolic)
        for n in range(1, 91):
            assert count("lowlying", n, m=m) == hyperbolic[n] + 2 * (n <= m)
            assert count("lowlying", n, m=m, primitive=True) == primitive[n] + 2 * (n == 1)


def test_lowlying_without_a_binding_run_bound_is_every_class():
    for n in range(1, 201):
        for m in (n, n + 1):
            assert count("lowlying", n, m=m) == necklace_count(n)
            assert count("lowlying", n, m=m, primitive=True) == primitive_class_count(n)
    huge = 10**30
    head = list(itertools.islice(count_series("lowlying", m=huge, primitive=True), 60))
    assert head == [primitive_class_count(n) for n in range(1, 61)]
    assert count("lowlying", 500, m=huge) == necklace_count(500)


def test_lowlying_examples():
    assert count("lowlying", 30, m=3) == 2900108
    assert count("lowlying", 30, m=6) == 27951505
    # m = 1 keeps only the alternating class, at even lengths
    assert [count("lowlying", n, m=1) for n in range(1, 7)] == [2, 1, 0, 1, 0, 1]


def test_lowlying_domain_errors():
    for m, t in ((None, 3), (0, 3), (-2, 3), (3, 0)):
        with pytest.raises(ValueError):
            count("lowlying", t, m=m)


# ---------------------------------------------------------------------------
# cumulative

def test_cumulative_examples():
    assert cumulative("reciprocal", 5) == 31
    assert cumulative("classes", 2, include_torsion=True) == 3 + 2 + 3 == 8
    assert cumulative("reciprocal", 1) == 1


def test_cumulative_matches_per_length_sums():
    for t in range(1, 12):
        assert cumulative("reciprocal", t) == sum(
            reciprocal_count(n) for n in range(1, t + 1)
        )
        assert cumulative("classes", t) == sum(
            necklace_count(n) for n in range(1, t + 1)
        )
        assert cumulative("lowlying-reciprocal", t, m=2) == sum(
            bounded_compositions(n, 2) for n in range(1, t + 1)
        )


def test_cumulative_matches_naive_sums_for_every_family():
    T = 120
    necklaces = [0] + [oracles.necklace_count_shifts(n) for n in range(1, T + 1)]
    reciprocal = [0] + [1 << (n - 1) for n in range(1, T + 1)]
    expected = {
        ("classes", None, False): necklaces[1:],
        ("classes", None, True): oracles.primitive_table(necklaces)[1:],
        ("reciprocal", None, False): reciprocal[1:],
        ("reciprocal", None, True): oracles.primitive_table(reciprocal)[1:],
        ("compositions", None, False): reciprocal[1:],
    }
    for m in range(1, 7):
        table = oracles.composition_table(T, m)[1:]
        expected["compositions", m, False] = table
        expected["lowlying-reciprocal", m, False] = table
        hyperbolic = oracles.run_bounded_hyperbolic_table(T, m)
        primitive = oracles.primitive_table(hyperbolic)
        expected["lowlying", m, False] = [hyperbolic[n] + 2 * (n <= m) for n in range(1, T + 1)]
        expected["lowlying", m, True] = [primitive[n] + 2 * (n == 1) for n in range(1, T + 1)]
    for (family, m, primitive), per_length in expected.items():
        sums = list(itertools.accumulate(per_length))
        for t in range(1, T + 1):
            got = cumulative(family, t, m=m, primitive=primitive)
            assert got == sums[t - 1], (family, m, primitive, t)
    assert [cumulative("classes", t, include_torsion=True) for t in range(1, T + 1)] == [
        s + 3 for s in itertools.accumulate(necklaces[1:])
    ]


@pytest.mark.parametrize("family, m, primitive, torsion", _SIEVED)
def test_sieved_cumulative_matches_the_series_sum(family, m, primitive, torsion):
    sums = list(itertools.accumulate(
        itertools.islice(count_series(family, m=m, primitive=primitive), 2000)))
    for t in (*range(1, 61), 500, 2000):
        got = cumulative(family, t, m=m, primitive=primitive, include_torsion=torsion)
        assert got == sums[t - 1] + 3 * torsion, t


def test_lowlying_floor_log2_bounds_every_count():
    # the exponent the CLI refuses an over-long lowlying count by, checked
    # against the exact count at every t <= 2000 for every run bound m <= 12
    for m in range(2, 13):
        for t, exact in zip(range(1, 2001), count_series("lowlying", m=m)):
            e = counting._count_floor_log2("lowlying", t, m=m)
            assert e < 0 or 1 << e <= exact, (t, m)


def test_composition_floor_log2_bounds_every_count():
    # the exponent the CLI refuses an over-long compositions count by, against
    # the exact count at every t <= 2000 for every part bound m <= 12; it is
    # the count itself where no gap is forced
    for m in range(1, 13):
        for t, exact in zip(range(1, 2001), count_series("compositions", m=m)):
            bound = 1 << counting._count_floor_log2("compositions", t, m=m)
            assert bound <= exact, (t, m)
            assert (bound == exact) == (m == 1 or t <= m), (t, m)


@pytest.mark.parametrize("family", ["classes", "reciprocal", "lowlying", "lowlying-reciprocal",
                                    "compositions"])
@pytest.mark.parametrize("primitive", [False, True])
def test_count_floor_log2_bounds_every_count(family, primitive):
    # the one exponent the CLI refuses an over-long count by, against the exact
    # count at every t <= 2000 for no run bound and every m <= 12 the family
    # takes, and at every t < 40 for every m < 40: so at every primitive case
    # below t = 16, which its proof leaves to this test.  A power family's
    # bound is the whole count where no gap is forced
    for m in (None, *range(1, 40)):
        try:
            series = count_series(family, m=m, primitive=primitive)
        except ValueError:
            continue  # the family refuses m, or primitive counts
        t_max = 2000 if m is None or m <= 12 else 39
        for t, exact in zip(range(1, t_max + 1), series):
            e = counting._count_floor_log2(family, t, m=m, primitive=primitive)
            assert e < 0 or 1 << e <= exact, (t, m, e)
            if not (primitive or family in ("classes", "lowlying")):
                assert (1 << e == exact) == (m in (None, 1) or t <= m), (t, m)


def test_count_floor_log2_leaves_sizes_out_of_range_to_the_counters():
    assert counting._count_floor_log2("classes", 0) is None
    assert counting._count_floor_log2("classes", counting._MAX_SIZE + 1) is None
    assert counting._count_floor_log2("classes", counting._MAX_SIZE) == 10**7 - 25
    with pytest.raises(ValueError, match="needs the run bound m"):
        counting._count_floor_log2("lowlying", 5)


def test_count_series_yields_count_at_each_length():
    cases = [("classes", None, False), ("classes", None, True), ("reciprocal", None, True),
             ("compositions", None, False), ("compositions", 1, False),
             ("lowlying-reciprocal", 4, False), ("lowlying", 1, False), ("lowlying", 3, False),
             ("lowlying", 3, True), ("lowlying", 50, True)]
    for family, m, primitive in cases:
        head = list(itertools.islice(count_series(family, m=m, primitive=primitive), 40))
        assert head == [count(family, t, m=m, primitive=primitive) for t in range(1, 41)]


def test_count_series_checks_arguments_before_the_first_term():
    for family, m, primitive in (("geodesics", None, False), ("lowlying-reciprocal", None, False),
                                 ("compositions", 0, False), ("compositions", 3, True),
                                 ("lowlying", None, True), ("lowlying", 0, False)):
        with pytest.raises(ValueError):
            count_series(family, m=m, primitive=primitive)


def test_cumulative_errors():
    with pytest.raises(ValueError):
        cumulative("geodesics", 4)
    with pytest.raises(ValueError):
        cumulative("classes", 4, include_torsion=True, primitive=True)
    with pytest.raises(ValueError):
        cumulative("lowlying-reciprocal", 4)
    with pytest.raises(ValueError):
        cumulative("reciprocal", 0)


# ---------------------------------------------------------------------------
# bounded compositions

def test_bounded_composition_examples():
    assert bounded_compositions(4, 2) == len(oracles.bounded_compositions_list(4, 2)) == 5
    assert bounded_compositions(3, 3) == 4 == 1 << 2
    assert bounded_compositions(2, 1) == 1


@pytest.mark.parametrize("t", range(0, 11))
def test_bounded_compositions_against_enumeration(t):
    for m in range(1, t + 3):
        assert bounded_compositions(t, m) == len(oracles.bounded_compositions_list(t, m))


def test_bounded_composition_conventions():
    assert bounded_compositions(0, 3) == 1
    assert bounded_compositions(-2, 3) == 0
    with pytest.raises(ValueError):
        bounded_compositions(4, 0)


@pytest.mark.parametrize("m", [None, 3])
def test_bounded_compositions_refuse_past_the_size_ceiling(m):
    # the ceiling of count("compositions", ...), checked before any work but
    # after the conventions for t <= 0
    with pytest.raises(ValueError, match=r"^t must be <= 10000000$"):
        bounded_compositions(counting._MAX_SIZE + 1, m)
    assert (bounded_compositions(0, m), bounded_compositions(-5, m)) == (1, 0)


def test_bounded_compositions_match_window_table():
    for m in range(1, 13):
        table = oracles.composition_table(400, m)
        for t in range(-3, 401):
            assert bounded_compositions(t, m) == (table[t] if t >= 0 else 0), (t, m)


def test_bounded_compositions_take_any_part_bound():
    # the window is trimmed by hand, so m need not fit a machine word
    assert bounded_compositions(9, 10**30) == 1 << 8
    assert cumulative("compositions", 9, m=10**30) == (1 << 9) - 1


@given(st.integers(1, 18), st.integers(0, 6))
def test_unbounded_parts_collapse(t, extra):
    assert bounded_compositions(t, t + extra) == 1 << (t - 1)


def _bounded_families(counter):
    # counter's values on every family that takes m, an orbit family read as
    # classes and a primitive power family as reciprocal when m is None
    def read(t, m):
        orbit, power = ("classes", "reciprocal") if m is None else ("lowlying", "lowlying-reciprocal")
        return [counter(orbit, t, m, False), counter(orbit, t, m, True),
                counter(power, t, m, True), counter("compositions", t, m, False)]
    return read


# each reader's value at length t under run bound m; an iterator is pulled whole
_RUN_BOUND_READERS = {
    "count": _bounded_families(lambda f, t, m, p: count(f, t, m=m, primitive=p)),
    "cumulative": _bounded_families(lambda f, t, m, p: cumulative(f, t, m=m, primitive=p)),
    "count_series": _bounded_families(
        lambda f, t, m, p: list(itertools.islice(count_series(f, m=m, primitive=p), t))),
    "bounded_compositions": bounded_compositions,
    "classes": lambda t, m: classes(t, m=m),
    "reciprocal_classes": reciprocal_classes,
    "_reciprocal_chunks": lambda t, m: _reciprocal_chunks(t, m, False),
    "lower_bound_witnesses": lower_bound_witnesses,
}


@pytest.mark.parametrize("reader", _RUN_BOUND_READERS)
def test_a_run_bound_of_at_least_the_length_bounds_nothing(reader):
    read = _RUN_BOUND_READERS[reader]
    for t in (1, 2, 5, 8):
        # the witnesses' whole is m = t, which forces only the last slot
        whole = read(t, t if reader == "lower_bound_witnesses" else None)
        whole = list(whole) if isinstance(whole, Iterator) else whole
        for m in (t, t + 1, 10**8):
            got = read(t, m)
            assert (list(got) if isinstance(got, Iterator) else got) == whole, (t, m)
    message = "part bound m must be >= 1" if reader == "bounded_compositions" else (
        "run bound m must be >= 1")
    with pytest.raises(ValueError, match=message):
        got = read(5, 0)
        if isinstance(got, Iterator):
            next(got)


# ---------------------------------------------------------------------------
# the growth root

def test_alpha_golden_ratio():
    data = alpha(2)
    assert abs(data.alpha - (1 + math.sqrt(5)) / 2) < 1e-12
    assert abs(data.residual) < 1e-12
    assert abs(data.d - (data.alpha - 1) / (2 + 3 * (data.alpha - 2))) < 1e-12


def test_alpha_cubic_value():
    assert abs(alpha(3).alpha - 1.8392867552) < 1e-9


def test_alpha_bracket_check_is_explicit():
    # at m = 1 the lower end 2(1 - 2^-m) = 1 is a root of the sign polynomial,
    # so it brackets nothing; alpha itself rejects m < 2 before this check
    with pytest.raises(ArithmeticError, match="m=1"):
        _alpha_cached(1)


def test_alpha_bracket_and_monotonicity():
    prev = None
    for m in range(2, 41):
        data = alpha(m)
        assert 2 * (1 - 2.0**-m) <= data.alpha < 2
        assert abs(data.residual) < 1e-12
        assert data.d > 0
        if prev is not None:
            assert data.alpha_exact > prev
        prev = data.alpha_exact
    assert alpha(40).alpha > 2 - 1e-11


def test_alpha_residual_is_exact_polynomial_value():
    data = alpha(5)
    z = data.alpha_exact
    direct = z**5 - z**4 - z**3 - z**2 - z - 1
    assert data.residual == float(direct)


def test_alpha_matches_fraction_bisection():
    for m in range(2, 61):
        assert dataclasses.asdict(alpha(m)) == oracles.alpha_fraction_bisection(m), m


@pytest.mark.parametrize("m", [128, 256, 512])
def test_alpha_matches_integer_bisection_up_to_its_ceiling(m):
    # the Newton steps reach the bracket that the 130 halvings reach, bit for bit
    assert dataclasses.asdict(alpha(m)) == oracles.alpha_integer_bisection(m)


def test_alpha_refuses_a_run_bound_past_its_ceiling():
    assert counting._ALPHA_MAX_M == 512
    data = alpha(512)
    assert data.m == 512 and data.alpha_exact < 2 and abs(data.residual) < 1e-12
    with pytest.raises(ValueError, match=r"^m must be <= 512 for the growth root alpha\(m\)"):
        alpha(513)
    # the size ceiling is checked first, with its own message
    with pytest.raises(ValueError, match=r"^m must be <= 10000000$"):
        alpha(10**7 + 1)


def test_alpha_domain_errors():
    with pytest.raises(ValueError):
        alpha(1)


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_examples():
    assert closed_form_compositions(3, 2) == 3
    data = alpha(2)
    assert rnd(data.d_exact * data.alpha_exact**3) == 3
    for m in range(2, 8):
        assert closed_form_compositions(1, m) == 1
    assert closed_form_compositions(10, 2) == 89


def test_closed_form_matches_recursion_everywhere_contracted():
    for m in range(2, 11):
        for t in range(1, 41):
            assert closed_form_compositions(t, m) == bounded_compositions(t, m)


@pytest.mark.parametrize("m, refused, exact", [(2, 76, 186), (3, 60, 144), (40, 54, 164)])
def test_closed_form_ceiling_is_a_margin_on_the_bracket_error(m, refused, exact):
    # the 2^52 ceiling refuses from t = refused, while rnd(d * alpha^t) on the
    # exact approximants agrees with the recursion through t = exact (and
    # through t = 134 and 136 at m = 5 and 10, where it refuses from 55 and 54)
    closed_form_compositions(refused - 1, m)
    with pytest.raises(PrecisionLimitError):
        closed_form_compositions(refused, m)
    data = alpha(m)
    x = data.d_exact
    for t in range(1, exact + 2):
        x *= data.alpha_exact
        assert (rnd(x) == bounded_compositions(t, m)) == (t <= exact), t


def test_closed_form_refuses_past_precision_ceiling():
    with pytest.raises(PrecisionLimitError):
        closed_form_compositions(60, 10)


def test_closed_form_refuses_a_long_t_before_the_power():
    # the exact power alone takes seconds from t of about 10^5 at m = 3, and
    # a t past a double's range cannot reach the float estimate whole
    alpha(3)
    for t in (1166, 10**6, 10**400):
        start = time.perf_counter()
        with pytest.raises(PrecisionLimitError, match=f"at t={t}, m=3 reaches the 2\\^52"):
            closed_form_compositions(t, 3)
        assert time.perf_counter() - start < 0.5


def test_closed_form_refuses_where_the_exact_margin_does():
    # the float estimate refuses before the power only past 2^53, so the
    # exact test alone decides every t below it
    for m in range(2, 11):
        data = alpha(m)
        x = data.d_exact
        for t in range(1, 201):
            x *= data.alpha_exact
            if x < 1 << 52:
                assert closed_form_compositions(t, m) == rnd(x)
            else:
                with pytest.raises(PrecisionLimitError):
                    closed_form_compositions(t, m)


def test_closed_form_refuses_a_bad_m_or_t():
    with pytest.raises(ValueError, match="m must be >= 2"):
        closed_form_compositions(5, 1)
    with pytest.raises(ValueError, match="t must be >= 0"):
        closed_form_compositions(-1, 3)


def test_rnd_half_up():
    assert rnd(Fraction(5, 2)) == 3
    assert rnd(Fraction(-1, 2)) == 0
    assert rnd(Fraction(7, 3)) == 2
    assert rnd(2.5) == 3


# ---------------------------------------------------------------------------
# growth formulas

def test_lowlying_lower_bound_values():
    assert abs(lowlying_lower_bound(3, 2) - 2**0.5 / 3) < 1e-12
    assert abs(lowlying_lower_bound(12, 3) - 2**7 / 12) < 1e-12
    for m in (2, 5):
        assert abs(lowlying_lower_bound(m, m) - 2 ** (m - 2) / m) < 1e-12
    # a length below 1 is refused, not divided by; so is a run bound below 2,
    # since at m = 1 the formula gives 1/(2t) where no odd word alternates
    for t, m in ((0, 3), (-2, 3)):
        with pytest.raises(ValueError, match="^t must be >= 1$"):
            lowlying_lower_bound(t, m)
    for t, m in ((3, 1), (4, 1), (3, 0), (3, -1)):
        with pytest.raises(ValueError, match="^m must be >= 2$"):
            lowlying_lower_bound(t, m)


def test_lowlying_lower_bound_is_at_most_the_count():
    for m in range(2, 9):
        for t in range(1, 61):
            assert lowlying_lower_bound(t, m) <= count("lowlying", t, m=m), (t, m)


def test_growth_target_values():
    assert growth_target(1, 10) == 32
    assert growth_target(3, 4) == 2**5 / 4 == 8
    a2 = alpha(2).alpha
    expected = (a2 / (2 + 3 * (a2 - 2))) * a2**4
    assert abs(growth_target(2, 8, 2) - expected) < 1e-12
    assert abs(expected - 12.98) < 0.01
    assert abs(growth_target(4, 9, 3) - 2.0 ** (9 * (2 / 3)) / 9) < 1e-12


@pytest.mark.parametrize("m, first", [(2, 2948), (5, 2100)])
def test_growth_target_2_overflows_where_its_product_does(m, first):
    # the power a^(t // 2) is still a double at both points; the product is not
    assert math.isfinite(growth_target(2, first - 1, m))
    with pytest.raises(OverflowError):
        growth_target(2, first, m)


def test_growth_target_errors():
    with pytest.raises(ValueError):
        growth_target(2, 8)
    with pytest.raises(ValueError):
        growth_target(4, 8)
    with pytest.raises(ValueError):
        growth_target(4, 8, 2)
    with pytest.raises(ValueError):
        growth_target(5, 8)
    for args in ((3, 0), (1, -4), (2, -3, 3), (4, 0, 3)):
        with pytest.raises(ValueError, match="^t must be >= 1$"):
            growth_target(*args)
