import dataclasses
import inspect
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import pytest

from modgeod import binwords as bw
from modgeod import counting as ct
from modgeod import enumeration as en
from modgeod import geometry as geo
from modgeod import verify
from modgeod.binwords import BinaryWord
from modgeod.cli import main


def test_tmax_caps_enumeration_ceilings_only():
    results = {r.name: r for r in verify.run_suite("all", tmax=7)}
    assert all(r.ok for r in results.values())
    for name, r in results.items():
        if name.startswith("counting."):
            continue
        if name == "geometry.sign_canonicalization":
            # its default of 6 lies below the cap
            assert r.detail == "tau through 6"
        else:
            assert re.search(r"\b7\b", r.detail), (name, r.detail)
    assert results["counting.burnside_integrality"].detail == "tau through 200"
    assert results["counting.closed_form_agreement"].detail == "t through 40, m through 10"
    assert results["counting.mobius_crosscheck"].detail == "tau through 64"


# ---------------------------------------------------------------------------
# the bits-level bijection and orbit checks against injected faults

def test_bijection_check_catches_a_broken_inverse(monkeypatch):
    inverse = en.phi_inverse
    monkeypatch.setattr(en, "phi_inverse", lambda c: bw.half_turn_partner(inverse(c))[0])
    result = verify.check_bijection_round_trip(6)
    assert not result.ok
    assert result.detail == "round trip failed at -+"


def test_bijection_check_catches_a_rule_that_keeps_the_larger_member(monkeypatch):
    def walk_by_the_rule(t, m, primitive):
        # the words of the walk, each half kept by en._half_rule as it reads
        # at the call; the k0s are t, which the check does not read
        mask = (1 << t) - 1
        full = (bw._full_from_half_bits(half, t) for half in range(1 << t))
        words = [
            bits
            for bits in full
            if bw._max_cyclic_run_bits(bits, 2 * t) <= m
            and en._half_rule(bits >> t, bits & mask, t)
        ]
        yield words, [t] * len(words)

    for t in range(1, 7):
        for m in range(1, t + 1):
            kept = [bits for words, _ in en._reciprocal_chunks(t, m, False) for bits in words]
            assert [bits for words, _ in walk_by_the_rule(t, m, False) for bits in words] == kept
    rule = en._half_rule
    monkeypatch.setattr(en, "_half_rule", lambda half, mirror, t: not rule(half, mirror, t))
    monkeypatch.setattr(en, "_reciprocal_chunks", walk_by_the_rule)
    result = verify.check_bijection_round_trip(6)
    assert not result.ok
    assert result.detail == "kept +-, larger than its rotation by k0"


def test_bijection_check_catches_a_repeated_class(monkeypatch):
    generate = en._reciprocal_chunks

    def twice_first(t, m, primitive):
        chunks = generate(t, m, primitive)
        words, k0s = next(chunks)
        yield words[:1] + words, k0s[:1] + k0s
        yield from chunks

    monkeypatch.setattr(en, "_reciprocal_chunks", twice_first)
    result = verify.check_bijection_round_trip(6)
    assert not result.ok
    assert result.detail == "t=1, m=1: run profiles collide"


def test_bijection_check_catches_a_missing_class(monkeypatch):
    generate = en._reciprocal_chunks

    def drop_first(t, m, primitive):
        chunks = generate(t, m, primitive)
        words, k0s = next(chunks)
        yield words[1:], k0s[1:]
        yield from chunks

    monkeypatch.setattr(en, "_reciprocal_chunks", drop_first)
    result = verify.check_bijection_round_trip(6)
    assert not result.ok
    assert result.detail == "t=1, m=1: 0 classes vs 1 compositions"


def test_bijection_check_catches_a_walk_that_ignores_the_run_bound(monkeypatch):
    # at each m, the first bounded_compositions(t, m) classes of the unbounded
    # walk: as many classes as the bound keeps, with distinct run profiles
    # and true round trips, but not the ones whose runs are at most m
    generate = en._reciprocal_chunks

    def unbounded_prefix(t, m, primitive):
        words, k0s = [], []
        for chunk_words, chunk_k0s in generate(t, None, primitive):
            words += chunk_words
            k0s += chunk_k0s
        keep = ct.bounded_compositions(t, m)
        yield words[:keep], k0s[:keep]

    monkeypatch.setattr(en, "_reciprocal_chunks", unbounded_prefix)
    result = verify.check_bijection_round_trip(6)
    assert not result.ok
    assert result.detail == "t=2, m=1: kept --++, with a part of 2"


def test_orbit_check_catches_a_mirror_test_that_accepts_too_much(monkeypatch):
    monkeypatch.setattr(bw, "_is_half_turn_bits", lambda bits, length: length % 2 == 0)
    result = verify.check_orbit_meets_mirror_twice(6)
    assert not result.ok
    assert result.detail == "orbit of --++ meets the family in 4 points"


def test_enumeration_checks_catch_an_off_by_one_lowlying_formula(monkeypatch):
    count = ct.count

    def off_by_one(family, t, **kwargs):
        return count(family, t, **kwargs) + (family == "lowlying")

    monkeypatch.setattr(ct, "count", off_by_one)
    bound = verify.check_lowlying_lower_bound(6)
    assert not bound.ok
    assert bound.detail == "tau=1, m=2: 2 classes, off the formula or below bound"
    monotone = verify.check_filter_monotone(6)
    assert not monotone.ok
    assert monotone.detail == "tau=1: enumerated counts [2] differ from the formula"


# ---------------------------------------------------------------------------
# every check at its default range, and the bits-level checks against faults
# injected into the kernels and generators they run on

# each check's parameter defaults and its detail there
_DEFAULT_RANGES = {
    "binwords.rotation_group_action": ({"tmax": 8}, "exhaustive through 8 entries"),
    "binwords.orbit_size_matches_exponent": ({"tmax": 12}, "exhaustive through 12 entries"),
    "binwords.half_turn_closure": ({"tmax": 12}, "exhaustive through half-length 12"),
    "binwords.orbit_meets_mirror_twice": ({"tmax": 12}, "exhaustive through half-length 12"),
    "binwords.primitivity_iff_k0": ({"tmax": 10}, "exhaustive through half-length 10"),
    "binwords.runs_two_preimages": ({"tmax": 12}, "exhaustive through 12 entries"),
    "binwords.max_run_rotation_invariant": ({"tmax": 10}, "exhaustive through 10 entries"),
    "counting.burnside_integrality": ({"tmax": 200}, "tau through 200"),
    "counting.mobius_crosscheck": ({"tmax": 64}, "tau through 64"),
    "counting.nonprimitive_bounds": ({"tmax": 40}, "lengths through 40"),
    "counting.closed_form_agreement": ({"tmax": 40, "mmax": 10}, "t through 40, m through 10"),
    "counting.unbounded_parts_degeneration": ({"tmax": 24}, "t through 24"),
    "counting.alpha_bracket_residual_monotone": ({"mmax": 40}, "m through 40"),
    "counting.ratio_trend_toward_one": ({"points": (10, 18, 26)}, "checkpoints (10, 18, 26)"),
    "counting.sharp_law_ratio_to_one": (
        {}, "n in (10, 20, 40, 80), m in 3..4, last gap below 1e-10"
    ),
    "enumerate.class_count_oracle": ({"tmax": 16}, "tau through 16"),
    "enumerate.primitive_count_oracle": ({"tmax": 16}, "tau through 16"),
    "enumerate.reciprocal_count_oracle": ({"tmax": 16}, "t through 16"),
    "enumerate.composition_bijection": ({"tmax": 12}, "t through 12, every m"),
    "enumerate.lowlying_lower_bound": ({"tmax": 16}, "tau through 16, m in 2..4"),
    "enumerate.witness_generator_bound": ({"tmax": 16}, "tau through 16, m in 2..4"),
    "enumerate.filter_monotone": ({"tmax": 12}, "tau through 12"),
    "enumerate.power_map_partition": ({"tmax": 12}, "tau through 12"),
    "enumerate.half_run_equals_full_run": ({"tmax": 12}, "half-length through 12"),
    "geometry.concatenation_homomorphism": ({"tmax": 8}, "words through 8 entries, all splits"),
    "geometry.conjugation_invariance": ({"tmax": 10}, "tau through 10"),
    "geometry.parabolic_exactly_constants": ({"tmax": 12}, "tau through 12"),
    "geometry.apex_quadratic_oracle": ({"tmax": 8}, "tau through 8"),
    "geometry.sign_canonicalization": ({"tmax": 6}, "tau through 6"),
    "geometry.widened_depth_bracket": ({"tmax": 10}, "241 classes through tau=10"),
    "geometry.reduced_cycle_certificate": ({"tmax": 9}, "135 classes through tau=9"),
}

_ALL_CHECKS = [check for suite in verify.SUITES.values() for check in suite]


@pytest.mark.parametrize("check", _ALL_CHECKS, ids=[c.__name__ for c in _ALL_CHECKS])
def test_every_check_passes_over_its_full_default_range(check):
    # a range shrunk to buy speed changes a default or a detail
    assert len(_ALL_CHECKS) == len(_DEFAULT_RANGES)
    result = check()
    defaults, detail = _DEFAULT_RANGES[result.name]
    assert result.ok
    assert result.detail == detail
    params = inspect.signature(check).parameters
    assert {name: p.default for name, p in params.items()} == defaults


def _mirror_without_negation(half, t):
    # h.rev(h): the second half is reversed but not negated
    return (half << t) | bw._reverse_bits(half, t)


def _runs_wrong_at_zero(run_lengths):
    # the all -1 word gets the run profile of an alternating word
    return lambda bits, t: run_lengths(bits, t) if bits else [1] * t


def test_rotation_check_catches_a_rotation_that_does_not_wrap(monkeypatch):
    rotate = bw._rotate_bits
    monkeypatch.setattr(bw, "_rotate_bits", lambda bits, k, t: rotate(bits, min(k, t - 1), t))
    result = verify.check_rotation_action(6)
    assert not result.ok
    assert result.detail == "rotation not additive at -+, i=1, j=1"


def test_orbit_size_check_catches_a_wrong_smallest_period(monkeypatch):
    monkeypatch.setattr(bw, "_smallest_period_bits", lambda bits, t: t)
    result = verify.check_orbit_size(6)
    assert not result.ok
    assert result.detail == "orbit of -- has 1 points"


def test_closure_check_catches_a_mirror_that_does_not_negate(monkeypatch):
    monkeypatch.setattr(bw, "_full_from_half_bits", _mirror_without_negation)
    result = verify.check_half_turn_closure(6)
    assert not result.ok
    assert result.detail == "rotation by 1 left the family at --"


def test_orbit_check_catches_a_mirror_that_does_not_negate(monkeypatch):
    monkeypatch.setattr(bw, "_full_from_half_bits", _mirror_without_negation)
    result = verify.check_orbit_meets_mirror_twice(6)
    assert not result.ok
    assert result.detail == "orbit of -- meets the family in 0 points"


def test_preimage_check_catches_a_wrong_run_profile(monkeypatch):
    monkeypatch.setattr(bw, "_run_lengths_bits", _runs_wrong_at_zero(bw._run_lengths_bits))
    result = verify.check_runs_two_preimages(6)
    assert not result.ok
    assert result.detail == "profile (1, 1) has 3 preimages"


def test_max_run_check_catches_a_run_read_linearly(monkeypatch):
    run_lengths = bw._run_lengths_bits
    monkeypatch.setattr(bw, "_max_cyclic_run_bits", lambda bits, t: max(run_lengths(bits, t)))
    result = verify.check_max_run_rotation_invariant(6)
    assert not result.ok
    assert result.detail == "cyclic run varies across rotations of --+"


def test_half_run_check_catches_a_wrong_run_profile(monkeypatch):
    monkeypatch.setattr(bw, "_run_lengths_bits", _runs_wrong_at_zero(bw._run_lengths_bits))
    result = verify.check_half_run_equals_full_run(6)
    assert not result.ok
    assert result.detail == "profile/run mismatch at --++"


def test_reciprocal_count_check_catches_a_dropped_row(monkeypatch):
    chunks = en._reciprocal_chunks

    def drop_last_row(t, m, primitive):
        for words, k0s in chunks(t, m, primitive):
            yield words[:-1], k0s[:-1]

    monkeypatch.setattr(en, "_reciprocal_chunks", drop_last_row)
    result = verify.check_reciprocal_count_oracle(6)
    assert not result.ok
    assert result.detail == "t=1: enumerated 0 vs 2^(t-1)"


def test_witness_check_catches_a_word_with_a_long_run(monkeypatch):
    witnesses = en.lower_bound_witnesses

    def with_a_constant_word(t, m):
        yield from witnesses(t, m)
        yield BinaryWord(0, t)

    monkeypatch.setattr(en, "lower_bound_witnesses", with_a_constant_word)
    result = verify.check_witness_generator(6)
    assert not result.ok
    assert result.detail == "witness --- breaks the run bound m=2"


def test_burnside_check_catches_an_orbit_quotient_off_by_one(monkeypatch):
    # the orbit sums stay divisible; only the counter's quotient is wrong
    quotient = ct._orbit_quotient
    monkeypatch.setattr(ct, "_orbit_quotient", lambda total, n: quotient(total, n) + 1)
    assert ct.necklace_count(6) == 15
    result = verify.check_burnside_integrality(6)
    assert not result.ok
    assert result.detail == "orbit sum 2 is not tau times necklace_count at tau=1"


def test_unbounded_parts_check_catches_an_off_by_one_recurrence(monkeypatch):
    # bounded_compositions(t, m) at m >= t answers from the closed form and
    # never reaches the recurrence; the check draws the recurrence itself
    series = ct._composition_series
    monkeypatch.setattr(ct, "_composition_series", lambda m: (c + 1 for c in series(m)))
    assert ct.bounded_compositions(5, 2) == 9
    result = verify.check_unbounded_parts()
    assert not result.ok
    assert result.detail == "t=1, m=1: recurrence 2 misses 2^(t-1)"


def test_sharp_law_check_catches_a_perturbed_alpha(monkeypatch):
    # one part in 10^11 on alpha moves alpha^80 by about 8e-10
    alpha = ct.alpha

    def perturbed(m):
        data = alpha(m)
        return dataclasses.replace(data, alpha_exact=data.alpha_exact * (1 + Fraction(1, 10**11)))

    monkeypatch.setattr(ct, "alpha", perturbed)
    result = verify.check_sharp_law()
    assert not result.ok
    assert result.detail == "m=3: gaps 0.052, 0.0023, 5.1e-06, 8.3e-10 at n in (10, 20, 40, 80)"


def test_sharp_law_check_catches_an_off_by_one_length(monkeypatch):
    count = ct.count
    monkeypatch.setattr(ct, "count", lambda family, t, **kwargs: count(family, t + 1, **kwargs))
    result = verify.check_sharp_law()
    assert not result.ok
    assert result.detail == "m=3: gaps 0.67, 0.75, 0.79, 0.82 at n in (10, 20, 40, 80)"


def test_depth_bracket_check_catches_an_off_by_one_cross_check(monkeypatch):
    # the depths, and so the brackets, come from the run walk alone; only the
    # audit's cross-check count sees the reduced cycle
    exact = geo._reduced_cycle_min_c
    monkeypatch.setattr(geo, "_reduced_cycle_min_c", lambda M, length: exact(M, length) + 1)
    result = verify.check_widened_depth_bracket(6)
    assert not result.ok
    assert result.detail == "25 depth cross-checks disagree through tau=6"


# ---------------------------------------------------------------------------
# a check that raises

def test_a_check_that_raises_fails_and_the_later_checks_still_run(monkeypatch, capsys):
    def broken(w):
        raise RuntimeError(f"no canonical form for {w}")

    # binwords.rotation_group_action, the first registered check, calls it
    monkeypatch.setattr(bw, "canonical_form", broken)
    code = main(["verify", "--suite", "binwords", "--tmax", "4"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1
    assert lines[0] == "FAIL binwords.rotation_group_action: RuntimeError: no canonical form for -"
    assert len(lines) == len(verify.SUITES["binwords"]) + 1
    assert all(line.startswith("PASS ") for line in lines[1:-1])
    assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed"
    assert "Traceback" in captured.err and "RuntimeError" in captured.err


# ---------------------------------------------------------------------------
# the forked worker pool

_SRC = Path(__file__).resolve().parents[1] / "src"


def _serial(suite, tmax):
    # the one-at-a-time loop that the pool replaces
    names = list(verify.SUITES) if suite == "all" else [suite]
    results = []
    for name in names:
        for check in verify.SUITES[name]:
            if tmax is None or name == "counting":
                results.append(check())
            else:
                default = inspect.signature(check).parameters["tmax"].default
                results.append(check(min(default, tmax)))
    return results


def _rows(results):
    return [(r.name, r.ok, r.detail) for r in results]


def _usable_cpus(monkeypatch, cpus):
    # what run_suite reads as the usable CPUs, whatever the host has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def _pid_check(tmax=0):
    return verify.CheckResult("binwords.pid", True, str(os.getpid()))


@pytest.mark.parametrize("tmax", [None, 2, 5])
@pytest.mark.parametrize("suite", ["all", *verify.SUITES])
def test_the_pool_returns_the_serial_results_in_order(monkeypatch, suite, tmax):
    _usable_cpus(monkeypatch, {0, 1})
    assert _rows(verify.run_suite(suite, tmax)) == _rows(_serial(suite, tmax))


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_one_usable_cpu_runs_the_checks_in_this_process(monkeypatch, cpus):
    expected = _rows(_serial("all", 5))
    _usable_cpus(monkeypatch, cpus)
    monkeypatch.setitem(verify.SUITES, "pid", (_pid_check,))
    results = verify.run_suite("all", 5)
    assert (results.pop().detail == str(os.getpid())) == (len(cpus) == 1)
    assert _rows(results) == expected


def _break_two_checks(monkeypatch):
    # the first registered check calls canonical_form, and the bijection
    # check in the enumerate suite calls phi
    def first(w):
        raise RuntimeError("first fault")

    def second(h):
        raise RuntimeError("second fault")

    monkeypatch.setattr(bw, "canonical_form", first)
    monkeypatch.setattr(en, "phi", second)


def test_the_tracebacks_of_the_workers_reach_stderr_in_order(monkeypatch, capsys):
    _usable_cpus(monkeypatch, {0, 1})
    _break_two_checks(monkeypatch)
    code = main(["verify", "--suite", "all", "--tmax", "4"])
    captured = capsys.readouterr()
    assert code == 1
    failed = [line for line in captured.out.splitlines() if line.startswith("FAIL ")]
    assert failed == [
        "FAIL binwords.rotation_group_action: RuntimeError: first fault",
        "FAIL enumerate.composition_bijection: RuntimeError: second fault",
    ]
    err = captured.err
    assert err.count("Traceback") == 2
    assert err.index("first fault") < err.index("second fault")
    # the timing line comes last, its keys in registration order
    names = [re.match(r"(PASS|FAIL) ([\w.]+)", line)[2] for line in captured.out.splitlines()[:-1]]
    assert list(json.loads(err.splitlines()[-1])) == names == list(_DEFAULT_RANGES)


@pytest.mark.parametrize("broken", [False, True])
def test_no_worker_outlives_the_suite(monkeypatch, capsys, broken):
    _usable_cpus(monkeypatch, {0, 1})
    if broken:
        _break_two_checks(monkeypatch)
    main(["verify", "--suite", "all", "--tmax", "4"])
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fault", [None, "raises", "dies"])
def test_the_runner_leaves_no_descriptor_open(monkeypatch, fault):
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to count descriptors in")
    _usable_cpus(monkeypatch, {0, 1})
    if fault == "raises":
        _break_two_checks(monkeypatch)
    elif fault == "dies":
        # the first check ends the child that runs it; this process only
        # raises, should it ever run a check itself
        parent = os.getpid()

        def dies(w):
            if os.getpid() == parent:
                raise RuntimeError("a check ran in the parent")
            os._exit(3)

        monkeypatch.setattr(bw, "canonical_form", dies)
    before = len(os.listdir(fds))
    if fault == "dies":
        with pytest.raises(BrokenProcessPool):
            verify.run_suite("all", 4)
    else:
        results = verify.run_suite("all", 4)
        assert sum(not r.ok for r in results) == (2 if fault else 0)
    assert len(os.listdir(fds)) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_NO_POOL_IMPORTS = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from modgeod.cli import main
code = main(["verify", "--suite", "binwords", "--tmax", "3"])
print(code, [name for name in ("concurrent.futures", "multiprocessing") if name in sys.modules])
"""


def test_the_runner_imports_no_pool():
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    result = subprocess.run([sys.executable, "-c", _NO_POOL_IMPORTS], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


def test_output_buffered_before_verify_is_written_once(monkeypatch, capfd):
    _usable_cpus(monkeypatch, {0, 1})
    # a block-buffered stdout on the captured descriptor, which each forked
    # worker would flush again at its exit
    stream = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w"), 1 << 16))
    monkeypatch.setattr(sys, "stdout", stream)
    stream.write("written before verify\n")
    code = main(["verify", "--suite", "binwords", "--tmax", "3"])
    stream.close()
    out = capfd.readouterr().out
    assert code == 0
    assert out.count("written before verify") == 1
    assert out.count("checks passed") == 1


_WORKER_DIES = """
import multiprocessing, os
from concurrent.futures.process import BrokenProcessPool
from modgeod import binwords as bw, verify
os.sched_getaffinity = lambda pid: {0, 1}
bw.canonical_form = lambda w: os._exit(3)
try:
    verify.run_suite("binwords", 4)
except BrokenProcessPool:
    print("broken", multiprocessing.active_children())
"""


def test_a_worker_that_dies_raises_and_does_not_hang():
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    result = subprocess.run([sys.executable, "-c", _WORKER_DIES], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "broken []\n"
