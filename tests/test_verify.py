import re

from modgeod import binwords as bw
from modgeod import counting as ct
from modgeod import enumeration as en
from modgeod import verify
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
        elif name != "enumerate.primitive_halfbound_report":  # reports a threshold
            assert re.search(r"\b7\b", r.detail), (name, r.detail)
    assert results["counting.burnside_integrality"].detail == "tau through 200"
    assert results["counting.closed_form_agreement"].detail == "t through 40, m through 10"
    assert results["counting.mobius_crosscheck"].detail == "tau through 64"


# ---------------------------------------------------------------------------
# the bits-level bijection and orbit checks, at their default ceilings and
# against injected faults

def test_bijection_and_orbit_checks_pass_at_default_ceilings():
    bijection = verify.check_bijection_round_trip()
    assert bijection.ok
    assert bijection.detail == "t through 12, every m"
    orbit = verify.check_orbit_meets_mirror_twice()
    assert orbit.ok
    assert orbit.detail == "exhaustive through half-length 12"


def test_bijection_check_catches_a_broken_inverse(monkeypatch):
    inverse = en.phi_inverse
    monkeypatch.setattr(en, "phi_inverse", lambda c: bw.half_turn_partner(inverse(c))[0])
    result = verify.check_bijection_round_trip(6)
    assert not result.ok
    assert result.detail == "round trip failed at -+"


def test_bijection_check_catches_a_repeated_class(monkeypatch):
    generate = en._reciprocal_bits

    def twice_first(t, m=None):
        words = list(generate(t, m))
        return iter(words[:1] + words)

    monkeypatch.setattr(en, "_reciprocal_bits", twice_first)
    result = verify.check_bijection_round_trip(6)
    assert not result.ok
    assert result.detail == "t=1, m=1: run profiles collide"


def test_bijection_check_catches_a_missing_class(monkeypatch):
    generate = en._reciprocal_bits
    monkeypatch.setattr(en, "_reciprocal_bits", lambda t, m=None: iter(list(generate(t, m))[1:]))
    result = verify.check_bijection_round_trip(6)
    assert not result.ok
    assert result.detail == "t=1, m=1: 0 classes vs 1 compositions"


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
