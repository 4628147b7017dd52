"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines alongside the pytest verdicts.  Tolerances and runtime limits
are pinned here, not configurable.
"""

import math
import time

from modgeod.binwords import (
    BinaryWord,
    HalfTurnWord,
    canonical_form,
    is_half_turn,
    rotate,
)
from modgeod.counting import (
    alpha,
    bounded_compositions,
    closed_form_compositions,
    cumulative,
    growth_target,
    lowlying_lower_bound,
    necklace_count,
    primitive_class_count,
    reciprocal_count,
)
from modgeod.enumeration import (
    classes,
    lower_bound_witnesses,
    phi,
    phi_inverse,
    reciprocal_classes,
)
from modgeod.cli import main
from modgeod.geometry import (
    audit_lemma71,
    classify,
    encode,
    geodesic_length,
    ProjectiveMatrix,
    apex_height,
)

import oracles


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_necklace_burnside_equality():
    start = time.perf_counter()
    mismatches = [
        tau
        for tau in range(1, 17)
        if sum(1 for _ in classes(tau)) != necklace_count(tau)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60
    _report(
        1,
        ok,
        f"enumerated class counts equal the orbit-count formula for tau<=16 "
        f"({elapsed:.1f}s, limit 60s)"
        + (f"; mismatches at {mismatches}" if mismatches else ""),
    )


def test_criterion_02_reciprocal_counts_and_pairing():
    count_bad = [
        t
        for t in range(1, 17)
        if sum(1 for _ in reciprocal_classes(t)) != 1 << (t - 1)
    ]
    cumulative_bad = [
        t
        for t in range(1, 17)
        if sum(sum(1 for _ in reciprocal_classes(n)) for n in range(1, t + 1))
        != (1 << t) - 1
    ]
    pairing_bad = []
    for t in range(1, 13):
        for half_bits in range(1 << t):
            h = HalfTurnWord.from_half(BinaryWord(half_bits, t))
            orbit_hits = {
                rotated.bits
                for rotated in (rotate(h.word, k) for k in range(2 * t))
                if is_half_turn(rotated)
            }
            if len(orbit_hits) != 2:
                pairing_bad.append(str(h.word))
                break
    ok = not count_bad and not cumulative_bad and not pairing_bad
    _report(
        2,
        ok,
        "reciprocal classes number 2^(t-1) with cumulative 2^t-1 for t<=16; "
        "every rotation orbit carries exactly 2 normal forms for t<=12"
        + (f"; witnesses {count_bad + cumulative_bad + pairing_bad}" if not ok else ""),
    )


def test_criterion_03_primitive_three_way_agreement():
    bad = []
    peeled = oracles.primitive_table([0] + [necklace_count(tau) for tau in range(1, 17)])
    for tau in range(1, 17):
        enumerated = sum(1 for _ in classes(tau, primitive=True))
        if not enumerated == primitive_class_count(tau) == peeled[tau]:
            bad.append(("classes", tau))
    for t in range(1, 17):
        enumerated = sum(1 for _ in reciprocal_classes(t, primitive=True))
        if enumerated != reciprocal_count(t, primitive=True):
            bad.append(("reciprocal", t))
    _report(
        3,
        not bad,
        "Mobius inversion, the divisor peel and primitive-filtered enumeration "
        "agree for tau<=16 and t<=16" + (f"; disagreements {bad}" if bad else ""),
    )


def test_criterion_04_composition_bijection_and_closed_form():
    bijection_bad = []
    for t in range(1, 13):
        for m in range(1, t + 1):
            reps = list(reciprocal_classes(t, m))
            images = [phi(h) for h in reps]
            round_trips = all(phi_inverse(c) == h for h, c in zip(reps, images))
            if (
                len(set(images)) != len(reps)
                or len(reps) != bounded_compositions(t, m)
                or not round_trips
            ):
                bijection_bad.append((t, m))
    closed_bad = [
        (t, m)
        for m in range(2, 11)
        for t in range(1, 41)
        if bounded_compositions(t, m) != closed_form_compositions(t, m)
    ]
    ok = not bijection_bad and not closed_bad
    _report(
        4,
        ok,
        "run-profile bijection with explicit round trips for t<=12, all m; "
        "recursion equals the rounded closed form for t<=40, m in 2..10"
        + (f"; failures {bijection_bad + closed_bad}" if not ok else ""),
    )


def test_criterion_05_alpha_solver():
    bad = []
    for m in range(2, 41):
        data = alpha(m)
        if abs(data.residual) > 1e-12:
            bad.append((m, "residual", data.residual))
        if not 2 * (1 - 2.0**-m) <= data.alpha < 2:
            bad.append((m, "bracket", data.alpha))
    golden_gap = abs(alpha(2).alpha - (1 + math.sqrt(5)) / 2)
    if golden_gap > 1e-10:
        bad.append((2, "golden", golden_gap))
    _report(
        5,
        not bad,
        "root residual <= 1e-12 and bracket holds for m in 2..40; "
        "alpha(2) within 1e-10 of (1+sqrt 5)/2" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_06_lowlying_lower_bound_and_witnesses():
    bad = []
    for m in (2, 3, 4):
        for tau in range(1, 17):
            enumerated = sum(1 for _ in classes(tau, m=m))
            if enumerated < lowlying_lower_bound(tau, m):
                bad.append((tau, m, "count", enumerated))
            witnesses = {
                canonical_form(w).bits for w in lower_bound_witnesses(tau, m)
            }
            need = math.ceil(2 ** max(tau - tau // m - 1, 0) / tau)
            if len(witnesses) < need:
                bad.append((tau, m, "witnesses", len(witnesses)))
    _report(
        6,
        not bad,
        "bounded-run class counts clear 2^(tau - tau/m - 1)/tau and the "
        "forced-slot generator yields enough distinct classes, tau<=16, m in 2..4"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_07_nonprimitive_bounds():
    bad = []
    for tau in range(1, 41):
        np_classes = necklace_count(tau) - primitive_class_count(tau)
        if (2 * np_classes) ** 2 > tau * tau * (1 << tau):
            bad.append(("classes", tau, np_classes))
    for t in range(1, 41):
        np_rec = reciprocal_count(t) - reciprocal_count(t, primitive=True)
        if (4 * np_rec) ** 2 > t * t * (1 << t):
            bad.append(("reciprocal", t, np_rec))
    _report(
        7,
        not bad,
        "nonprimitive classes <= (tau/2) 2^(tau/2) and nonprimitive reciprocal "
        "classes <= (t/4) 2^(t/2), exactly, through length 40"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_08_growth_ratio_trend():
    start = time.perf_counter()
    checkpoints = (10, 18, 26)

    def exacts(item):
        if item == 1:
            return [(1 << (t // 2)) - 1 for t in checkpoints]
        if item == 2:
            return [
                cumulative("lowlying-reciprocal", t // 2, m=2) for t in checkpoints
            ]
        return [cumulative("classes", t, primitive=True) - 2 for t in checkpoints]

    bad = []
    finals = {}
    for item in (1, 2, 3):
        m = 2 if item == 2 else None
        ratios = [
            exact / growth_target(item, t, m)
            for exact, t in zip(exacts(item), checkpoints)
        ]
        if not all(r > 0 and math.isfinite(r) for r in ratios):
            bad.append((item, "not finite/positive", ratios))
        gaps = [abs(r - 1) for r in ratios]
        if not (gaps[0] > gaps[1] > gaps[2]):
            bad.append((item, "gap not strictly decreasing", gaps))
        finals[item] = gaps[2]
    if finals[1] > 0.05:
        bad.append((1, "final gap above 5%", finals[1]))
    if finals[2] > 0.05:
        bad.append((2, "final gap above 5%", finals[2]))
    if finals[3] > 0.15:
        bad.append((3, "final gap above 15%", finals[3]))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    _report(
        8,
        ok,
        f"|ratio-1| strictly shrinking over t in {checkpoints}; final gaps "
        f"{finals[1]:.4f}/{finals[2]:.4f}/{finals[3]:.4f} vs 5%/5%/15% "
        f"({elapsed:.2f}s, limit 1s)" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_09_geometry_sanity():
    bad = []
    plus = encode(BinaryWord.from_text("+"))
    minus = encode(BinaryWord.from_text("-"))
    if classify(plus) != "parabolic" or classify(minus) != "parabolic":
        bad.append("letter matrices not parabolic")
    for tau in range(2, 13):
        for w in classes(tau, primitive=True):
            if classify(encode(w)) != "hyperbolic":
                bad.append(f"primitive class {w} not hyperbolic")
                break
    length_gap = abs(
        geodesic_length(encode(BinaryWord.from_text("+-"))) - 2 * math.acosh(1.5)
    )
    if length_gap > 1e-10:
        bad.append(f"length gap {length_gap}")
    m = encode(BinaryWord.from_text("++-"))
    conj = ProjectiveMatrix(m.d, -m.c, -m.b, m.a)  # swap the two cusp fixers
    apex_gap = abs(apex_height(conj) - math.sqrt(3))
    if apex_gap > 1e-10:
        bad.append(f"apex gap {apex_gap}")
    _report(
        9,
        not bad,
        "letter matrices parabolic; every primitive class with 2<=tau<=12 "
        "hyperbolic; length and conjugate-apex values within 1e-10"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_10_depth_audit():
    start = time.perf_counter()
    report = audit_lemma71(10)
    elapsed = time.perf_counter() - start
    total = report.summary["classes"]
    widened = report.summary["widened_hits"]
    tabulated = (
        report.summary["paper_bracket_hits"]
        + report.summary["shifted_bracket_hits"]
        + sum(hist["neither"] for hist in report.summary["by_max_run"].values())
    )
    ok = widened == total and tabulated == total and elapsed < 120
    _report(
        10,
        ok,
        f"audit over tau<=10: {widened}/{total} classes inside the widened "
        f"bracket, paper/shifted hits tabulated "
        f"({report.summary['paper_bracket_hits']}/"
        f"{report.summary['shifted_bracket_hits']}), "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_criterion_11_table_reproduction(capsys):
    code = main(["table1", "--t", "6", "--m", "3"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ok = (
        code == 0
        and len(rows) == 4
        and all(row[4] in ("equal", "bound-ok") for row in rows)
        and sum(row[4] == "equal" for row in rows) == 3
    )
    _report(
        11,
        ok,
        "table command at t=6, m=3 emits all four family rows with every "
        "dual-sourced cell equal to its enumeration",
    )
