"""Exhaustive invariant suites behind the ``verify`` CLI command.

Each check scans a small exhaustive range and returns a named pass/fail
result; a failure names the violated invariant and carries a witness word.
Checks are independent pure functions and run one at a time, in
registration order.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

from . import binwords as bw
from . import counting as ct
from . import enumeration as en
from . import geometry as geo
from .binwords import BinaryWord, HalfTurnWord

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _ok(name: str, detail: str = "") -> CheckResult:
    return CheckResult(name, True, detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


def _all_words(tau: int):
    return (BinaryWord(bits, tau) for bits in range(1 << tau))


def _mirrored_words(t: int):
    return (HalfTurnWord.from_half(BinaryWord(h, t)) for h in range(1 << t))


# ---------------------------------------------------------------------------
# binwords invariants

def check_rotation_action(tmax: int = 8) -> CheckResult:
    name = "binwords.rotation_group_action"
    for tau in range(1, tmax + 1):
        for w in _all_words(tau):
            canon = bw.canonical_form(w)
            for i in range(tau):
                ri = bw.rotate(w, i)
                if bw.canonical_form(ri) != canon:
                    return _fail(name, f"canonical form not rotation-invariant at {w}")
                for j in range(tau):
                    if bw.rotate(ri, j) != bw.rotate(w, i + j):
                        return _fail(name, f"rotation not additive at {w}, i={i}, j={j}")
    return _ok(name, f"exhaustive through {tmax} entries")


def check_orbit_size(tmax: int = 12) -> CheckResult:
    name = "binwords.orbit_size_matches_exponent"
    for tau in range(1, tmax + 1):
        for w in _all_words(tau):
            _, exponent = bw.primitive_root(w)
            orbit = {bw.rotate(w, k).bits for k in range(tau)}
            if len(orbit) != tau // exponent:
                return _fail(name, f"orbit of {w} has {len(orbit)} points")
    return _ok(name, f"exhaustive through {tmax} entries")


def check_half_turn_closure(tmax: int = 12) -> CheckResult:
    name = "binwords.half_turn_closure"
    for t in range(1, tmax + 1):
        for h in _mirrored_words(t):
            if not bw.is_half_turn(bw.rotate(h.word, t)):
                return _fail(name, f"rotation by {t} left the family at {h.word}")
    return _ok(name, f"exhaustive through half-length {tmax}")


def check_orbit_meets_mirror_twice(tmax: int = 12) -> CheckResult:
    name = "binwords.orbit_meets_mirror_twice"
    for t in range(1, tmax + 1):
        for h in _mirrored_words(t):
            hits = {
                rotated.bits
                for rotated in (bw.rotate(h.word, k) for k in range(2 * t))
                if bw.is_half_turn(rotated)
            }
            if len(hits) != 2:
                return _fail(
                    name, f"orbit of {h.word} meets the family in {len(hits)} points"
                )
    return _ok(name, f"exhaustive through half-length {tmax}")


def check_primitivity_iff_k0(tmax: int = 10) -> CheckResult:
    name = "binwords.primitivity_iff_k0"
    for t in range(1, tmax + 1):
        for h in _mirrored_words(t):
            _, exponent = bw.primitive_root(h.word)
            partner, k0 = bw.half_turn_partner(h)
            if (exponent == 1) != (k0 == t):
                return _fail(name, f"k0={k0} vs exponent={exponent} at {h.word}")
            if partner.word == h.word:
                return _fail(name, f"partner equals the word itself at {h.word}")
    return _ok(name, f"exhaustive through half-length {tmax}")


def check_runs_two_preimages(tmax: int = 12) -> CheckResult:
    name = "binwords.runs_two_preimages"
    for t in range(1, tmax + 1):
        buckets: dict[tuple[int, ...], int] = {}
        for w in _all_words(t):
            parts = bw.runs_of(w).parts
            buckets[parts] = buckets.get(parts, 0) + 1
        if len(buckets) != 1 << (t - 1):
            return _fail(name, f"{len(buckets)} run profiles at length {t}")
        bad = [p for p, n in buckets.items() if n != 2]
        if bad:
            return _fail(name, f"profile {bad[0]} has {buckets[bad[0]]} preimages")
    return _ok(name, f"exhaustive through {tmax} entries")


def check_max_run_rotation_invariant(tmax: int = 10) -> CheckResult:
    name = "binwords.max_run_rotation_invariant"
    for tau in range(1, tmax + 1):
        for w in _all_words(tau):
            runs = {bw.max_cyclic_run(bw.rotate(w, k)) for k in range(tau)}
            if len(runs) != 1:
                return _fail(name, f"cyclic run varies across rotations of {w}")
    return _ok(name, f"exhaustive through {tmax} entries")


# ---------------------------------------------------------------------------
# counting invariants

def check_burnside_integrality(tmax: int = 200) -> CheckResult:
    name = "counting.burnside_integrality"
    for tau in range(1, tmax + 1):
        total = sum(1 << math.gcd(j, tau) for j in range(1, tau + 1))
        if total % tau:
            return _fail(name, f"orbit sum not divisible at tau={tau}")
    return _ok(name, f"tau through {tmax}")


def check_mobius_crosscheck(tmax: int = 64) -> CheckResult:
    name = "counting.mobius_crosscheck"
    for tau in range(1, tmax + 1):
        if ct.primitive_class_count(tau) != ct.primitive_class_count_mobius(tau):
            return _fail(name, f"recursion and inversion disagree at tau={tau}")
    return _ok(name, f"tau through {tmax}")


def check_nonprimitive_bounds(tmax: int = 40) -> CheckResult:
    name = "counting.nonprimitive_bounds"
    for tau in range(1, tmax + 1):
        np_classes = ct.necklace_count(tau) - ct.primitive_class_count(tau)
        # exact comparison with (tau/2) * 2^(tau/2): square both sides
        if (2 * np_classes) ** 2 > tau * tau * (1 << tau):
            return _fail(name, f"class bound violated at tau={tau}: {np_classes}")
    for t in range(1, tmax + 1):
        np_rec = ct.reciprocal_count(t) - ct.reciprocal_count(t, primitive=True)
        if (4 * np_rec) ** 2 > t * t * (1 << t):
            return _fail(name, f"reciprocal bound violated at t={t}: {np_rec}")
    return _ok(name, f"lengths through {tmax}")


def check_closed_form_agreement(tmax: int = 40, mmax: int = 10) -> CheckResult:
    name = "counting.closed_form_agreement"
    for m in range(2, mmax + 1):
        for t in range(1, tmax + 1):
            rec = ct.bounded_compositions(t, m)
            closed = ct.closed_form_compositions(t, m)
            if rec != closed:
                return _fail(name, f"t={t}, m={m}: recursion {rec} vs formula {closed}")
    return _ok(name, f"t through {tmax}, m through {mmax}")


def check_unbounded_parts(tmax: int = 24) -> CheckResult:
    name = "counting.unbounded_parts_degeneration"
    for t in range(1, tmax + 1):
        for m in (t, t + 1, t + 7):
            if ct.bounded_compositions(t, m) != 1 << (t - 1):
                return _fail(name, f"t={t}, m={m} misses 2^(t-1)")
    return _ok(name, f"t through {tmax}")


def check_alpha_solver(mmax: int = 40) -> CheckResult:
    name = "counting.alpha_bracket_residual_monotone"
    prev = None
    for m in range(2, mmax + 1):
        data = ct.alpha(m)
        if not 2 * (1 - 2.0 ** -m) <= data.alpha < 2:
            return _fail(name, f"alpha({m}) outside bracket: {data.alpha}")
        if abs(data.residual) > 1e-12:
            return _fail(name, f"alpha({m}) residual {data.residual}")
        if data.d <= 0:
            return _fail(name, f"d({m}) nonpositive")
        if prev is not None and not data.alpha_exact > prev:
            return _fail(name, f"alpha not strictly increasing at m={m}")
        prev = data.alpha_exact
    if not ct.alpha(40).alpha > 2 - 1e-11:
        return _fail(name, "alpha(40) not within 1e-11 of 2")
    golden = (1 + math.sqrt(5)) / 2
    if abs(ct.alpha(2).alpha - golden) > 1e-10:
        return _fail(name, "alpha(2) misses the golden ratio")
    return _ok(name, f"m through {mmax}")


def check_ratio_trend(points: tuple[int, ...] = (10, 18, 26)) -> CheckResult:
    name = "counting.ratio_trend_toward_one"
    cum_gaps = []
    prim_gaps = []
    for tau in points:
        cum = ct.cumulative("classes", tau, include_torsion=True)
        cum_gaps.append(abs(cum / ct.growth_target(3, tau) - 1))
        prim_gaps.append(
            abs(ct.primitive_class_count(tau) / ct.necklace_count(tau) - 1)
        )
    for gaps, label in ((cum_gaps, "cumulative"), (prim_gaps, "primitive share")):
        if not all(a > b for a, b in zip(gaps, gaps[1:])):
            return _fail(name, f"{label} ratios not improving: {gaps}")
    return _ok(name, f"checkpoints {points}")


# ---------------------------------------------------------------------------
# enumeration invariants

def check_class_count_oracle(tmax: int = 16) -> CheckResult:
    name = "enumerate.class_count_oracle"
    for tau in range(1, tmax + 1):
        n = sum(1 for _ in en.classes(tau))
        if n != ct.necklace_count(tau):
            return _fail(name, f"tau={tau}: enumerated {n} vs formula {ct.necklace_count(tau)}")
    return _ok(name, f"tau through {tmax}")


def check_primitive_count_oracle(tmax: int = 16) -> CheckResult:
    name = "enumerate.primitive_count_oracle"
    for tau in range(1, tmax + 1):
        n = sum(1 for _ in en.classes(tau, primitive=True))
        rec = ct.primitive_class_count(tau)
        mob = ct.primitive_class_count_mobius(tau)
        if not n == rec == mob:
            return _fail(name, f"tau={tau}: enumerated {n}, recursion {rec}, inversion {mob}")
    return _ok(name, f"tau through {tmax}")


def check_reciprocal_count_oracle(tmax: int = 16) -> CheckResult:
    name = "enumerate.reciprocal_count_oracle"
    for t in range(1, tmax + 1):
        # one pass over the generators' core: a class is primitive iff k0 = t
        n = p = 0
        for bits in en._reciprocal_bits(t):
            n += 1
            p += bw._k0_bits(bits, 2 * t) == t
        if n != 1 << (t - 1):
            return _fail(name, f"t={t}: enumerated {n} vs 2^(t-1)")
        if p != ct.reciprocal_count(t, primitive=True):
            return _fail(name, f"t={t}: primitive enumerated {p} vs recursion")
    return _ok(name, f"t through {tmax}")


def check_bijection_round_trip(tmax: int = 12) -> CheckResult:
    name = "enumerate.composition_bijection"
    for t in range(1, tmax + 1):
        for m in range(1, t + 1):
            reps = list(en.reciprocal_classes(t, m))
            images = [en.phi(h) for h in reps]
            if len(set(images)) != len(images):
                return _fail(name, f"t={t}, m={m}: run profiles collide")
            if len(images) != ct.bounded_compositions(t, m):
                return _fail(
                    name,
                    f"t={t}, m={m}: {len(images)} classes vs "
                    f"{ct.bounded_compositions(t, m)} compositions",
                )
            for h, c in zip(reps, images):
                if max(c.parts) != bw.max_cyclic_run(h.word):
                    return _fail(name, f"largest part mismatch at {h.word}")
                if en.phi_inverse(c) != h:
                    return _fail(name, f"round trip failed at {h.word}")
    return _ok(name, f"t through {tmax}, every m")


def check_lowlying_lower_bound(tmax: int = 16) -> CheckResult:
    name = "enumerate.lowlying_lower_bound"
    for m in (2, 3, 4):
        for tau in range(1, tmax + 1):
            n = sum(1 for _ in en.classes(tau, m=m))
            if n < ct.lowlying_lower_bound(tau, m):
                return _fail(name, f"tau={tau}, m={m}: {n} below bound")
    return _ok(name, f"tau through {tmax}, m in 2..4")


def check_witness_generator(tmax: int = 16) -> CheckResult:
    name = "enumerate.witness_generator_bound"
    for m in (2, 3, 4):
        for tau in range(1, tmax + 1):
            words = list(en.lower_bound_witnesses(tau, m))
            for w in words:
                if bw.max_cyclic_run(w) > m:
                    return _fail(name, f"witness {w} breaks the run bound m={m}")
            distinct = {bw.canonical_form(w).bits for w in words}
            need = -(-(1 << max(tau - tau // m - 1, 0)) // tau)  # ceil
            if len(distinct) < need:
                return _fail(
                    name, f"tau={tau}, m={m}: {len(distinct)} classes < {need}"
                )
    return _ok(name, f"tau through {tmax}, m in 2..4")


def check_filter_monotone(tmax: int = 12) -> CheckResult:
    name = "enumerate.filter_monotone"
    for tau in range(1, tmax + 1):
        counts = [sum(1 for _ in en.classes(tau, m=m)) for m in range(1, tau + 1)]
        if any(a > b for a, b in zip(counts, counts[1:])):
            return _fail(name, f"tau={tau}: counts decrease: {counts}")
        if counts[-1] != ct.necklace_count(tau):
            return _fail(name, f"tau={tau}: m=tau filter is not the full count")
    return _ok(name, f"tau through {tmax}")


def check_power_map_partition(tmax: int = 12) -> CheckResult:
    name = "enumerate.power_map_partition"
    for tau in range(2, tmax + 1):
        nonprimitive = {
            w.bits for w in en.classes(tau) if bw.primitive_root(w)[1] > 1
        }
        images: set[int] = set()
        for s in range(1, tau):
            if tau % s:
                continue
            for z in en.classes(s, primitive=True):
                img = en.power_map(z, tau // s).bits
                if img in images:
                    return _fail(name, f"power-map collision at tau={tau}")
                images.add(img)
        if images != nonprimitive:
            return _fail(name, f"images miss the nonprimitive classes at tau={tau}")
    return _ok(name, f"tau through {tmax}")


def check_half_run_equals_full_run(tmax: int = 12) -> CheckResult:
    name = "enumerate.half_run_equals_full_run"
    for t in range(1, tmax + 1):
        for h in _mirrored_words(t):
            if max(bw.runs_of(h.half).parts) != bw.max_cyclic_run(h.word):
                return _fail(name, f"profile/run mismatch at {h.word}")
    return _ok(name, f"half-length through {tmax}")


def check_primitive_halfbound_report(tmax: int = 16) -> CheckResult:
    # informational: smallest tau where the primitive bounded-run count
    # reaches half the lower bound, reported per m instead of asserting any
    # particular threshold
    name = "enumerate.primitive_halfbound_report"
    firsts = {}
    for m in (3, 4):
        for tau in range(1, tmax + 1):
            n = sum(1 for _ in en.classes(tau, primitive=True, m=m))
            if n >= 0.5 * ct.lowlying_lower_bound(tau, m):
                firsts[m] = tau
                break
    detail = ", ".join(f"m={m}: tau={tau}" for m, tau in sorted(firsts.items()))
    return _ok(name, f"first tau with primitive count >= half the bound: {detail}")


# ---------------------------------------------------------------------------
# geometry invariants

def check_concat_homomorphism(tmax: int = 8) -> CheckResult:
    name = "geometry.concatenation_homomorphism"
    for total in range(2, tmax + 1):
        for split in range(1, total):
            for bits in range(1 << total):
                w = BinaryWord(bits, total)
                u = BinaryWord(bits >> (total - split), split)
                v = BinaryWord(bits & ((1 << (total - split)) - 1), total - split)
                if geo.encode(w) != geo.encode(u) * geo.encode(v):
                    return _fail(name, f"encode not multiplicative at {w} = {u}|{v}")
    return _ok(name, f"words through {tmax} entries, all splits")


def check_conjugation_invariance(tmax: int = 10) -> CheckResult:
    name = "geometry.conjugation_invariance"
    for tau in range(1, tmax + 1):
        for w in en.classes(tau):
            traces = {geo.encode(bw.rotate(w, k)).trace_abs for k in range(tau)}
            if len(traces) != 1:
                return _fail(name, f"trace varies across rotations of {w}")
    return _ok(name, f"tau through {tmax}")


def check_parabolic_classification(tmax: int = 12) -> CheckResult:
    name = "geometry.parabolic_exactly_constants"
    for tau in range(1, tmax + 1):
        for w in en.classes(tau):
            kind = geo.classify(geo.encode(w))
            if kind == "elliptic":
                return _fail(name, f"elliptic word class {w}")
            if (kind == "parabolic") != w.is_constant:
                return _fail(name, f"{w} classified {kind}")
            if tau >= 2 and bw.primitive_root(w)[1] == 1 and kind != "hyperbolic":
                return _fail(name, f"primitive class {w} not hyperbolic")
    return _ok(name, f"tau through {tmax}")


def check_apex_quadratic_oracle(tmax: int = 8) -> CheckResult:
    name = "geometry.apex_quadratic_oracle"
    for tau in range(1, tmax + 1):
        for w in en.classes(tau, hyperbolic=True):
            M = geo.encode(w)
            # independent route: roots of c z^2 + (d-a) z - b = 0
            disc = (M.d - M.a) ** 2 + 4 * M.c * M.b
            gap = math.sqrt(disc) / abs(M.c)
            if abs(geo.apex_height(M) - gap / 2) > 1e-12:
                return _fail(name, f"apex disagrees with the quadratic roots at {w}")
    return _ok(name, f"tau through {tmax}")


def check_sign_canonicalization(tmax: int = 6) -> CheckResult:
    name = "geometry.sign_canonicalization"
    for tau in range(1, tmax + 1):
        for w in _all_words(tau):
            M = geo.encode(w)
            if geo.ProjectiveMatrix(-M.a, -M.b, -M.c, -M.d) != M:
                return _fail(name, f"negation canonicalizes differently at {w}")
    return _ok(name, f"tau through {tmax}")


def check_widened_depth_bracket(tmax: int = 10) -> CheckResult:
    name = "geometry.widened_depth_bracket"
    report = geo.audit_lemma71(tmax, cross_validate=False)
    misses = [r for r in report.rows if not r.widened_hit]
    if misses:
        return _fail(name, f"{misses[0].word} at depth {misses[0].depth:.6f}")
    return _ok(name, f"{report.summary['classes']} classes through tau={tmax}")


# ---------------------------------------------------------------------------
# suite registry and runner

SUITES: dict[str, tuple] = {
    "binwords": (
        check_rotation_action,
        check_orbit_size,
        check_half_turn_closure,
        check_orbit_meets_mirror_twice,
        check_primitivity_iff_k0,
        check_runs_two_preimages,
        check_max_run_rotation_invariant,
    ),
    "counting": (
        check_burnside_integrality,
        check_mobius_crosscheck,
        check_nonprimitive_bounds,
        check_closed_form_agreement,
        check_unbounded_parts,
        check_alpha_solver,
        check_ratio_trend,
    ),
    "enumerate": (
        check_class_count_oracle,
        check_primitive_count_oracle,
        check_reciprocal_count_oracle,
        check_bijection_round_trip,
        check_lowlying_lower_bound,
        check_witness_generator,
        check_filter_monotone,
        check_power_map_partition,
        check_half_run_equals_full_run,
        check_primitive_halfbound_report,
    ),
    "geometry": (
        check_concat_homomorphism,
        check_conjugation_invariance,
        check_parabolic_classification,
        check_apex_quadratic_oracle,
        check_sign_canonicalization,
        check_widened_depth_bracket,
    ),
}


def run_suite(suite: str, tmax=None) -> list[CheckResult]:
    """Run one named suite, or all of them with ``suite='all'``, in order.

    ``tmax`` caps every check outside the counting suite at the smaller of
    ``tmax`` and the check's own ``tmax`` default; the counting checks' ranges
    are formula sizes, not enumeration ceilings, so they keep their defaults.
    """
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; expected {list(SUITES)} or 'all'")
    results = []
    for name in names:
        for check in SUITES[name]:
            if tmax is None or name == "counting":
                results.append(check())
            else:
                default = inspect.signature(check).parameters["tmax"].default
                results.append(check(min(default, tmax)))
    return results
