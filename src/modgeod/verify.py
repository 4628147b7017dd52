"""Exhaustive invariant suites behind the ``verify`` CLI command.

Each check scans a small exhaustive range and returns a named pass/fail
result; a failure names the violated invariant and carries a witness word.
Checks are independent pure functions, so ``run_suite`` runs them on forked
worker processes, one per usable CPU, and returns their results in
registration order, with what each wrote to stderr forwarded in that order;
with one usable CPU, or where ``fork`` is missing, they run one after
another in the calling process.

The checks read the packed-bits kernels of ``binwords`` and the packed cores
of ``enumeration`` as module attributes at call time, so that a test can
break a check through the name it reads; the checks that only count classes
build no word object.
A closed form is checked against the library route that should reach it:
``burnside_integrality`` against ``necklace_count``, and
``unbounded_parts_degeneration`` against the composition recurrence;
``composition_bijection`` fails a class with a part above its first m.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import itertools
import math
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter

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
    # wall-clock seconds the check took; results compare equal without it
    seconds: float = field(default=0.0, compare=False)


# what a check body returns: whether it passed, and its detail
Outcome = tuple[bool, str]

# the checks of each suite in registration order; a check's suite is the
# first component of its name
SUITES: dict[str, tuple] = {}


def _ok(detail: str = "") -> Outcome:
    return True, detail


def _fail(detail: str) -> Outcome:
    return False, detail


def _check(name: str):
    """Name a check body and register it in its suite.

    The check returns the body's outcome and time as a ``CheckResult``.

    A body that raises gives a failed result whose detail is the exception's
    type and message, with the traceback on stderr, so the checks after it
    still run.
    """
    def register(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = perf_counter()
            try:
                ok, detail = body(*args, **kwargs)
            except Exception as exc:
                # imported only here, so that start-up does not pay for it
                import traceback

                traceback.print_exc()
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            return CheckResult(name, ok, detail, perf_counter() - start)

        suite = name.partition(".")[0]
        SUITES[suite] = (*SUITES.get(suite, ()), check)
        return check

    return register


def _all_words(tau: int):
    return (BinaryWord(bits, tau) for bits in range(1 << tau))


def _mirrored_bits(t: int):
    # each mirrored word of 2t entries with its free first half
    return ((h, bw._full_from_half_bits(h, t)) for h in range(1 << t))


# ---------------------------------------------------------------------------
# binwords invariants

@_check("binwords.rotation_group_action")
def check_rotation_action(tmax: int = 8) -> Outcome:
    for tau in range(1, tmax + 1):
        for w in _all_words(tau):
            canon = bw.canonical_form(w)
            for i in range(tau):
                ri = bw.rotate(w, i)
                if bw.canonical_form(ri) != canon:
                    return _fail(f"canonical form not rotation-invariant at {w}")
                for j in range(tau):
                    if bw._rotate_bits(ri.bits, j, tau) != bw._rotate_bits(w.bits, i + j, tau):
                        return _fail(f"rotation not additive at {w}, i={i}, j={j}")
    return _ok(f"exhaustive through {tmax} entries")


@_check("binwords.orbit_size_matches_exponent")
def check_orbit_size(tmax: int = 12) -> Outcome:
    for tau in range(1, tmax + 1):
        for bits in range(1 << tau):
            exponent = tau // bw._smallest_period_bits(bits, tau)
            orbit = set(bw._rotations_bits(bits, tau))
            if len(orbit) != tau // exponent:
                return _fail(f"orbit of {BinaryWord(bits, tau)} has {len(orbit)} points")
    return _ok(f"exhaustive through {tmax} entries")


@_check("binwords.half_turn_closure")
def check_half_turn_closure(tmax: int = 12) -> Outcome:
    for t in range(1, tmax + 1):
        for _, bits in _mirrored_bits(t):
            if not bw._is_half_turn_bits(bw._rotate_bits(bits, t, 2 * t), 2 * t):
                return _fail(f"rotation by {t} left the family at {BinaryWord(bits, 2 * t)}")
    return _ok(f"exhaustive through half-length {tmax}")


@_check("binwords.orbit_meets_mirror_twice")
def check_orbit_meets_mirror_twice(tmax: int = 12) -> Outcome:
    for t in range(1, tmax + 1):
        length = 2 * t
        # a word that is a hit of an earlier orbit lies on that same orbit
        seen: set[int] = set()
        for _, bits in _mirrored_bits(t):
            if bits in seen:
                continue
            hits = {r for r in bw._rotations_bits(bits, length) if bw._is_half_turn_bits(r, length)}
            if len(hits) != 2:
                word = BinaryWord(bits, length)
                return _fail(f"orbit of {word} meets the family in {len(hits)} points")
            seen |= hits
    return _ok(f"exhaustive through half-length {tmax}")


@_check("binwords.primitivity_iff_k0")
def check_primitivity_iff_k0(tmax: int = 10) -> Outcome:
    for t in range(1, tmax + 1):
        for _, bits in _mirrored_bits(t):
            h = HalfTurnWord(BinaryWord(bits, 2 * t))
            _, exponent = bw.primitive_root(h.word)
            partner, k0 = bw.half_turn_partner(h)
            if (exponent == 1) != (k0 == t):
                return _fail(f"k0={k0} vs exponent={exponent} at {h.word}")
            if partner.word == h.word:
                return _fail(f"partner equals the word itself at {h.word}")
    return _ok(f"exhaustive through half-length {tmax}")


@_check("binwords.runs_two_preimages")
def check_runs_two_preimages(tmax: int = 12) -> Outcome:
    for t in range(1, tmax + 1):
        buckets: dict[tuple[int, ...], int] = {}
        for bits in range(1 << t):
            parts = tuple(bw._run_lengths_bits(bits, t))
            buckets[parts] = buckets.get(parts, 0) + 1
        if len(buckets) != 1 << (t - 1):
            return _fail(f"{len(buckets)} run profiles at length {t}")
        bad = [p for p, n in buckets.items() if n != 2]
        if bad:
            return _fail(f"profile {bad[0]} has {buckets[bad[0]]} preimages")
    return _ok(f"exhaustive through {tmax} entries")


@_check("binwords.max_run_rotation_invariant")
def check_max_run_rotation_invariant(tmax: int = 10) -> Outcome:
    for tau in range(1, tmax + 1):
        seen: set[int] = set()  # the words of the orbits checked so far
        for bits in range(1 << tau):
            if bits in seen:
                continue
            orbit = set(bw._rotations_bits(bits, tau))
            if len({bw._max_cyclic_run_bits(r, tau) for r in orbit}) != 1:
                return _fail(f"cyclic run varies across rotations of {BinaryWord(bits, tau)}")
            seen |= orbit
    return _ok(f"exhaustive through {tmax} entries")


# ---------------------------------------------------------------------------
# counting invariants

@_check("counting.burnside_integrality")
def check_burnside_integrality(tmax: int = 200) -> Outcome:
    for tau in range(1, tmax + 1):
        total = sum(1 << math.gcd(j, tau) for j in range(1, tau + 1))
        if divmod(total, tau) != (ct.necklace_count(tau), 0):
            return _fail(f"orbit sum {total} is not tau times necklace_count at tau={tau}")
    return _ok(f"tau through {tmax}")


def _peeled_primitive_counts(tmax: int) -> list[int]:
    # the divisor recursion, peeled bottom-up over the necklace counts, as a
    # route independent of the inversion; index 0 is unused
    peeled = [0]
    for tau in range(1, tmax + 1):
        proper = sum(peeled[d] for d in range(1, tau) if tau % d == 0)
        peeled.append(ct.necklace_count(tau) - proper)
    return peeled


@_check("counting.mobius_crosscheck")
def check_mobius_crosscheck(tmax: int = 64) -> Outcome:
    for tau, peeled in enumerate(_peeled_primitive_counts(tmax)[1:], 1):
        if peeled != ct.primitive_class_count(tau):
            return _fail(f"recursion and inversion disagree at tau={tau}")
    return _ok(f"tau through {tmax}")


@_check("counting.nonprimitive_bounds")
def check_nonprimitive_bounds(tmax: int = 40) -> Outcome:
    for tau in range(1, tmax + 1):
        np_classes = ct.necklace_count(tau) - ct.primitive_class_count(tau)
        # exact comparison with (tau/2) * 2^(tau/2): square both sides
        if (2 * np_classes) ** 2 > tau * tau * (1 << tau):
            return _fail(f"class bound violated at tau={tau}: {np_classes}")
    for t in range(1, tmax + 1):
        np_rec = ct.reciprocal_count(t) - ct.reciprocal_count(t, primitive=True)
        if (4 * np_rec) ** 2 > t * t * (1 << t):
            return _fail(f"reciprocal bound violated at t={t}: {np_rec}")
    return _ok(f"lengths through {tmax}")


@_check("counting.closed_form_agreement")
def check_closed_form_agreement(tmax: int = 40, mmax: int = 10) -> Outcome:
    for m in range(2, mmax + 1):
        for t in range(1, tmax + 1):
            rec = ct.bounded_compositions(t, m)
            closed = ct.closed_form_compositions(t, m)
            if rec != closed:
                return _fail(f"t={t}, m={m}: recursion {rec} vs formula {closed}")
    return _ok(f"t through {tmax}, m through {mmax}")


@_check("counting.unbounded_parts_degeneration")
def check_unbounded_parts(tmax: int = 24) -> Outcome:
    # m >= t bounds nothing: bounded_compositions answers from the closed
    # form, and the recurrence, run with m alone (a series has no t), must too
    for t in range(1, tmax + 1):
        for m in (t, t + 1, t + 7):
            series = next(itertools.islice(ct.count_series("compositions", m=m), t - 1, None))
            if not ct.bounded_compositions(t, m) == series == 1 << (t - 1):
                return _fail(f"t={t}, m={m}: recurrence {series} misses 2^(t-1)")
    return _ok(f"t through {tmax}")


@_check("counting.alpha_bracket_residual_monotone")
def check_alpha_solver(mmax: int = 40) -> Outcome:
    prev = None
    for m in range(2, mmax + 1):
        data = ct.alpha(m)
        if not 2 * (1 - 2.0 ** -m) <= data.alpha < 2:
            return _fail(f"alpha({m}) outside bracket: {data.alpha}")
        if abs(data.residual) > 1e-12:
            return _fail(f"alpha({m}) residual {data.residual}")
        if data.d <= 0:
            return _fail(f"d({m}) nonpositive")
        if prev is not None and not data.alpha_exact > prev:
            return _fail(f"alpha not strictly increasing at m={m}")
        prev = data.alpha_exact
    if not ct.alpha(40).alpha > 2 - 1e-11:
        return _fail("alpha(40) not within 1e-11 of 2")
    golden = (1 + math.sqrt(5)) / 2
    if abs(ct.alpha(2).alpha - golden) > 1e-10:
        return _fail("alpha(2) misses the golden ratio")
    return _ok(f"m through {mmax}")


@_check("counting.ratio_trend_toward_one")
def check_ratio_trend(points: tuple[int, ...] = (10, 18, 26)) -> Outcome:
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
            return _fail(f"{label} ratios not improving: {gaps}")
    return _ok(f"checkpoints {points}")


@_check("counting.sharp_law_ratio_to_one")
def check_sharp_law() -> Outcome:
    # primitive classes of n entries with runs at most m number about
    # alpha_m^n / n: the exact gap |n * count / alpha^n - 1| must fall at each
    # checkpoint and end below 1e-10, with alpha the exact bracket midpoint
    points = (10, 20, 40, 80)
    for m in (3, 4):
        a = ct.alpha(m).alpha_exact
        gaps = [abs(n * ct.count("lowlying", n, m=m, primitive=True) / a**n - 1) for n in points]
        if not (all(x > y for x, y in zip(gaps, gaps[1:])) and gaps[-1] * 10**10 < 1):
            shown = ", ".join(f"{float(g):.2g}" for g in gaps)
            return _fail(f"m={m}: gaps {shown} at n in {points}")
    return _ok(f"n in {points}, m in 3..4, last gap below 1e-10")


# ---------------------------------------------------------------------------
# enumeration invariants

@_check("enumerate.class_count_oracle")
def check_class_count_oracle(tmax: int = 16) -> Outcome:
    for tau in range(1, tmax + 1):
        n = sum(1 for _ in en._class_bits(tau))
        if n != ct.necklace_count(tau):
            return _fail(f"tau={tau}: enumerated {n} vs formula {ct.necklace_count(tau)}")
    return _ok(f"tau through {tmax}")


@_check("enumerate.primitive_count_oracle")
def check_primitive_count_oracle(tmax: int = 16) -> Outcome:
    for tau, rec in enumerate(_peeled_primitive_counts(tmax)[1:], 1):
        n = sum(1 for _ in en._class_bits(tau, primitive=True))
        mob = ct.primitive_class_count(tau)
        if not n == rec == mob:
            return _fail(f"tau={tau}: enumerated {n}, recursion {rec}, inversion {mob}")
    return _ok(f"tau through {tmax}")


@_check("enumerate.reciprocal_count_oracle")
def check_reciprocal_count_oracle(tmax: int = 16) -> Outcome:
    for t in range(1, tmax + 1):
        # one pass over enumerate's rows: a class is primitive iff k0 = t
        n = p = 0
        for words, k0s in en._reciprocal_chunks(t, None, False):
            n += len(words)
            p += k0s.count(t)
        if n != 1 << (t - 1):
            return _fail(f"t={t}: enumerated {n} vs 2^(t-1)")
        if p != ct.reciprocal_count(t, primitive=True):
            return _fail(f"t={t}: primitive enumerated {p} vs recursion")
    return _ok(f"t through {tmax}")


@_check("enumerate.composition_bijection")
def check_bijection_round_trip(tmax: int = 12) -> Outcome:
    for t in range(1, tmax + 1):
        length = 2 * t
        edge_mask = (1 << (t - 1)) - 1
        # The per-class assertions hold at every m that yields the class once
        # they hold at the first, so checking a class at the first m that
        # yields it is the same as checking it again at every larger m.
        checked: set[int] = set()
        for m in range(1, t + 1):
            reps = [bits for words, _ in en._reciprocal_chunks(t, m, False) for bits in words]
            # the edge bits of the half determine its run profile at fixed t
            profiles = {(bits >> t ^ bits >> (t + 1)) & edge_mask for bits in reps}
            if len(profiles) != len(reps):
                return _fail(f"t={t}, m={m}: run profiles collide")
            if len(reps) != ct.bounded_compositions(t, m):
                return _fail(
                    f"t={t}, m={m}: {len(reps)} classes vs "
                    f"{ct.bounded_compositions(t, m)} compositions",
                )
            for bits in reps:
                if bits in checked:
                    continue
                checked.add(bits)
                h = HalfTurnWord(BinaryWord(bits, length))
                c = en.phi(h)
                if max(c.parts) > m:
                    return _fail(f"t={t}, m={m}: kept {h.word}, with a part of {max(c.parts)}")
                if max(c.parts) != bw.max_cyclic_run(h.word):
                    return _fail(f"largest part mismatch at {h.word}")
                # a representative's definition, apart from the rule that keeps it
                if bw._rotate_bits(bits, h.k0, length) < bits:
                    return _fail(f"kept {h.word}, larger than its rotation by k0")
                if en.phi_inverse(c) != h:
                    return _fail(f"round trip failed at {h.word}")
    return _ok(f"t through {tmax}, every m")


@_check("enumerate.lowlying_lower_bound")
def check_lowlying_lower_bound(tmax: int = 16) -> Outcome:
    for m in (2, 3, 4):
        for tau in range(1, tmax + 1):
            n = sum(1 for _ in en._class_bits(tau, m=m))
            if n != ct.count("lowlying", tau, m=m) or n < ct.lowlying_lower_bound(tau, m):
                return _fail(f"tau={tau}, m={m}: {n} classes, off the formula or below bound")
    return _ok(f"tau through {tmax}, m in 2..4")


@_check("enumerate.witness_generator_bound")
def check_witness_generator(tmax: int = 16) -> Outcome:
    for m in (2, 3, 4):
        for tau in range(1, tmax + 1):
            words = [w.bits for w in en.lower_bound_witnesses(tau, m)]
            for bits in words:
                if bw._max_cyclic_run_bits(bits, tau) > m:
                    return _fail(f"witness {BinaryWord(bits, tau)} breaks the run bound m={m}")
            distinct = {bw._min_rotation_bits(bits, tau) for bits in words}
            need = -(-(1 << max(tau - tau // m - 1, 0)) // tau)  # ceil
            if len(distinct) < need:
                return _fail(f"tau={tau}, m={m}: {len(distinct)} classes < {need}")
    return _ok(f"tau through {tmax}, m in 2..4")


@_check("enumerate.filter_monotone")
def check_filter_monotone(tmax: int = 12) -> Outcome:
    for tau in range(1, tmax + 1):
        counts = [sum(1 for _ in en._class_bits(tau, m=m)) for m in range(1, tau + 1)]
        if counts != [ct.count("lowlying", tau, m=m) for m in range(1, tau + 1)]:
            return _fail(f"tau={tau}: enumerated counts {counts} differ from the formula")
        if any(a > b for a, b in zip(counts, counts[1:])):
            return _fail(f"tau={tau}: counts decrease: {counts}")
        if counts[-1] != ct.necklace_count(tau):
            return _fail(f"tau={tau}: m=tau filter is not the full count")
    return _ok(f"tau through {tmax}")


@_check("enumerate.power_map_partition")
def check_power_map_partition(tmax: int = 12) -> Outcome:
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
                    return _fail(f"power-map collision at tau={tau}")
                images.add(img)
        if images != nonprimitive:
            return _fail(f"images miss the nonprimitive classes at tau={tau}")
    return _ok(f"tau through {tmax}")


@_check("enumerate.half_run_equals_full_run")
def check_half_run_equals_full_run(tmax: int = 12) -> Outcome:
    for t in range(1, tmax + 1):
        for half, bits in _mirrored_bits(t):
            if max(bw._run_lengths_bits(half, t)) != bw._max_cyclic_run_bits(bits, 2 * t):
                return _fail(f"profile/run mismatch at {BinaryWord(bits, 2 * t)}")
    return _ok(f"half-length through {tmax}")


# ---------------------------------------------------------------------------
# geometry invariants

@_check("geometry.concatenation_homomorphism")
def check_concat_homomorphism(tmax: int = 8) -> Outcome:
    for total in range(2, tmax + 1):
        for split in range(1, total):
            for bits in range(1 << total):
                w = BinaryWord(bits, total)
                u = BinaryWord(bits >> (total - split), split)
                v = BinaryWord(bits & ((1 << (total - split)) - 1), total - split)
                if geo.encode(w) != geo.encode(u) * geo.encode(v):
                    return _fail(f"encode not multiplicative at {w} = {u}|{v}")
    return _ok(f"words through {tmax} entries, all splits")


@_check("geometry.conjugation_invariance")
def check_conjugation_invariance(tmax: int = 10) -> Outcome:
    for tau in range(1, tmax + 1):
        for w in en.classes(tau):
            traces = {geo.encode(bw.rotate(w, k)).trace_abs for k in range(tau)}
            if len(traces) != 1:
                return _fail(f"trace varies across rotations of {w}")
    return _ok(f"tau through {tmax}")


@_check("geometry.parabolic_exactly_constants")
def check_parabolic_classification(tmax: int = 12) -> Outcome:
    for tau in range(1, tmax + 1):
        for w in en.classes(tau):
            kind = geo.classify(geo.encode(w))
            if kind == "elliptic":
                return _fail(f"elliptic word class {w}")
            if (kind == "parabolic") != w.is_constant:
                return _fail(f"{w} classified {kind}")
            if tau >= 2 and bw.primitive_root(w)[1] == 1 and kind != "hyperbolic":
                return _fail(f"primitive class {w} not hyperbolic")
    return _ok(f"tau through {tmax}")


@_check("geometry.apex_quadratic_oracle")
def check_apex_quadratic_oracle(tmax: int = 8) -> Outcome:
    for tau in range(1, tmax + 1):
        for w in en.classes(tau, hyperbolic=True):
            M = geo.encode(w)
            # independent route: roots of c z^2 + (d-a) z - b = 0
            disc = (M.d - M.a) ** 2 + 4 * M.c * M.b
            gap = math.sqrt(disc) / abs(M.c)
            if abs(geo.apex_height(M) - gap / 2) > 1e-12:
                return _fail(f"apex disagrees with the quadratic roots at {w}")
    return _ok(f"tau through {tmax}")


@_check("geometry.sign_canonicalization")
def check_sign_canonicalization(tmax: int = 6) -> Outcome:
    for tau in range(1, tmax + 1):
        for w in _all_words(tau):
            M = geo.encode(w)
            if geo.ProjectiveMatrix(-M.a, -M.b, -M.c, -M.d) != M:
                return _fail(f"negation canonicalizes differently at {w}")
    return _ok(f"tau through {tmax}")


@_check("geometry.widened_depth_bracket")
def check_widened_depth_bracket(tmax: int = 10) -> Outcome:
    report = geo.audit_lemma71(tmax)
    failures = report.summary["cross_check_failures"]
    if failures:
        return _fail(f"{failures} depth cross-checks disagree through tau={tmax}")
    misses = [r for r in report.rows if not r.widened_hit]
    if misses:
        return _fail(f"{misses[0].word} at depth {misses[0].depth:.6f}")
    return _ok(f"{report.summary['classes']} classes through tau={tmax}")


@_check("geometry.reduced_cycle_certificate")
def check_reduced_cycle_certificate(tmax: int = 9) -> Outcome:
    n = 0
    for tau in range(2, tmax + 1):
        for w in en.classes(tau, hyperbolic=True):
            quad = geo._quad(geo.encode(w))
            # the run walk's rotations and their A-conjugates, whose least |c|
            # is the kernel's min|c|
            start = [
                M
                for a, b, c, d in geo._boundary_rotations(quad, *geo._runs(w))
                for M in ((a, b, c, d), (d, -c, -b, a))
            ]
            min_c = min(abs(M[2]) for M in start)
            cert = geo._reduced_cycle_min_c(quad, tau)
            if cert != min_c:
                return _fail(f"reduced cycle gives {cert}, run walk {min_c} at {w}")
            # the bounded conjugation search is a heuristic third witness: it
            # may stop early, but it must never get below the exact minimum
            entry_cap = 4 * max(max(map(abs, M)) for M in start) + 8
            found, _ = geo._bfs_min_c(start, entry_cap, node_cap=10000)
            if found < cert:
                return _fail(f"conjugation search found |c| = {found} < {cert} at {w}")
            n += 1
    return _ok(f"{n} classes through tau={tmax}")


# ---------------------------------------------------------------------------
# runner

# in a worker, the check calls of the suite it serves
_calls: list = []


def _load_calls(calls: list) -> None:
    # a forked worker's initializer: the worker inherits ``calls`` unpickled,
    # and receives only indices into it
    global _calls
    _calls = calls


def _run_call(i: int) -> tuple[CheckResult, str]:
    # one check call in a worker, with what it writes to stderr
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        result = _calls[i]()
    return result, err.getvalue()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_suite(suite: str, tmax=None) -> list[CheckResult]:
    """Run one named suite, or all of them with ``suite='all'``.

    ``tmax`` caps every check outside the counting suite at the smaller of
    ``tmax`` and the check's own ``tmax`` default; the counting checks' ranges
    are formula sizes, not enumeration ceilings, so they keep their defaults.
    A check that raises is a failed result (see ``_check``).

    The checks run on a pool of one forked worker process per usable CPU, at
    most one per check; the workers inherit the module state, so a module
    attribute patched before the call holds in them too.  Each check's stderr
    is forwarded to this process's ``sys.stderr``, and the results come back,
    in registration order.  With one usable CPU, or no ``fork``, they run here
    one after another.  A worker that dies raises ``BrokenProcessPool``, and
    every worker has exited when this returns or raises.
    """
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; expected {list(SUITES)} or 'all'")
    calls = []
    for name in names:
        for check in SUITES[name]:
            if tmax is None or name == "counting":
                calls.append(check)
            else:
                default = inspect.signature(check).parameters["tmax"].default
                calls.append(functools.partial(check, min(default, tmax)))
    jobs = min(len(calls), _usable_cpus())
    if jobs < 2 or not hasattr(os, "fork"):
        return [call() for call in calls]

    # imported only here, so that start-up does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a buffered write would otherwise be flushed again by every worker
    sys.stdout.flush()
    sys.stderr.flush()
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(jobs, mp_context=fork, initializer=_load_calls,
                             initargs=(calls,)) as pool:
        outcomes = list(pool.map(_run_call, range(len(calls))))
    for _, err in outcomes:
        sys.stderr.write(err)
    return [result for result, _ in outcomes]
