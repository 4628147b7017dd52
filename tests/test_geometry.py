import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import modgeod.geometry as geometry
from modgeod.binwords import BinaryWord, rotate
from modgeod.cli import main
from modgeod.enumeration import ContractViolationError, classes
from modgeod.geometry import (
    GEN_A,
    GEN_B,
    ProjectiveMatrix,
    apex_height,
    audit_lemma71,
    classify,
    encode,
    geodesic_length,
    in_thick_part,
    max_depth,
    _bfs_min_c,
    _boundary_rotations,
    _canonical,
    _conjugates,
    _reduced_cycle_min_c,
    _rho,
    _run_product,
    _runs,
)

import oracles


def W(text):
    return BinaryWord.from_text(text)


words = st.builds(
    BinaryWord.from_entries,
    st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=14),
)


# ---------------------------------------------------------------------------
# projective matrices

def test_determinant_enforced():
    with pytest.raises(ValueError):
        ProjectiveMatrix(1, 0, 0, 2)


def test_sign_canonicalization():
    assert ProjectiveMatrix(-1, 0, 1, -1) == ProjectiveMatrix(1, 0, -1, 1)
    m = ProjectiveMatrix(0, -1, 1, 0)
    assert (m.a, m.b, m.c, m.d) == (0, 1, -1, 0)
    assert m.trace_abs == 0


def test_mul_and_inverse():
    assert GEN_A * GEN_A == ProjectiveMatrix.identity()
    assert GEN_B * GEN_B * GEN_B == ProjectiveMatrix.identity()
    assert GEN_B * GEN_B.inverse() == ProjectiveMatrix.identity()


# ---------------------------------------------------------------------------
# encoding

def test_encode_letter_examples():
    assert encode(W("+")) == ProjectiveMatrix(-1, 0, 1, -1)
    assert encode(W("+")).trace_abs == 2
    assert encode(W("-")) == ProjectiveMatrix(1, -1, 0, 1)
    assert encode(W("+-")) == ProjectiveMatrix(-1, 1, 1, -2)
    assert encode(W("+-")).trace_abs == 3


@given(words)
def test_encode_matches_raw_product_oracle(w):
    raw = oracles.encode_tuple(w.entries)
    assert encode(w) == ProjectiveMatrix(*raw)


@given(words, words)
def test_encode_multiplicative_on_concatenation(u, v):
    joined = BinaryWord.from_entries(u.entries + v.entries)
    assert encode(joined) == encode(u) * encode(v)


# ---------------------------------------------------------------------------
# classification and length

def test_classify_examples():
    assert classify(GEN_A) == "elliptic"
    assert classify(encode(W("+"))) == "parabolic"
    assert classify(encode(W("+-"))) == "hyperbolic"
    assert abs(geodesic_length(encode(W("+-"))) - 2 * math.acosh(1.5)) < 1e-12


def test_length_needs_hyperbolic():
    with pytest.raises(ValueError):
        geodesic_length(encode(W("+")))
    with pytest.raises(ValueError):
        geodesic_length(GEN_A)


def test_length_invariant_under_rotation():
    for tau in range(2, 9):
        for w in classes(tau, hyperbolic=True):
            base = geodesic_length(encode(w))
            for k in range(tau):
                assert abs(geodesic_length(encode(rotate(w, k))) - base) < 1e-12


# ---------------------------------------------------------------------------
# apex heights

def test_apex_examples():
    assert abs(apex_height(ProjectiveMatrix(-1, 1, 1, -2)) - math.sqrt(5) / 2) < 1e-12
    assert abs(apex_height(ProjectiveMatrix(3, 2, 1, 1)) - math.sqrt(3)) < 1e-12
    assert abs(apex_height(ProjectiveMatrix(2, 1, 1, 1)) - math.sqrt(5) / 2) < 1e-12


def test_apex_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        apex_height(encode(W("-")))


def test_apex_matches_quadratic_root_oracle():
    for tau in range(2, 9):
        for w in classes(tau, hyperbolic=True):
            raw = oracles.encode_tuple(w.entries)
            M = ProjectiveMatrix(*raw)
            assert abs(apex_height(M) - oracles.fixed_point_gap(raw) / 2) < 1e-12


# ---------------------------------------------------------------------------
# deepest excursions

def test_max_depth_examples():
    rep = max_depth(W("+-"))
    assert abs(rep.apex - math.sqrt(5) / 2) < 1e-12
    assert abs(rep.depth - math.log(math.sqrt(5) / 2)) < 1e-12
    assert abs(rep.depth - 0.1116) < 5e-4

    rep = max_depth(W("++-"))
    assert abs(rep.apex - math.sqrt(3)) < 1e-12
    assert abs(rep.depth - 0.5493) < 5e-4
    assert rep.max_run == 2
    assert rep.trace_abs == 4
    assert rep.cross_check_ok is True


@pytest.mark.parametrize("k", range(1, 7))
def test_single_run_family_apex(k):
    w = BinaryWord.from_entries([1] * k + [-1])
    rep = max_depth(w)
    assert abs(rep.apex - math.sqrt(k * k + 4 * k) / 2) < 1e-12
    # the deepest excursion of a run-k word lies one unit above the naive
    # winding bracket: (k+1)/2 < apex < (k+2)/2
    assert (k + 1) / 2 < rep.apex < (k + 2) / 2
    assert rep.winding_bracket == (k + 1, k + 2)


def test_max_depth_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        max_depth(W("+++"))
    with pytest.raises(ValueError):
        max_depth(W("-"))


def test_depth_constant_on_rotations():
    for w in (W("++-"), W("+--+-"), W("++--+-")):
        base = max_depth(w).apex
        for k in range(w.length):
            got = max_depth(rotate(w, k)).apex
            assert abs(got - base) < 1e-12


def test_cross_validation_agrees_on_small_classes():
    for tau in range(2, 9):
        for w in classes(tau, hyperbolic=True):
            assert max_depth(w).cross_check_ok is True


# ---------------------------------------------------------------------------
# the 4-tuple kernel

def _quad(M):
    return (M.a, M.b, M.c, M.d)


def _random_det_one(rng):
    # words in the generators and their inverses, with a random overall sign:
    # zero and negative entries both occur
    mat = (1, 0, 0, 1)
    for _ in range(rng.randint(0, 8)):
        g = rng.choice(
            (oracles.MAT_A, oracles.MAT_A_INV, oracles.MAT_B, oracles.MAT_B_INV, (1, 1, 0, 1))
        )
        mat = oracles.mat_mul(mat, g)
    return mat if rng.random() < 0.5 else tuple(-x for x in mat)


def test_conjugates_match_matrix_products():
    rng = random.Random(5)
    mats = [_random_det_one(rng) for _ in range(2000)]
    mats += [(1, 0, 0, 1), (-1, 0, 0, -1), (0, 1, -1, 0), (0, -1, 1, 0), (1, 0, -3, 1), (0, -1, 1, 5)]
    assert any(0 in m for m in mats) and any(min(m) < 0 for m in mats)
    for raw in mats:
        M = ProjectiveMatrix(*raw)
        want = [g * M * g.inverse() for g in (GEN_A, GEN_B, GEN_B.inverse())]
        assert [ProjectiveMatrix(*n) for n in _conjugates(*raw)] == want


def _deep_word(rng, length):
    # runs of 4 to 9 equal signs: deep excursions, large searches
    entries, sign = [], rng.choice((-1, 1))
    while len(entries) < length:
        entries += [sign] * rng.randint(4, 9)
        sign = -sign
    entries = entries[:length]
    return BinaryWord.from_entries(entries) if len(set(entries)) == 2 else _deep_word(rng, length)


def test_bfs_matches_naive_search_oracle():
    rng = random.Random(11)
    words = [w for tau in range(1, 10) for w in classes(tau, hyperbolic=True)]
    words += [_deep_word(rng, rng.randint(20, 32)) for _ in range(20)]
    for w in words:
        start = oracles.depth_candidates(w.entries)
        cap = 4 * max(abs(x) for m in start for x in m) + 8
        # the default cap, and one that stops the search a few nodes in
        for node_cap in (10000, 2 * w.length + 5):
            assert _bfs_min_c(start, cap, node_cap) == oracles.conjugation_search(
                start, cap, node_cap
            ), (str(w), node_cap)


def test_kernel_rejects_determinant_other_than_one(monkeypatch):
    with pytest.raises(ValueError, match="determinant must be 1"):
        _canonical(1, 0, 0, 2)
    with pytest.raises(ValueError, match="determinant must be 1"):
        _bfs_min_c([(2, 1, 1, 1), (1, 0, 0, 2)], 100, 100)
    # the run products are unchecked; encode's one check catches a bad one
    monkeypatch.setattr(geometry, "_run_product", lambda plus, runs: (1, 0, 0, 2))
    with pytest.raises(ValueError, match="determinant must be 1"):
        encode(W("++-"))
    with pytest.raises(ValueError, match="determinant must be 1"):
        max_depth(W("++-"))


_SRC = Path(__file__).resolve().parents[1] / "src"


def test_search_determinant_check_survives_python_O():
    # a search step that forms a determinant-3 matrix must stop the search,
    # also when -O strips assert statements
    script = (
        "import modgeod.geometry as g\n"
        "g._conjugates = lambda a, b, c, d: ((a, b, c, 2 * d),) * 3\n"
        "g._bfs_min_c([(2, 1, 1, 1)], 100, 100)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    assert result.returncode == 1
    assert "ValueError: determinant must be 1: [[2,1],[1,2]]" in result.stderr


def test_encode_determinant_check_survives_python_O():
    script = (
        "import modgeod.geometry as g\n"
        "from modgeod.binwords import BinaryWord\n"
        "g._run_product = lambda plus, runs: (2, 1, 1, 2)\n"
        "g.encode(BinaryWord.from_text('+-'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    assert result.returncode == 1
    assert "ValueError: determinant must be 1: [[2,1],[1,2]]" in result.stderr


# ---------------------------------------------------------------------------
# the run kernel

def _oracle_min_c(w):
    return min(abs(m[2]) for m in oracles.depth_candidates(w.entries))


def _random_hyperbolic_word(rng, max_length=60):
    while True:
        entries = [rng.choice((-1, 1)) for _ in range(rng.randint(2, max_length))]
        if len(set(entries)) == 2:
            return BinaryWord.from_entries(entries)


def _kernel_min_c(w):
    plus, runs = _runs(w)
    base = _canonical(*_run_product(plus, runs))
    return min(min(abs(b), abs(c)) for _, b, c, _ in _boundary_rotations(base, plus, runs))


def test_run_kernel_matches_letter_oracles():
    rng = random.Random(19)
    words = [w for tau in range(2, 13) for w in classes(tau, hyperbolic=True)]
    words += [_random_hyperbolic_word(rng, 120) for _ in range(60)]
    words += [_deep_word(rng, rng.randint(30, 120)) for _ in range(30)]
    for w in words:
        raw = oracles.encode_tuple(w.entries)
        assert encode(w) == ProjectiveMatrix(*raw), str(w)
        assert _kernel_min_c(w) == _oracle_min_c(w), str(w)


def test_boundary_rotations_are_the_run_start_rotations():
    # each walked matrix is, up to sign, the product of the letters from a
    # linear run's first entry round the word
    for w in (w for tau in range(2, 13) for w in classes(tau, hyperbolic=True)):
        entries = w.entries
        plus, runs = _runs(w)
        starts = [sum(runs[:j]) for j in range(len(runs))]
        walked = _boundary_rotations(_quad(encode(w)), plus, runs)
        assert len(walked) == len(starts)
        for i, M in zip(starts, walked):
            want = oracles.encode_tuple(entries[i:] + entries[:i])
            assert oracles.projective_key(M) == oracles.projective_key(want), (str(w), i)


# ---------------------------------------------------------------------------
# the reduced-cycle certificate

def test_reduced_cycle_matches_candidate_oracle():
    rng = random.Random(13)
    words = [w for tau in range(2, 15) for w in classes(tau, hyperbolic=True)]
    assert len(words) == 2587
    words += [_random_hyperbolic_word(rng) for _ in range(500)]
    for w in words:
        quad = oracles.projective_key(oracles.encode_tuple(w.entries))
        assert _reduced_cycle_min_c(quad, w.length) == _oracle_min_c(w), str(w)


def test_conjugation_search_never_beats_certificate():
    rng = random.Random(17)
    for _ in range(20):
        w = _deep_word(rng, rng.randint(20, 32))
        start = oracles.depth_candidates(w.entries)
        cap = 4 * max(abs(x) for m in start for x in m) + 8
        found, _ = oracles.conjugation_search(start, cap, 10000)
        certificate = _reduced_cycle_min_c(_quad(encode(w)), w.length)
        assert found >= certificate == _oracle_min_c(w), str(w)


def test_reduced_cycle_rejects_non_hyperbolic():
    # |trace| <= 2: elliptic, and parabolic with the square D = 0
    for quad in ((0, -1, 1, 0), (1, 1, -1, 0), (1, -1, 0, 1), (1, 0, 0, 1)):
        with pytest.raises(ValueError, match=r"needs \|trace\| > 2"):
            _reduced_cycle_min_c(quad, 1)
    with pytest.raises(ValueError, match="determinant must be 1"):
        _reduced_cycle_min_c((2, 1, 1, 2), 1)


def test_reduced_cycle_checks_survive_python_O():
    script = (
        "import modgeod.geometry as g\n"
        "for quad in ((1, -1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 2)):\n"
        "    try:\n"
        "        g._reduced_cycle_min_c(quad, 1)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == [
        "reduced cycle needs |trace| > 2: [[1,-1],[0,1]]",
        "reduced cycle needs |trace| > 2: [[0,1],[-1,0]]",
        "determinant must be 1: [[2,1],[1,2]]",
    ]


def test_reduced_cycle_walk_is_bounded():
    # a budget of no steps at all cannot close any cycle
    quad = _quad(encode(W("++-+--")))
    D = (quad[0] + quad[3]) ** 2 - 4
    with pytest.raises(ContractViolationError, match="not closed within 0 steps"):
        _reduced_cycle_min_c(quad, -D.bit_length())


def _long_division_rho(A, B, C, D, s):
    # the step as it was first written: r as in _rho, then the third
    # coefficient from the discriminant by one long division
    n = 2 * abs(C)
    if abs(C) <= s:
        r = s - (s + B) % n
    else:
        r = -B % n
        if r > abs(C):
            r -= n
    return C, r, (r * r - D) // (4 * C)


def _assert_rho_steps_match(form, steps):
    A, B, C = form
    D = B * B - 4 * A * C
    s = math.isqrt(D)
    for _ in range(steps):
        step = _rho(*form, s)
        assert step == _long_division_rho(*form, D, s), form
        form = step


def test_rho_matches_the_long_division_step():
    rng = random.Random(23)
    for _ in range(2000):
        # any form of positive non-square discriminant, small or long entries
        bits = rng.choice((4, 16, 200))
        while True:
            A, B, C = (rng.randint(-(1 << bits), 1 << bits) for _ in range(3))
            D = B * B - 4 * A * C
            if C and D > 0 and math.isqrt(D) ** 2 != D:
                break
        _assert_rho_steps_match((A, B, C), 6)
    n = 0
    for tau in range(2, 17):
        for w in classes(tau, hyperbolic=True):
            a, b, c, d = _quad(encode(w))
            _assert_rho_steps_match((c, d - a, -b), tau + 4)
            n += 1
    assert n == 8891


def test_cross_check_holds_on_a_long_word():
    rng = random.Random(12000)
    w = BinaryWord.from_entries([rng.choice((-1, 1)) for _ in range(12000)])
    assert max_depth(w).cross_check_ok is True


def test_cross_check_catches_an_off_by_one_third_coefficient(monkeypatch, capsys):
    exact = geometry._rho

    def off_by_one(A, B, C, s):
        C, r, A = exact(A, B, C, s)
        return C, r, A + 1

    monkeypatch.setattr(geometry, "_rho", off_by_one)
    rng = random.Random(29)
    words = [w for tau in range(2, 9) for w in classes(tau, hyperbolic=True)]
    words += [_random_hyperbolic_word(rng) for _ in range(100)]
    for w in words:
        try:
            ok = max_depth(w).cross_check_ok
        except ContractViolationError:
            continue
        assert ok is False, str(w)
    assert main(["verify", "--suite", "geometry"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL geometry.reduced_cycle_certificate: ") for line in out)


def test_cross_check_fails_when_candidates_miss_the_minimum(monkeypatch):
    full = geometry._boundary_rotations

    def missing_minimum(base, plus, runs):
        rotations = full(base, plus, runs)
        low = min(min(abs(m[1]), abs(m[2])) for m in rotations)
        return [m for m in rotations if min(abs(m[1]), abs(m[2])) != low] or rotations

    monkeypatch.setattr(geometry, "_boundary_rotations", missing_minimum)
    # every rotation of ++- has an entry of size 1, so nothing can be left out
    assert max_depth(W("++-")).cross_check_ok is True
    assert max_depth(W("--+-+")).cross_check_ok is False
    report = audit_lemma71(6)
    failures = sum(row.cross_check_ok is False for row in report.rows)
    assert failures > 0
    assert report.summary["cross_check_failures"] == failures


# ---------------------------------------------------------------------------
# thick part

def test_in_thick_part_examples():
    assert in_thick_part(W("+-+-"), 1)
    assert in_thick_part(W("++-"), 2)
    assert not in_thick_part(W("++-"), 1)
    assert not in_thick_part(W("----"), 3)
    with pytest.raises(ValueError):
        in_thick_part(W("+-"), 0)


# ---------------------------------------------------------------------------
# bracket audit

def test_audit_smoke():
    report = audit_lemma71(6)
    assert report.summary["classes"] == sum(
        len(oracles.class_reps(tau)) - 2 for tau in range(2, 7)
    )
    assert report.summary["widened_hits"] == report.summary["classes"]
    assert (
        report.summary["paper_bracket_hits"] + report.summary["shifted_bracket_hits"]
        <= report.summary["classes"]
    )
    for row in report.rows:
        assert not (row.paper_bracket_hit and row.shifted_bracket_hit)
        assert BinaryWord.from_text(str(row.word)) == row.word


def test_audit_single_run_rows_sit_in_shifted_bracket():
    report = audit_lemma71(5)
    by_word = {str(row.word): row for row in report.rows}
    assert by_word["-+"].shifted_bracket_hit and not by_word["-+"].paper_bracket_hit
    assert by_word["-++"].shifted_bracket_hit and not by_word["-++"].paper_bracket_hit


def test_audit_rows_are_the_depth_reports_of_the_classes():
    report = audit_lemma71(8)
    want = [max_depth(w) for tau in range(1, 9) for w in classes(tau, hyperbolic=True)]
    assert list(report.rows) == want


def test_audit_integer_scoring_matches_float_brackets():
    # 2 * apex = sqrt(D) / min|c| is irrational, so no depth lies near a
    # bracket edge and the integer rules agree with float comparisons
    for row in audit_lemma71(12).rows:
        lo, mid, hi = (math.log(j / 2) for j in range(row.max_run, row.max_run + 3))
        assert min(abs(row.depth - edge) for edge in (lo, mid, hi)) > 1e-9
        assert row.paper_bracket_hit == (lo < row.depth < mid)
        assert row.shifted_bracket_hit == (mid < row.depth < hi)
        assert row.widened_hit == (lo < row.depth < hi)


def test_audit_validation():
    with pytest.raises(ValueError):
        audit_lemma71(1)
