"""Independent brute-force oracles for the test suite.

Everything here works on plain tuples of +-1 (or raw 4-tuples of matrix
entries) and never goes through the bit-packed library paths, so agreement
between an oracle and the library is meaningful evidence.
"""

import math
from fractions import Fraction
from itertools import groupby, product
from math import gcd


def rotate_tuple(entries, k):
    t = len(entries)
    return tuple(entries[(j - k) % t] for j in range(t))


def all_rotations(entries):
    return [rotate_tuple(entries, k) for k in range(len(entries))]


def canonical_tuple(entries):
    return min(all_rotations(entries))


def all_words(t):
    return product((-1, 1), repeat=t)


def class_reps(t, predicate=None):
    reps = {canonical_tuple(w) for w in all_words(t)}
    if predicate is not None:
        reps = {w for w in reps if predicate(w)}
    return reps


def is_primitive_tuple(entries):
    t = len(entries)
    for p in range(1, t):
        if t % p == 0 and entries == entries[p:] + entries[:p]:
            return False
    return True


def max_cyclic_run_tuple(entries):
    t = len(entries)
    if len(set(entries)) == 1:
        return t
    doubled = entries + entries
    return max(len(list(g)) for _, g in groupby(doubled))


def runs_tuple(entries):
    return tuple(len(list(g)) for _, g in groupby(entries))


def composition_entries(parts, leading):
    """The sign entries whose runs are ``parts``, the first run of sign ``leading``."""
    entries = []
    sign = leading
    for part in parts:
        entries.extend([sign] * part)
        sign = -sign
    return tuple(entries)


def is_mirrored_text(text):
    """Whether a '+'/'-' string reads, reversed and with its signs swapped, as itself.

    An odd-length string never does: its middle sign would have to be its own
    negation.
    """
    return text == text[::-1].translate(str.maketrans("+-", "-+"))


def is_mirrored_tuple(entries):
    n = len(entries)
    return n % 2 == 0 and all(entries[j] == -entries[n - 1 - j] for j in range(n))


def smaller_mirrored_reps(t):
    """The smaller mirrored member of each orbit of mirrored words of 2t entries."""
    # every free half h of t entries, followed by its reverse negated
    mirrored = [h + tuple(-e for e in reversed(h)) for h in all_words(t)]
    return {
        min(r for r in all_rotations(w) if is_mirrored_tuple(r)) for w in mirrored
    }


def return_shift_tuple(entries):
    """Smallest positive rotation carrying a mirrored word onto a mirrored word."""
    return next(
        k for k in range(1, len(entries) + 1)
        if is_mirrored_tuple(rotate_tuple(entries, k))
    )


def sign_text(entries):
    return "".join("+" if e == 1 else "-" for e in entries)


def compositions(t):
    if t == 0:
        return [()]
    out = []
    for first in range(1, t + 1):
        out.extend((first,) + rest for rest in compositions(t - first))
    return out


def bounded_compositions_list(t, m):
    return [c for c in compositions(t) if all(p <= m for p in c)]


def witness_entries(t, m):
    """The forced-slot lower-bound witnesses of t entries, built entry by entry.

    Forced slots are m, 2m, ... below t and the last slot; the free slots take
    every sign pattern in order, the first free slot most significant with -1
    before +1, and each pattern is completed by the first forced pattern, in
    the same order, whose cyclic runs are all at most m.
    """
    forced = sorted({*range(m, t, m), t - 1})
    free = [j for j in range(t) if j not in forced]
    entries = [0] * t
    for free_signs in product((-1, 1), repeat=len(free)):
        for slot, sign in zip(free, free_signs):
            entries[slot] = sign
        for forced_signs in product((-1, 1), repeat=len(forced)):
            for slot, sign in zip(forced, forced_signs):
                entries[slot] = sign
            if max_cyclic_run_tuple(tuple(entries)) <= m:
                yield tuple(entries)
                break


def _longest_ones(x):
    # each step shortens every block of ones by one
    n = 0
    while x:
        x &= x >> 1
        n += 1
    return n


def _max_cyclic_run_bits(bits, t):
    mask = (1 << t) - 1
    if bits == 0 or bits == mask:
        return t
    doubled = (bits << t) | bits
    return max(_longest_ones(doubled), _longest_ones(doubled ^ ((mask << t) | mask)))


def recursive_witness_bits(t, m):
    """The packed forced-slot witnesses by the former recursive completion.

    ``complete`` is the library's earlier search, kept verbatim: it recurses
    once per forced slot and rescans the whole known prefix at each, so it
    serves only small t.  Free assignments come in increasing order, as in
    ``witness_entries``.
    """
    forced = sorted({*range(m, t, m), t - 1})
    slots = [1 << (t - 1 - g) for g in forced]
    free = (1 << t) - 1 - sum(slots)
    # once forced slot k is set, the entries before the next one are known
    known = [(t - end, (1 << end) - 1) for end in (*forced[1:], t)]

    def complete(bits, k):
        # the first setting of forced slots k, k+1, ... in sign order that
        # keeps every cyclic run at most m, or None.  Depth first, -1 before
        # +1, so the first leaf reached is the first combination; a branch
        # whose known entries hold a linear run above m is dropped, since the
        # cyclic run through those entries is at least as long.
        if k == len(slots):
            return bits if _max_cyclic_run_bits(bits, t) <= m else None
        shift, full = known[k]
        for choice in (bits, bits | slots[k]):
            head = choice >> shift
            if _longest_ones(head) <= m and _longest_ones(head ^ full) <= m:
                found = complete(choice, k + 1)
                if found is not None:
                    return found
        return None

    # the subsets of free in increasing order, by the submask step
    words = []
    subset = 0
    while True:
        bits = complete(subset, 0)
        if bits is not None:
            words.append(bits)
        if subset == free:
            return words
        subset = (subset - free) & free


def alpha_fraction_bisection(m, tol):
    """The fields of ``AlphaData`` from a bisection on ``Fraction`` midpoints.

    The bracket [2(1 - 2^-m), 2] is halved max(130, ceil(log2(width/tol)) + 1)
    times (130 when tol is at least the width) on the sign of
    z^(m+1) - 2 z^m + 1, and the root is the final midpoint.
    """
    lo, hi = 2 * (1 - Fraction(1, 2**m)), Fraction(2)
    width = float(hi - lo)
    steps = max(130, math.ceil(math.log2(width / tol)) + 1 if tol < width else 0)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid ** (m + 1) - 2 * mid**m + 1 < 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    d = (root - 1) / (2 + (m + 1) * (root - 2))
    residual = root**m - sum(root**k for k in range(m))  # the defining polynomial
    return {
        "m": m,
        "alpha": float(root),
        "d": float(d),
        "residual": float(residual),
        "alpha_exact": root,
        "d_exact": d,
    }


# ---------------------------------------------------------------------------
# naive count formulas: the direct sums the library's linear-time forms replace

def necklace_count_shifts(tau):
    """Burnside's lemma over every shift: (1/tau) * sum_j 2^gcd(j, tau)."""
    count, rem = divmod(sum(1 << gcd(j, tau) for j in range(1, tau + 1)), tau)
    if rem:
        raise ArithmeticError(f"shift sum not divisible by {tau}")
    return count


def run_bounded_word_table(d_max, m):
    """[0, W(1), ..., W(d_max)]: non-constant cyclic words with cyclic runs at most m.

    W(d) counts the sign words of length d.  It is the trace of T^d for the
    automaton whose states are (sign, length of the run so far), that length at
    most m: a non-constant word reads one closed walk of d steps from the state
    of its first entry, and a constant word closes none.
    """
    states = [(s, r) for s in (-1, 1) for r in range(1, m + 1)]
    step = [
        [int((s2, r2) in ((s, r + 1), (-s, 1))) for s2, r2 in states] for s, r in states
    ]
    table, power = [0], step
    for _ in range(d_max):
        table.append(sum(power[i][i] for i in range(len(states))))
        power = [
            [sum(row[k] * step[k][j] for k in range(len(states))) for j in range(len(states))]
            for row in power
        ]
    return table


def run_bounded_hyperbolic_table(n_max, m):
    """[0, H(1), ..., H(n_max)]: classes of non-constant words with runs at most m.

    H(n) counts the rotation classes of n entries, by Burnside's lemma over
    every shift on ``run_bounded_word_table``.
    """
    words = run_bounded_word_table(n_max, m)
    table = [0]
    for n in range(1, n_max + 1):
        count, rem = divmod(sum(words[gcd(j, n)] for j in range(1, n + 1)), n)
        if rem:
            raise ArithmeticError(f"shift sum not divisible by {n}")
        table.append(count)
    return table


def composition_table(t_max, m):
    """[c_0, ..., c_t_max], c_k the compositions of k with parts at most m.

    Each entry is the window sum c_(k-1) + ... + c_(k-m) of the entries before.
    """
    counts = [1]
    for k in range(1, t_max + 1):
        counts.append(sum(counts[k - i] for i in range(1, min(m, k) + 1)))
    return counts


def primitive_table(totals):
    """Primitive parts of per-length totals: totals[n] = sum over d | n of out[d].

    ``totals`` is indexed from 1 (totals[0] is ignored); peels off the
    divisors bottom-up.
    """
    out = [0] * len(totals)
    for n in range(1, len(totals)):
        out[n] = totals[n] - sum(out[d] for d in range(1, n) if n % d == 0)
    return out


# ---------------------------------------------------------------------------
# raw 2x2 integer matrices (no sign canonicalisation, no classes)

MAT_A = (0, -1, 1, 0)
MAT_B = (1, -1, 1, 0)
MAT_B_INV = (0, 1, -1, 1)


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def encode_tuple(entries):
    out = (1, 0, 0, 1)
    for e in entries:
        out = mat_mul(out, mat_mul(MAT_A, MAT_B if e == 1 else MAT_B_INV))
    return out


def fixed_point_gap(mat):
    """Distance between the real fixed points of a hyperbolic matrix.

    Solves c z^2 + (d - a) z - b = 0 by the quadratic formula.
    """
    a, b, c, d = mat
    disc = (d - a) ** 2 + 4 * c * b
    return disc**0.5 / abs(c)


MAT_A_INV = (0, 1, -1, 0)


def projective_key(mat):
    """The sign of a matrix whose first nonzero entry is positive."""
    lead = next(x for x in mat if x != 0)
    return mat if lead > 0 else tuple(-x for x in mat)


def depth_candidates(entries):
    """Every rotation's matrix followed by its A-conjugate, k = 0, 1, ... ."""
    out = []
    for k in range(len(entries)):
        mat = encode_tuple(rotate_tuple(entries, k))
        out += [mat, mat_mul(mat_mul(MAT_A, mat), MAT_A_INV)]
    return out


def conjugation_search(start, entry_cap, node_cap):
    """Breadth-first search over conjugates by A, B and B^-1, in that order.

    Nodes are projective keys; a conjugate is dropped when already seen or
    when an entry exceeds entry_cap, and the search stops once node_cap keys
    are seen.  Returns (smallest nonzero |c|, number of keys seen).
    """
    moves = ((MAT_A, MAT_A_INV), (MAT_B, MAT_B_INV), (MAT_B_INV, MAT_B))
    queue = [projective_key(m) for m in start]
    seen = set(queue)
    best = min(abs(m[2]) for m in queue if m[2] != 0)
    head = 0
    while head < len(queue) and len(seen) < node_cap:
        mat = queue[head]
        head += 1
        for g, g_inv in moves:
            n = projective_key(mat_mul(mat_mul(g, mat), g_inv))
            if n in seen or max(abs(x) for x in n) > entry_cap:
                continue
            seen.add(n)
            if n[2] != 0:
                best = min(best, abs(n[2]))
            queue.append(n)
    return best, len(seen)
