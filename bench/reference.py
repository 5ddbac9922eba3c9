"""Independent answers that the benchmark checks the library's outputs against.

Nothing here imports epiword. Words are plain Python strings whose
characters are letter indices (chr(0), chr(1), ...), so comparisons and
rotations run in C. Each function is the obvious or the arithmetic form of
a result the library computes another way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

POLICIES = ("recent", "smallest", "largest")

# Number of admissible 3-tuples with every entry >= 1 and total n, for
# n = 4..60; a copy of the frozen table in the acceptance tests.
ADMISSIBLE_COUNTS_4_TO_60 = [
    3, 0, 9, 6, 9, 6, 27, 12, 27, 18, 27, 30, 51, 24, 63, 48, 45, 48, 93, 48,
    81, 66, 99, 78, 129, 72, 117, 126, 111, 102, 165, 114, 177, 150, 165, 144,
    207, 132, 219, 186, 183, 186, 321, 180, 243, 216, 243, 246, 333, 198, 279,
    318, 291, 276, 411, 276, 363,
]


@dataclass(frozen=True)
class Verdict:
    admissible: bool
    steps: int
    terminal: int | None
    rejection: str | None


def reduce_tuple(counts: tuple[int, ...], policy: str = "recent") -> Verdict:
    """The reduction verdict, taking each run of one index in a single division.

    Same step semantics as the one-step-at-a-time reduction: the maximal
    entry p_i becomes p_i - (sum of the others); ties between maxima follow
    ``policy``; a step that leaves a negative entry ends the trace.
    """
    p = list(counts)
    k = len(p)
    steps = 0
    last: dict[int, int] = {}
    while True:
        nonzero = [i for i in range(k) if p[i]]
        if len(nonzero) == 1:
            m = nonzero[0]
            if p[m] == 1:
                return Verdict(True, steps, m, None)
            return Verdict(False, steps, None, "stationary tuple")
        top = max(p)
        tied = [i for i in range(k) if p[i] == top]
        if policy == "smallest" or len(tied) == 1:
            i = tied[0]
        elif policy == "largest":
            i = tied[-1]
        else:
            seen = [c for c in tied if c in last]
            i = max(seen, key=last.__getitem__) if seen else tied[0]
        rest = sum(p) - top
        second = max(p[j] for j in range(k) if j != i)
        # Steps of index i while it stays strictly above every other entry;
        # the first step is taken even when i only ties for the maximum.
        run = max(1, -((second - top) // rest))
        first_negative = top // rest + 1
        if first_negative <= run:
            return Verdict(False, steps + first_negative, None, "negative entry")
        p[i] = top - run * rest
        steps += run
        last[i] = steps


def psi_word(growth: list[tuple[int, int]], terminal: int, k: int) -> str:
    """The word Psi_{g_L}^{q_L} ... Psi_{g_1}^{q_1}(terminal), built by letter images.

    ``growth`` lists the runs (index, q) in the order they were applied to
    the unit vector. Processing them outermost first, a run of Psi_g sets
    img[c] = img[g]^q img[c] for every c != g.
    """
    img = [chr(c) for c in range(k)]
    for g, q in reversed(growth):
        head = img[g] * q
        img = [w if c == g else head + w for c, w in enumerate(img)]
    return img[terminal]


def least_rotation(s: str) -> str:
    """Least conjugate by comparing every rotation."""
    return min(s[i:] + s[:i] for i in range(len(s)))


def letter_counts(letters, k: int) -> tuple[int, ...]:
    """Occurrences of letters 0..k-1 in a string word or a sequence of indices."""
    c = Counter(letters)
    key = chr if isinstance(letters, str) else int
    return tuple(c.get(key(i), 0) for i in range(k))


def christoffel(a: int, b: int) -> str:
    """Lower Christoffel word of slope a/b: letter j is 1 when floor(j a/n) steps up."""
    n = a + b
    return "".join(chr(((j + 1) * a) // n - (j * a) // n) for j in range(n))


def christoffel_cut(a: int, b: int) -> int:
    """Length of the first factor of the standard factorization.

    The cut is the path point (i, j) with i*a - j*b = 1, so i = a^-1 mod b
    (or i = 1 when b = 1) and j = (i*a - 1) / b.
    """
    i = pow(a, -1, b) if b > 1 else 1
    return i + (i * a - 1) // b


def sb_node(bits: int, depth: int) -> tuple[int, int]:
    """Stern-Brocot fraction (num, den) reached by ``depth`` steps read from ``bits``.

    Bit 0 goes left, bit 1 goes right, most significant step first, from
    the bounds 0/1 and 1/0.
    """
    ln, ld, rn, rd = 0, 1, 1, 0
    for shift in range(depth - 1, -1, -1):
        mn, md = ln + rn, ld + rd
        if (bits >> shift) & 1:
            ln, ld = mn, md
        else:
            rn, rd = mn, md
    return ln + rn, ld + rd


def sb_level_entry(level: int, pos: int) -> tuple[int, int]:
    """Entry ``pos`` (0-based, from the left) of mediant level ``level`` (1-based)."""
    return sb_node(pos, level - 1)


def diagonal_fractions(side: str, k: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` entries of the k-th diagonal from ``side``.

    Level d holds 2^(d-1) entries, so the first level with a k-th entry is
    the one with 2^(d-1) >= k.
    """
    level = 1
    while 1 << (level - 1) < k:
        level += 1
    out = []
    for d in range(level, level + count):
        width = 1 << (d - 1)
        out.append(sb_level_entry(d, k - 1 if side == "L" else width - k))
    return out


def row_successor(side: str, frac: tuple[int, int]) -> tuple[int, int]:
    """Next entry along a diagonal: a/b -> a/(a+b) from the left, (a+b)/b from the right."""
    a, b = frac
    return (a, a + b) if side == "L" else (a + b, b)


def seeded_tuple(pu: tuple[int, ...], pv: tuple[int, ...], frac: tuple[int, int]) -> tuple[int, ...]:
    """The entry of a tuple-seeded mediant tree at the place of fraction num/den.

    With seed (pu, pv), every entry is den*pu + num*pv.
    """
    num, den = frac
    return tuple(den * x + num * y for x, y in zip(pu, pv))


def sb_path(alpha: int, beta: int) -> str:
    """Subtractive Euclid walk from (alpha, beta) to (1, 1), one letter per step."""
    out = []
    while (alpha, beta) != (1, 1):
        if alpha > beta:
            q = (alpha - 1) // beta if beta == 1 else alpha // beta
            out.append("L" * q)
            alpha -= q * beta
        else:
            q = (beta - 1) // alpha if alpha == 1 else beta // alpha
            out.append("R" * q)
            beta -= q * alpha
    return "".join(out)


def candidates(n: int, k: int, all_letters: bool) -> int:
    """Number of k-part compositions of n (parts >= 1 when all_letters, else >= 0)."""
    return comb(n - 1, k - 1) if all_letters else comb(n + k - 1, k - 1)


def admissible_tuples(n: int, k: int, all_letters: bool) -> list[tuple[int, ...]]:
    """Every admissible k-tuple of total n in lexicographic order, by brute force."""
    low = 1 if all_letters else 0

    def parts(total: int, left: int):
        if left == 1:
            if total >= low:
                yield (total,)
            return
        for first in range(low, total - low * (left - 1) + 1):
            for rest in parts(total - first, left - 1):
                yield (first,) + rest

    return [t for t in parts(n, k) if reduce_tuple(t).admissible]
