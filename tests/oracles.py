"""Independent brute-force oracles used to freeze expected values.

These stay deliberately naive and separate from the library code paths they
check: rotation minima by scanning every rotation, balance by comparing
every factor pair, Christoffel words by enumerating lattice paths and
filtering with the geometric definition, epichristoffel words by rewriting
the whole word once per ``Psi`` atom.
"""

from itertools import combinations

from epiword import (
    BINARY,
    CanonicalSplit,
    ConstructionResult,
    MorphismSeq,
    OccurrenceTuple,
    Psi,
    Word,
    admissibility,
    default_alphabet,
    least_rotation,
    parikh,
)
from epiword.morphisms import apply


def naive_least_rotation(w: Word) -> tuple[Word, int]:
    letters = w.letters
    n = len(letters)
    rotations = [(letters[i:] + letters[:i], i) for i in range(n)]
    best, best_i = min(rotations)
    return Word(best, w.alphabet), best_i


def naive_is_balanced(w: Word) -> bool:
    n, k = len(w), w.alphabet.size
    for length in range(1, n + 1):
        windows = [w.letters[i : i + length] for i in range(n - length + 1)]
        for a in range(k):
            counts = [win.count(a) for win in windows]
            if max(counts) - min(counts) > 1:
                return False
    return True


def geometric_christoffel(a: int, b: int) -> Word:
    """The unique monotone path below the (0,0)-(b,a) segment with an empty region.

    Enumerates every placement of the a vertical steps; a path survives when
    it never rises above the segment and no lattice point sits strictly
    between the path and the segment.
    """
    n = a + b
    survivors = []
    for y_positions in combinations(range(n), a):
        ys = set(y_positions)
        i = j = 0
        points = [(0, 0)]
        below = True
        for step in range(n):
            if step in ys:
                j += 1
            else:
                i += 1
            if j * b > i * a:
                below = False
                break
            points.append((i, j))
        if not below:
            continue
        top: dict[int, int] = {}
        for pi, pj in points:
            top[pi] = max(top.get(pi, -1), pj)
        clear = all(
            pj * b > pi * a
            for pi in range(b + 1)
            for pj in range(top[pi] + 1, a + 1)
        )
        if clear:
            survivors.append(tuple(1 if s in ys else 0 for s in range(n)))
    assert len(survivors) == 1, f"slope {a}/{b}: {len(survivors)} tight paths"
    return Word(survivors[0], BINARY)


def naive_construct(
    p: OccurrenceTuple, tie_break: str = "recent"
) -> tuple[ConstructionResult, CanonicalSplit | None]:
    """Construction and canonical split of an admissible tuple, one atom at a time.

    The atoms, applied innermost first, each rewrite the whole word, which is
    quadratic in its length on long runs. The split applies all atoms but the
    innermost to that atom's letter and to the terminal letter; unit tuples
    have none.
    """
    trace = admissibility(p, tie_break)
    assert trace.terminal is not None, f"{p} is not admissible"
    alphabet = default_alphabet(p.k)
    morphisms = MorphismSeq(tuple(Psi(step.index) for step in trace.steps))
    c_word = apply(morphisms, Word((trace.terminal,), alphabet))
    epi_word, offset = least_rotation(c_word)
    result = ConstructionResult(c_word, morphisms, trace.terminal, epi_word, offset, trace)
    if not morphisms.atoms:
        return result, None
    prefix, last = morphisms.atoms[:-1], morphisms.atoms[-1]
    u = apply(prefix, Word((last.letter,), alphabet))
    v = apply(prefix, Word((trace.terminal,), alphabet))
    return result, CanonicalSplit(u, v, parikh(u), parikh(v))
