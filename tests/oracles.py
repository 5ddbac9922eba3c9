"""Independent brute-force oracles used to freeze expected values.

These stay deliberately naive and separate from the library code paths they
check: rotation minima by scanning every rotation or by Booth's scan,
balance by comparing every factor pair, Christoffel words by enumerating
lattice paths and filtering with the geometric definition or by one floor
per letter, admissibility by one subtraction
per reduction step, epichristoffel words by applying one ``Psi`` atom per
reduction step, atom images by one list append per letter and sequence
images by a fold of those, Christoffel splits by scanning every path label, tree roots by building each part's
word anew, the epichristoffel test by the
least rotation of the word built for the letter counts, epichristoffel factorizations by both word tests at every
cut, tree paths by one subtraction
and one node per step, word-tree levels breadth first by ``left`` and
``right`` on each node, factorizability by both word tests on every node and that cut scan on the spine,
admissible tuples by reducing every composition,
mediant rows by one ``mediant`` call per neighbouring pair, Stern-Brocot
diagonals by reading each level of those rows in turn, the longest node word
of a word tree by the largest entry of the whole mediant row of its lengths,
and the JSON form of a word tree by building it whole as nested dicts.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count
from math import gcd

from epiword import (
    BINARY,
    Alphabet,
    CanonicalSplit,
    ConstructionResult,
    MorphismSeq,
    OccurrenceTuple,
    Psi,
    PsiBar,
    Slope,
    TreeNode,
    TStep,
    Theta,
    Word,
    admissibility,
    christoffel_word,
    construct,
    default_alphabet,
    epichristoffel_tree,
    is_epichristoffel_word,
    least_rotation,
    mediant,
    parikh,
    path_labels,
    tree_levels,
)
from epiword.epichristoffel import split_construction
from epiword.errors import AllZeroError, EmptyWordError, InvalidLetterError, NotEpichristoffelError, NotInTreeError
from epiword.errors import RootSelectionError
from epiword.trees import FactorizabilityReport, NodeClassification, _solve_seed_combination


def naive_least_rotation(w: Word) -> tuple[Word, int]:
    letters = w.letters
    n = len(letters)
    rotations = [(letters[i:] + letters[:i], i) for i in range(n)]
    best, best_i = min(rotations)
    return Word(best, w.alphabet), best_i


def booth_least_rotation(w: Word) -> tuple[Word, int]:
    """Least rotation by Booth's failure-function scan (Booth, IPL 1980), one interpreted step per letter."""
    s = w.letters
    n = len(s)
    doubled = s + s
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = doubled[j]
        i = f[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    k %= n
    return Word(s[k:] + s[:k], w.alphabet), k


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


def naive_christoffel_word(a: int, b: int, alphabet=BINARY) -> Word:
    """Letter k is y exactly when floor(k*a/(a+b)) exceeds floor((k-1)*a/(a+b)): the path crosses a lattice line."""
    n = a + b
    letters = []
    prev = 0
    for k in range(1, n + 1):
        cur = (k * a) // n
        letters.append(1 if cur > prev else 0)
        prev = cur
    return Word(tuple(letters), alphabet)


def _check_atom_letter(letter: int, alphabet) -> None:
    if not 0 <= letter < alphabet.size:
        raise InvalidLetterError(f"letter index {letter} outside alphabet {alphabet.symbols!r}")


def naive_apply_atom(atom, w: Word) -> Word:
    """Image of ``w`` under one atom, by appending each letter's image to a list."""
    out: list[int] = []
    match atom:
        case Psi(letter=a):
            _check_atom_letter(a, w.alphabet)
            for c in w.letters:
                if c == a:
                    out.append(a)
                else:
                    out.append(a)
                    out.append(c)
        case PsiBar(letter=a):
            _check_atom_letter(a, w.alphabet)
            for c in w.letters:
                if c == a:
                    out.append(a)
                else:
                    out.append(c)
                    out.append(a)
        case Theta(first=a, second=b):
            _check_atom_letter(a, w.alphabet)
            _check_atom_letter(b, w.alphabet)
            swap = {a: b, b: a}
            out = [swap.get(c, c) for c in w.letters]
        case _:
            raise TypeError(f"not a morphism atom: {atom!r}")
    return Word(tuple(out), w.alphabet)


def naive_apply(atoms, w: Word, limit: int) -> Word | None:
    """Image of ``w`` under a sequence, one ``naive_apply_atom`` per atom, innermost first; None past ``limit`` letters.

    Every atom's letters are checked first, innermost first, on the empty word.
    An atom never shortens a word, so the fold stops at the first image past the limit.
    """
    for atom in reversed(atoms):
        naive_apply_atom(atom, Word((), w.alphabet))
    for atom in reversed(atoms):
        if len(w) > limit:
            return None
        w = naive_apply_atom(atom, w)
    return None if len(w) > limit else w


@dataclass(frozen=True)
class NaiveTrace:
    start: OccurrenceTuple
    steps: tuple[TStep, ...]
    terminal: int | None
    rejection: str | None

    def text(self, alphabet: Alphabet | None = None) -> str:
        """The arrow rendering of ``format_trace``, one step at a time."""
        alphabet = alphabet or default_alphabet(self.start.k)
        parts = [str(self.start)]
        for step in self.steps:
            parts.append(f"->{alphabet.symbols[step.index]}")
            parts.append(str(step.after))
        return " ".join(parts)


def _choose_index(candidates, history, tie_break):
    if len(candidates) == 1 or tie_break == "smallest":
        return candidates[0]
    if tie_break == "largest":
        return candidates[-1]
    # "recent": prefer the position reduced most recently; new positions last.
    members = set(candidates)
    for step in reversed(history):
        if step.index in members:
            return step.index
    return candidates[0]


def _t_step(p, history, tie_break):
    top = max(p.counts)
    candidates = [i for i, c in enumerate(p.counts) if c == top]
    idx = _choose_index(candidates, history, tie_break)
    counts = list(p.counts)
    counts[idx] = top - (p.total() - top)
    return OccurrenceTuple(tuple(counts)), idx


def naive_admissibility(p: OccurrenceTuple, tie_break: str = "recent") -> NaiveTrace:
    """The reduction one subtraction at a time, one ``TStep`` per step."""
    if tie_break not in ("recent", "smallest", "largest"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if p.k < 2:
        raise ValueError("admissibility needs at least two entries")
    if any(c < 0 for c in p.counts):
        raise ValueError("admissibility is defined for non-negative tuples")
    if all(c == 0 for c in p.counts):
        raise AllZeroError("tuple has no nonzero entry")

    steps: list[TStep] = []
    current = p
    for _ in range(p.total() + 1):
        nonzero = [i for i, c in enumerate(current.counts) if c != 0]
        if len(nonzero) == 1:
            m = nonzero[0]
            if current.counts[m] == 1:
                return NaiveTrace(p, tuple(steps), terminal=m, rejection=None)
            return NaiveTrace(p, tuple(steps), terminal=None, rejection="stationary tuple")
        after, idx = _t_step(current, steps, tie_break)
        steps.append(TStep(current, idx, after))
        if any(c < 0 for c in after.counts):
            return NaiveTrace(p, tuple(steps), terminal=None, rejection="negative entry")
        current = after
    raise AssertionError(f"reduction of {p} did not terminate")


def naive_construct(
    p: OccurrenceTuple, tie_break: str = "recent"
) -> tuple[ConstructionResult, MorphismSeq, CanonicalSplit | None]:
    """Construction, its atoms and canonical split of an admissible tuple, one atom per reduction step.

    The word is the terminal letter's image under the atoms, one ``Psi`` per
    step of the trace, applied one letter at a time by ``naive_apply``. The
    split applies all atoms but the innermost to that atom's letter and to the
    terminal letter; unit tuples have none.
    """
    trace = admissibility(p, tie_break)
    assert trace.terminal is not None, f"{p} is not admissible"
    alphabet = default_alphabet(p.k)
    morphisms = MorphismSeq(tuple(Psi(step.index) for step in trace.steps))
    c_word = naive_apply(morphisms.atoms, Word((trace.terminal,), alphabet), p.total())
    epi_word, offset = least_rotation(c_word)
    result = ConstructionResult(c_word, trace.terminal, epi_word, offset, trace)
    if not morphisms.atoms:
        return result, morphisms, None
    prefix, last = morphisms.atoms[:-1], morphisms.atoms[-1]
    u = naive_apply(prefix, Word((last.letter,), alphabet), p.total())
    v = naive_apply(prefix, Word((trace.terminal,), alphabet), p.total())
    return result, morphisms, CanonicalSplit(u, v, parikh(u), parikh(v))


def naive_standard_factorization(slope: Slope, alphabet=BINARY) -> tuple[Word, Word]:
    """Split the Christoffel word where a scan of every path label finds 1/b."""
    labels = path_labels(slope, alphabet)
    cuts = [pos for pos, label in enumerate(labels) if label.numerator == 1]
    # gcd(a, b) = 1 makes the label-1/b point unique.
    assert len(cuts) == 1, f"expected one split point for {slope}, found {len(cuts)}"
    word = christoffel_word(slope, alphabet)
    cut = cuts[0]
    return word[:cut], word[cut:]


def naive_epichristoffel_tree(p: OccurrenceTuple, alphabet=None, tie_break: str = "recent") -> TreeNode:
    """Tree root whose prefix test constructs each split part's tuple anew.

    Each epichristoffel word is the least rotation of a constructed word, not
    the ``epi_word`` the construction reports.
    """
    built = construct(p, alphabet, tie_break)
    split = split_construction(built)
    w = least_rotation(built.c_word)[0]
    matching_cuts = set()
    for part in (split.u, split.v):
        cut = len(part)
        part_word = least_rotation(construct(parikh(part), w.alphabet, tie_break).c_word)[0]
        if w[:cut] == part_word:
            matching_cuts.add(cut)
    if len(matching_cuts) != 1:
        raise RootSelectionError(
            f"expected exactly one matching prefix for {p}, got cuts {sorted(matching_cuts)}"
        )
    cut = matching_cuts.pop()
    return TreeNode(w[:cut], w[cut:])


def naive_is_epichristoffel_word(w: Word, tie_break: str = "recent") -> bool:
    """Whether ``w`` is the least rotation of the word built for its letter counts, counted one letter at a time."""
    if len(w) == 0:
        raise EmptyWordError("epichristoffel test is defined for nonempty words")
    if len(w) == 1:
        return True
    if w.alphabet.size < 2:
        return False
    counts = [0] * w.alphabet.size
    for c in w.letters:
        counts[c] += 1
    p = OccurrenceTuple(tuple(counts))
    if not admissibility(p, tie_break).admissible:
        return False
    return least_rotation(construct(p, w.alphabet, tie_break).c_word)[0] == w


def naive_epi_factorizations(w: Word) -> list[tuple[Word, Word]]:
    """Every cut of epichristoffel ``w`` into two epichristoffel words, by both word tests at each of the n - 1 cuts."""
    if not is_epichristoffel_word(w):
        raise NotEpichristoffelError(f"{w} is not an epichristoffel word")
    found = []
    for cut in range(1, len(w)):
        u, v = w[:cut], w[cut:]
        if is_epichristoffel_word(u) and is_epichristoffel_word(v):
            found.append((u, v))
    return found


def naive_walk_to_tuple(root_tuple: OccurrenceTuple, target: OccurrenceTuple, alphabet=None):
    """Tree path and node by one subtraction, then one ``left``/``right``, per step."""
    root = naive_epichristoffel_tree(root_tuple, alphabet)
    pu, pv = parikh(root.u), parikh(root.v)
    alpha, beta = _solve_seed_combination(pu, pv, target)
    if alpha < 1 or beta < 1 or gcd(alpha, beta) != 1:
        raise NotInTreeError(f"{target} needs coprime positive coefficients, got ({alpha}, {beta})")
    path = []
    while (alpha, beta) != (1, 1):
        if alpha > beta:
            path.append("L")
            alpha -= beta
        else:
            path.append("R")
            beta -= alpha
    node = root
    for step in path:
        node = node.left() if step == "L" else node.right()
    assert parikh(node.word) == target
    return path, node


def naive_tree_levels(root: TreeNode, depth: int) -> list[list[TreeNode]]:
    """Levels 0..depth, breadth first: each node of a level gives its ``left()`` and ``right()``."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    levels = [[root]]
    for _ in range(depth):
        levels.append([child for node in levels[-1] for child in (node.left(), node.right())])
    return levels


def naive_classify_factorizability(root_tuple: OccurrenceTuple, depth: int, alphabet=None) -> FactorizabilityReport:
    """Report from ``is_epichristoffel_word`` on the u and the v of every node; the right spine scanned at each cut."""
    root = epichristoffel_tree(root_tuple, alphabet)
    levels = tree_levels(root, depth)
    entries = tuple(
        NodeClassification(node, is_epichristoffel_word(node.u), is_epichristoffel_word(node.v))
        for level in levels
        for node in level
    )
    spine_words = tuple(level[-1].word for level in levels)
    if entries[0].v_epichristoffel:
        spine_free = None
    else:
        spine_free = all(naive_epi_factorizations(word) == [] for word in spine_words)
    return FactorizabilityReport(root, entries, spine_words, spine_free)


def _compositions(total: int, parts: int, minimum: int):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def naive_tuples_of_length(n: int, k: int, require_all_letters: bool = False) -> list[OccurrenceTuple]:
    """All admissible k-tuples with entry sum n, in lexicographic order, by one verdict per composition."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    candidates = map(OccurrenceTuple, _compositions(n, k, 1 if require_all_letters else 0))
    return [p for p in candidates if admissibility(p).admissible]


def naive_insert_mediants(seq):
    """One round of mediant insertion, one ``mediant`` call per neighbouring pair."""
    merged = [seq[0]] * (2 * len(seq) - 1)
    merged[0::2] = seq
    merged[1::2] = [mediant(a, b) for a, b in zip(seq, seq[1:])]
    return merged


def naive_longest_node_word(u_len: int, v_len: int, depth: int) -> int:
    """Letters in the longest node word to ``depth`` below (u, v): the largest entry of mediant level depth + 1."""
    row = [OccurrenceTuple((u_len,)), OccurrenceTuple((v_len,))]
    for _ in range(depth + 1):
        row = naive_insert_mediants(row)
    return max(entry.total() for entry in row)


@lru_cache(maxsize=1)
def _sb_levels(seed):
    """A seed's latest row and the levels built so far, shared between calls on the same seed."""
    return [list(seed)], []


def naive_sb_diagonal(seed, side: str, k: int):
    """The k-th entry from ``side`` of every mediant level that has one, level by level."""
    row, built = _sb_levels(seed)
    for i in count():
        if i == len(built):
            row[0] = naive_insert_mediants(row[0])
            built.append(row[0][1::2])
        entries = built[i]
        if len(entries) >= k:
            yield entries[k - 1] if side == "L" else entries[len(entries) - k]


def tree_to_dict(node: TreeNode, depth: int) -> dict:
    """JSON form of a word tree: node = {u, v, tuple, children}."""
    children = [] if depth == 0 else [tree_to_dict(c, depth - 1) for c in node.children()]
    return {
        "u": str(node.u),
        "v": str(node.v),
        "tuple": list(parikh(node.word).counts),
        "children": children,
    }
