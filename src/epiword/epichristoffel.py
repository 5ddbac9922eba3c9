"""Epichristoffel tuples and words.

An occurrence tuple admits an epichristoffel word exactly when repeatedly
replacing its maximal entry p_i by p_i minus the sum of all other entries
reaches a unit vector: a subtractive Euclid algorithm, run here by division.
The q steps that reduce one index in a row are one run (i, q), found by one
division, so a trace holds O(k log max) runs and expands its steps on demand.
Each step is one ``Psi`` atom; the atoms map the letter left standing to the
c-word. Every word here is read off one pass of the letter-image loop of
``morphisms`` over the atoms before the last one (``_parts``): the images of
the last atom's letter and of the terminal letter are the canonical split
u*v, the c-word. The epichristoffel word, the Lyndon conjugate of the c-word,
is the same pass with no rotation searched: each run is applied as Psi_a or
as its conjugate Psi-bar_a (c -> ca), whichever makes every occurrence of the
least letter start an image, and the lesser letter's image comes first, which
cuts it at its epichristoffel-tree root.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations, repeat
from math import comb, gcd
from typing import Iterator, Literal, Sequence

from .errors import AllZeroError, EmptyWordError, NotAdmissibleError, NotEpichristoffelError
from .errors import TrivialTupleError, WordLengthOverflow
from .morphisms import MorphismSeq, Psi, _images
from .words import MAX_WORD_LENGTH, Alphabet, OccurrenceTuple, Word, _code_counts, default_alphabet

TieBreak = Literal["recent", "smallest", "largest"]

_TIE_BREAKS = ("recent", "smallest", "largest")


@dataclass(frozen=True)
class TStep:
    """One reduction step: the tuple before, the reduced index, the tuple after."""

    before: OccurrenceTuple
    index: int
    after: OccurrenceTuple


@dataclass(frozen=True)
class TTrace:
    """Full reduction record for a tuple.

    ``runs`` lists (index, q): the index reduced q times in a row.
    ``terminal`` is the unit-vector index when the iteration succeeds;
    ``rejection`` names the failure otherwise (a negative entry, or a
    stationary tuple c*e_m with c > 1 that the reduction fixes forever).
    """

    start: OccurrenceTuple
    runs: tuple[tuple[int, int], ...]
    terminal: int | None
    rejection: str | None

    @property
    def admissible(self) -> bool:
        return self.terminal is not None

    @cached_property
    def steps(self) -> tuple[TStep, ...]:
        """The runs expanded into one step each, built on first use; at most MAX_WORD_LENGTH of them."""
        _check_trace_steps(self)
        steps = []
        for i, q, top, rest, left, right in _run_walk(self):
            tuples = [OccurrenceTuple((*left, top - j * rest, *right)) for j in range(q + 1)]
            steps.extend(TStep(tuples[j], i, tuples[j + 1]) for j in range(q))
        return tuple(steps)


def _check_trace_steps(trace: TTrace) -> None:
    """Refuse a trace of more than MAX_WORD_LENGTH steps, counted from its runs."""
    steps = sum(q for _, q in trace.runs)
    if steps > MAX_WORD_LENGTH:
        raise WordLengthOverflow(f"trace of {steps} steps exceeds the budget")


def _run_walk(trace: TTrace) -> Iterator[tuple[int, int, int, int, list[int], list[int]]]:
    """Per run (i, q): i, q, entry i before the run, what each step takes off it, the entries left and right of i."""
    counts = list(trace.start.counts)
    for i, q in trace.runs:
        top = counts[i]
        rest = sum(counts) - top
        yield i, q, top, rest, counts[:i], counts[i + 1 :]
        counts[i] = top - q * rest


@dataclass(frozen=True)
class ConstructionResult:
    """A word realizing an admissible tuple, with its construction evidence."""

    c_word: Word
    terminal_letter: int
    epi_word: Word
    rotation_offset: int
    trace: TTrace

    @cached_property
    def morphisms(self) -> MorphismSeq:
        """One ``Psi`` atom per reduction step, keyed by the reduced index, built from the runs on first read."""
        return MorphismSeq(tuple(chain.from_iterable(repeat(Psi(a), q) for a, q in self.trace.runs)))


@dataclass(frozen=True)
class CanonicalSplit:
    """Two-factor split u*v of the constructed word; both parts share its class family."""

    u: Word
    v: Word
    u_tuple: OccurrenceTuple
    v_tuple: OccurrenceTuple


def _choose_index(candidates: list[int], runs: Sequence[tuple[int, int]], tie_break: TieBreak) -> int:
    if tie_break == "smallest":
        return candidates[0]
    if tie_break == "largest":
        return candidates[-1]
    # "recent": prefer the position reduced most recently; new positions last.
    for index, _ in reversed(runs):
        if index in candidates:
            return index
    return candidates[0]


def t_operator(p: OccurrenceTuple) -> tuple[OccurrenceTuple, int]:
    """One reduction step on ``p``; returns the new tuple and the reduced index.

    The maximal entry is replaced by itself minus the sum of all other
    entries; among equal maxima the smallest index is reduced.
    """
    if p.k < 2:
        raise ValueError("reduction needs at least two entries")
    if all(c == 0 for c in p.counts):
        raise AllZeroError("tuple has no nonzero entry")
    top = max(p.counts)
    if top <= 0:
        raise ValueError("reduction needs at least one positive entry")
    idx = p.counts.index(top)
    return OccurrenceTuple(p.counts[:idx] + (2 * top - p.total(),) + p.counts[idx + 1 :]), idx


def _reduce(counts: list[int], tie_break: TieBreak) -> tuple[list[tuple[int, int]], int | None, str | None]:
    """Reduce non-negative ``counts``, not all zero, in place, one run per division: (runs, terminal, rejection).

    The library's one reduction loop. While entry i = top is the unique
    maximum, each step takes off rest, the sum of the others, so i is reduced
    q = (top - second - 1) // rest + 1 times in a row, until the largest other
    entry, second, ties or passes it. Every step but the last leaves i above
    second >= 0, so only the last can go negative. A tie is a run of one, on
    the index the tie-break picks. The running total falls by q * rest >= 1 a
    run, so there are at most as many runs as the starting total.
    """
    runs: list[tuple[int, int]] = []
    total = sum(counts)
    others = len(counts) - 1
    for _ in range(total + 1):
        if counts.count(0) == others:  # the one nonzero entry is the total
            if total == 1:
                return runs, counts.index(1), None
            return runs, None, "stationary tuple"
        ordered = sorted(counts)
        second, top = ordered[-2], ordered[-1]
        rest = total - top
        if second == top:
            i, q = _choose_index([j for j, c in enumerate(counts) if c == top], runs, tie_break), 1
        else:
            i, q = counts.index(top), (top - second - 1) // rest + 1
        low = top - q * rest
        counts[i] = low
        total = low + rest
        runs.append((i, q))
        if low < 0:
            return runs, None, "negative entry"
    raise AssertionError("the reduction did not terminate")


def admissibility(p: OccurrenceTuple, tie_break: TieBreak = "recent") -> TTrace:
    """Iterate the reduction on ``p``, one run per division, until a unit vector or a failure.

    There are at most ``p.total()`` steps, and O(k log max) runs (``_reduce``).
    A tie at total >= 3 leaves a negative or stationary tuple whichever index
    is reduced, so the verdict is independent of the tie-break rule, which
    only shapes the trace.
    """
    if tie_break not in _TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")
    if p.k < 2:
        raise ValueError("admissibility needs at least two entries")
    if any(c < 0 for c in p.counts):
        raise ValueError("admissibility is defined for non-negative tuples")
    if all(c == 0 for c in p.counts):
        raise AllZeroError("tuple has no nonzero entry")
    runs, terminal, rejection = _reduce(list(p.counts), tie_break)
    return TTrace(p, tuple(runs), terminal, rejection)


def _admitted(trace: TTrace, alphabet: Alphabet | None) -> tuple[TTrace, Alphabet]:
    """``trace`` and the alphabet to write its word in, once the word is known to exist and fit.

    Refused in this order: a rejected trace, an alphabet of other than k letters, a word over the budget.
    The caller reduces, so a trace made for a verdict is admitted without a second reduction.
    """
    p = trace.start
    if not trace.admissible:
        raise NotAdmissibleError(f"no epichristoffel word for {p}: {trace.rejection}")
    if alphabet is None:
        alphabet = default_alphabet(p.k)
    if alphabet.size != p.k:
        raise ValueError(f"alphabet size {alphabet.size} does not match tuple length {p.k}")
    if p.total() > MAX_WORD_LENGTH:
        raise WordLengthOverflow(f"word of length {p.total()} exceeds the budget")
    return trace, alphabet


def _parts(trace: TTrace, k: int, lyndon: bool) -> tuple[str, str]:
    """Codes (u, v) of two letter images under the runs of admissible ``trace`` but its innermost atom Psi_a.

    One pass of the letter-image loop over those outer runs. With t the
    terminal letter, Psi_a maps t to at. Without ``lyndon``, u and v are the
    images of a and t, every run applied as Psi: u*v is the c-word at its
    canonical split. With ``lyndon``, they are the images of low = min(a, t)
    and high = max(a, t), every run applied as low's Lyndon image applies it:
    u*v is the epichristoffel word at its tree root.

    Psi_a (c -> ac) and Psi-bar_a (c -> ca) map every word to conjugate words,
    so applying each run as either one gives a conjugate of the image. Both
    keep the lexicographic order of infinite words: the images of letters
    b < c, each followed by more images, first differ at two letters in the
    order of b and c. Take the runs innermost first, with x the inner word and
    L its least conjugate, its Lyndon word, as images of a letter are
    primitive; innermost, x = at and L = low*high. The least conjugate of the
    image starts with its least letter m. When m = a, every a starts an image
    under Psi_a; otherwise every m starts an image under Psi-bar_a. Either way
    that conjugate starts at an image boundary, so it is the image of the least
    conjugate of x: Psi_a(L) or Psi-bar_a(L). The letters of the word inside
    run j are low and the letters of runs j and further in, so m is a suffix
    minimum; high's image is taken under the same atoms, after low's.

    No image built is longer than the word. With w the letters of the outer
    atoms, Justin's formula Pal(wc) = Psi_w(c) Pal(w) gives |Psi_w(c)| <=
    |Pal(w)| + 1 <= |u| + |v| for every c, and an image under fewer atoms is
    no longer. A unit tuple has no atom, so no split.
    """
    outer, a = _outer_runs(trace)
    if lyndon:
        letters = sorted((a, trace.terminal))
        lows = list(accumulate(reversed([b for b, _ in outer]), min, initial=letters[0]))[::-1]
        fronts = [b == low for (b, _), low in zip(outer, lows)]
    else:
        letters, fronts = [a, trace.terminal], repeat(True)
    img = _images(outer, fronts, letters, [*map(chr, range(k))])
    return img[letters[0]], img[letters[1]]


def _outer_runs(trace: TTrace) -> tuple[list[tuple[int, int]], int]:
    """The runs of admissible ``trace`` but the innermost atom Psi_a, and a; a unit tuple has neither."""
    if not trace.runs:
        raise TrivialTupleError("unit tuples have no two-factor split")
    # The innermost run is one step that breaks the tie (1, 1) of a and t: any other run into a unit vector stops at it.
    *outer, (a, _) = trace.runs
    return outer, a


def _split(trace: TTrace, alphabet: Alphabet, u: str, v: str) -> CanonicalSplit:
    """The canonical split of admissible ``trace``'s c-word from the codes of its parts, their letters counted once."""
    u_tuple, v_tuple = _code_counts(u, alphabet.size), _code_counts(v, alphabet.size)
    assert u_tuple + v_tuple == trace.start, f"the split lost counts for {trace.start}"
    return CanonicalSplit(Word._trusted(u, alphabet), Word._trusted(v, alphabet), u_tuple, v_tuple)


def _root(p: OccurrenceTuple, alphabet: Alphabet | None, tie_break: TieBreak) -> tuple[Word, Word]:
    """The epichristoffel-tree root (u, v) of admissible ``p``: one reduction and one image pass (``_parts``).

    uv is the tuple's epichristoffel word, and u, a letter image, is its tuple's (Paquin 2010). No other cut of uv
    gives two epichristoffel words, and this one does when v is one: the standard factorization (Borel-Laubie) for
    k = 2; for k >= 3 the epichristoffel-tree paper (arXiv 2507.15313) suggests it, checked at every cut for every
    tuple with entries below 80, 36, 12, 7, 5 for k = 2, 3, 4, 5, 6, under all three tie-breaks.
    """
    trace, alphabet = _admitted(admissibility(p, tie_break), alphabet)
    u, v = _parts(trace, p.k, True)
    return Word._trusted(u, alphabet), Word._trusted(v, alphabet)


def construct(
    p: OccurrenceTuple, alphabet: Alphabet | None = None, tie_break: TieBreak = "recent"
) -> ConstructionResult:
    """Build the word realizing an admissible tuple, and its Lyndon conjugate.

    The word, the terminal letter's image under one ``Psi`` atom per reduction step, is its canonical split
    joined, and the epichristoffel word, the unique Lyndon representative of the class, its tree root joined:
    one reduction, then two image passes over the trace's runs (``_parts``), in O(n + k*runs), with the atoms
    listed only when ``morphisms`` is read. A unit tuple's word is its one letter. The offset of the rotation
    that gives the epichristoffel word is found by one substring search.
    """
    return _construction(admissibility(p, tie_break), alphabet)


def _construction(trace: TTrace, alphabet: Alphabet | None) -> ConstructionResult:
    """``construct`` from a trace already made: ``epiword tuple`` builds off its verdict's, one reduction per call."""
    trace, alphabet = _admitted(trace, alphabet)
    k = alphabet.size
    if trace.runs:
        c, epi = "".join(_parts(trace, k, False)), "".join(_parts(trace, k, True))
    else:
        c = epi = chr(trace.terminal)
    offset = (c + c).find(epi)
    assert offset >= 0, f"the Lyndon image of {trace.start} is not a rotation of its word"
    return ConstructionResult(Word._trusted(c, alphabet), trace.terminal, Word._trusted(epi, alphabet), offset, trace)


def canonical_split(
    p: OccurrenceTuple, alphabet: Alphabet | None = None, tie_break: TieBreak = "recent"
) -> CanonicalSplit:
    """Split the constructed word by peeling the innermost atom.

    With atoms f1..fl and terminal letter t, u is the image of fl's letter
    and v the image of t under f1..f(l-1); then u*v is the constructed word.
    One reduction and one image pass (``_parts``): no c-word, no Lyndon image, no rotation search.
    """
    trace, alphabet = _admitted(admissibility(p, tie_break), alphabet)
    return _split(trace, alphabet, *_parts(trace, alphabet.size, False))


def split_construction(result: ConstructionResult) -> CanonicalSplit:
    """The canonical split of a built construction: its c-word cut at |u|, u the image of a under the outer runs.

    No reduction and no letters built: |u| is one pass of the image loop on lengths, as ``apply`` runs it
    (``_images``), O(k*runs) integer steps, then one count of each part's letters.
    """
    c, alphabet = result.c_word._code, result.c_word.alphabet
    outer, a = _outer_runs(result.trace)
    cut = _images(outer, repeat(True), [a], [1] * alphabet.size)[a]
    return _split(result.trace, alphabet, c[:cut], c[cut:])


def _epichristoffel_parts(w: Word) -> tuple[str, tuple[str, ...] | None]:
    """The code of ``w`` and the epichristoffel word of its letter counts, as one letter or its root (u, v), or None."""
    if len(w) == 0:
        raise EmptyWordError("epichristoffel test is defined for nonempty words")
    s = w._code
    if len(w) == 1:
        return s, (s,)
    if w.alphabet.size < 2:
        return s, None
    trace = admissibility(_code_counts(s, w.alphabet.size))
    if not trace.admissible:
        return s, None
    _admitted(trace, w.alphabet)  # a word over the budget is refused
    return s, _parts(trace, w.alphabet.size, True)


def is_epichristoffel_word(w: Word) -> bool:
    """True when ``w`` is the Lyndon representative of an epichristoffel class.

    Single letters qualify as images under the identity morphism.
    """
    s, parts = _epichristoffel_parts(w)
    return parts is not None and s == "".join(parts)


def is_c_epichristoffel(w: Word) -> bool:
    """True when some rotation of ``w`` is an epichristoffel word."""
    s, parts = _epichristoffel_parts(w)
    # Equal letter counts, so equal lengths: s is a rotation of epi when it occurs in epi*epi.
    return parts is not None and s in "".join(parts) * 2


def epi_factorizations(w: Word) -> list[tuple[Word, Word]]:
    """All cuts of ``w`` into two epichristoffel words: its tree root (u, v) when v is one, else none (``_root``).

    The word test and the root are one pass (``_epichristoffel_parts``); only v is tested again.
    """
    s, parts = _epichristoffel_parts(w)
    if parts is None or s != "".join(parts):
        raise NotEpichristoffelError(f"{w} is not an epichristoffel word")
    if len(parts) < 2:
        return []
    u, v = (Word._trusted(x, w.alphabet) for x in parts)
    return [(u, v)] if is_epichristoffel_word(v) else []


def _orderings(values: list[int]) -> Iterator[tuple[int, ...]]:
    """The distinct orderings of ``values`` in lexicographic order, by next permutation."""
    a = sorted(values)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


# Most compositions of n into k entries, C(n+k-1, k-1), an enumeration may stand for:
# n up to 8,190 for k = 3, 584 for k = 4, 165 for k = 5, 80 for k = 6 and 50 for k = 7.
MAX_COMPOSITIONS = 32 * MAX_WORD_LENGTH
# Most entries in the tuples with a zero that an enumeration may list: k up to 128 at n = 2.
_MAX_PLACED_ENTRIES = MAX_WORD_LENGTH


def _check_compositions(n: int, k: int) -> None:
    """Refuse an enumeration over more than MAX_COMPOSITIONS compositions.

    C(n+k-1, r) with r = min(n, k-1) is built as C(a+j, j) for j = 1..r, a = n+k-1-r >= 1,
    a product that grows with j, so it stops once past the budget: a few dozen steps at most.
    """
    r = min(n, k - 1)
    count = 1
    for j in range(1, r + 1):
        count = count * (n + k - 1 - r + j) // j
        if count > MAX_COMPOSITIONS:
            raise WordLengthOverflow(f"enumeration of C({n + k - 1}, {k - 1}) compositions exceeds the budget")


def _all_letters(n: int, k: int) -> list[tuple[int, ...]]:
    """The admissible k-tuples of total n with no zero entry, unsorted: (1) at n = 1, coprime pairs, or a search.

    A tuple of total m >= 3 is admissible exactly when it has a unique maximum t, m/2 <= t < m, and t -> 2t - m
    leaves an admissible tuple of total t. The search runs that backwards, reaching each admissible multiset once
    (the reduction is deterministic) and listing its orderings: a state is the total m, the originals and
    currents of the entries reduced, and f >= 2 interchangeable free entries of sum F. At f = 2 a free maximum
    M leaves F - M as the last entry: a tuple part way through its reduction, for ``_reduce``.
    """
    if k < 3:
        return [(1,)] * (n == 1) if k == 1 else [(a, n - a) for a in range(1, n) if gcd(a, n) == 1]
    found: list[tuple[int, ...]] = []

    def grow(m: int, originals: tuple[int, ...], currents: tuple[int, ...], f: int, free: int) -> None:
        while m >= 3:
            ordered = sorted((-1, 0, *currents))
            second, top, rest = ordered[-2], ordered[-1], m - ordered[-1]
            # (a) The largest pinned entry stays the maximum, past any free entry, down to this floor: one division.
            floor = max(second + 1, rest, -(-free // f) + 1, 3 - rest)
            if currents and rest > 0 and top >= floor:
                i = currents.index(top)
                low = top - ((top - floor) // rest + 1) * rest
                currents, m = (*currents[:i], low, *currents[i + 1 :]), low + rest
                continue
            # (b) A free entry becomes the maximum M; the f - 1 others are at least 1.
            bigs = range(max(-(-m // 2), top + 1, -(-(free + f - 1) // f)), min(m - 1, free - f + 1) + 1)
            if f > 2:
                for big in bigs:
                    grow(big, (*originals, big), (*currents, 2 * big - m), f - 1, free - big)
            else:
                for big in bigs:
                    if _reduce([*currents, 2 * big - m, free - big], "smallest")[1] is not None:
                        found.extend(_orderings([*originals, big, free - big]))
            return
        if free == f and all(c <= 1 for c in currents):  # total m <= 2: exactly m entries are 1 and the others 0
            found.extend(_orderings([*originals, *repeat(1, f)]))

    grow(n, (), (), k, n)
    return found


def _listed(lists: list[list[tuple[int, ...]]], k: int) -> int:
    """How many k-tuples ``lists`` make, each j-letter list placed once per j-subset of the k positions."""
    return sum(comb(k, len(tuples[0])) * len(tuples) for tuples in filter(None, lists))


def _listing(n: int, k: int, require_all_letters: bool, first: int | None = None) -> list[tuple[int, ...]]:
    """The counts ``tuples_of_length`` lists; given ``first``, a sorted list starting as they do, empty if they are."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    _check_compositions(n, k)
    lists: list[list[tuple[int, ...]]] = []
    for j in range(1, 0 if require_all_letters else min(n, k - 1) + 1):
        lists.append(_all_letters(n, j))
        if k * (listed := _listed(lists, k)) > _MAX_PLACED_ENTRIES:
            raise WordLengthOverflow(f"enumeration of at least {listed} tuples of {k} entries exceeds the budget")
    # k - j zeros, then the j-letter listing, begin the listing: given ``first``, take the least j < k with that many.
    start = next((k - j for j in range(2, k) if first is not None and _listed(lists[:j], j) >= max(first, 1)), 0)
    found: list[tuple[int, ...]] = []
    for tuples in filter(None, lists[: k - start]):
        columns = list(zip(*tuples))
        for positions in combinations(range(start, k), len(columns)):
            row = [repeat(0)] * k
            for i, column in zip(positions, columns):
                row[i] = column
            found.extend(zip(*row))
    found += [] if start else _all_letters(n, k)
    found.sort()
    return found


def tuples_of_length(n: int, k: int, require_all_letters: bool = False) -> list[OccurrenceTuple]:
    """All admissible k-tuples with entry sum n, in lexicographic order.

    A zero entry never changes a verdict: it is never the maximum and adds nothing to the others' sum.
    So the list is the admissible j-tuples of total n with no zero (``_all_letters``), j = 1..min(n, k),
    each on every j-subset of the k positions, then sorted; with ``require_all_letters``, the k-letter
    list alone. Refused: more than MAX_COMPOSITIONS compositions, C(n+k-1, k-1), before any search, and
    more than _MAX_PLACED_ENTRIES entries in the tuples with a zero, k * (the sum over j < k of C(k, j) *
    |j-letter list|), once the lists built, fewest letters first, hold them.
    """
    found = _listing(n, k, require_all_letters)
    # Each entry is a non-empty int tuple, so it passes the check: one C-level batch fills the counts slot.
    tuples = list(map(OccurrenceTuple.__new__, repeat(OccurrenceTuple, len(found))))
    deque(map(OccurrenceTuple.counts.__set__, tuples, found), maxlen=0)
    return tuples


# Most steps rendered by one %-format: a piece of a few tens of KB.
_TRACE_CHUNK = 1024


def _trace_pieces(trace: TTrace, symbols: str) -> Iterator[str]:
    """The arrow rendering of ``trace`` in pieces: the start, then at most _TRACE_CHUNK steps of a run each.

    A trace of more than MAX_WORD_LENGTH steps is refused, from its runs, before the first piece.
    The steps of run (i, q) differ only in entry i, top - j*rest for j = 1..q, so
    a chunk of them is one %-format of the step repeated over a slice of that
    arithmetic progression. A symbol may be ``%``, so it is escaped; the entries are integers.
    """
    _check_trace_steps(trace)
    yield str(trace.start)
    for i, q, top, rest, left, right in _run_walk(trace):
        head = f" ->{symbols[i]} (".replace("%", "%%") + "".join(f"{c}," for c in left)
        step = head + "%d" + "".join(f",{c}" for c in right) + ")"
        for j in range(1, q + 1, _TRACE_CHUNK):
            n = min(_TRACE_CHUNK, q + 1 - j)
            yield (step * n) % tuple(range(top - j * rest, top - (j + n) * rest, -rest))


def format_trace(trace: TTrace, alphabet: Alphabet | None = None) -> str:
    """Arrow rendering, e.g. ``(1,4,2) ->y (1,1,2) ->z (1,1,0) ->y (1,0,0)``, of at most MAX_WORD_LENGTH steps."""
    if alphabet is None:
        alphabet = default_alphabet(trace.start.k)
    if alphabet.size < trace.start.k:
        raise ValueError(f"alphabet size {alphabet.size} is smaller than tuple length {trace.start.k}")
    return "".join(_trace_pieces(trace, alphabet.symbols))


__all__ = [
    "TieBreak",
    "TStep",
    "TTrace",
    "ConstructionResult",
    "CanonicalSplit",
    "t_operator",
    "admissibility",
    "construct",
    "canonical_split",
    "split_construction",
    "is_epichristoffel_word",
    "is_c_epichristoffel",
    "epi_factorizations",
    "tuples_of_length",
    "format_trace",
]
