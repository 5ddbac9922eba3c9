"""Word trees and mediant trees.

All three tree families share one node shape: a pair (u, v) whose children
are (u, uv) and (uv, v). The Christoffel tree starts from (x, y); an
epichristoffel tree starts from the split of an admissible tuple's word;
Stern-Brocot trees carry fractions or occurrence tuples produced by
repeated mediant insertion. Children are computed on demand, so a node is
also the (conceptually infinite) tree hanging below it. The size rules live
here, and the CLI runs the same ones: a word tree's letters and longest node
word, and a Stern-Brocot tree's entries, are checked from closed forms before
any work. One preorder walk serves the CLI and ``tree_levels``; siblings share
the uv it builds once. The three functions that run the reduction or the
Christoffel walk read those modules off the package, which imports each on
first use, so the Christoffel and Stern-Brocot trees load none of them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat
from math import gcd
from operator import add
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal, Sequence, Union

import epiword  # its submodules load on first read (epiword.__getattr__), then read as plain attributes

from .errors import DimensionMismatchError, NotInTreeError, WordLengthOverflow
from .words import BINARY, MAX_WORD_LENGTH, Alphabet, OccurrenceTuple, Word, parikh

if TYPE_CHECKING:
    from .epichristoffel import TieBreak

Side = Literal["L", "R"]

# Most letters the node pairs of a word tree may hold; depth 14 is the deepest Christoffel tree.
MAX_TREE_LETTERS = 16 * MAX_WORD_LENGTH
# Most entries a Stern-Brocot tree may hold: levels 1..D hold 2^D - 1, so depth 20 is the deepest.
MAX_SB_ENTRIES = MAX_WORD_LENGTH


@dataclass(frozen=True)
class TreeNode:
    """A node (u, v); its concatenation u*v is the word the node stands for."""

    u: Word
    v: Word

    @property
    def word(self) -> Word:
        return self.u + self.v

    def left(self) -> "TreeNode":
        return TreeNode(self.u, _concat(self.u, self.v, len(self.u)))

    def right(self) -> "TreeNode":
        return TreeNode(_concat(self.u, self.v, len(self.v)), self.v)

    def children(self) -> tuple["TreeNode", "TreeNode"]:
        uv = _concat(self.u, self.v, max(len(self.u), len(self.v)))
        return TreeNode(self.u, uv), TreeNode(uv, self.v)

    def __str__(self) -> str:
        return f"({self.u}, {self.v})"


def _concat(u: Word, v: Word, beside: int) -> Word:
    """u*v, once a child (u, uv) or (uv, v) of uv and ``beside`` more letters is known to fit the budget."""
    if len(u) + len(v) + beside > MAX_WORD_LENGTH:
        raise WordLengthOverflow("child word would exceed the length budget")
    return u + v


def _check_word_tree(root: TreeNode, depth: int) -> None:
    """Refuse a word tree to ``depth`` over MAX_TREE_LETTERS letters, then one with a node word over MAX_WORD_LENGTH.

    The node pairs to depth D hold (|u|+|v|)(3^(D+1) - 1)/2 letters: what ``tree`` prints, and what ``node.word``
    over every level builds. When |u|+|v| >= 1 that also bounds the nodes, 2^(D+1) - 1. Two empty words never
    grow, so their tree is held to the depths a one-letter root reaches, whose letters bound its nodes.
    """
    size = len(root.u) + len(root.v)
    # From the budget's bit length on, (3^(D+1) - 1)/2 >= 2^D exceeds it; 3^(D+1) itself may not fit memory.
    huge = depth >= MAX_TREE_LETTERS.bit_length()
    if not size and (huge or (3 ** (depth + 1) - 1) // 2 > MAX_TREE_LETTERS):
        raise WordLengthOverflow(f"tree of 2^{depth + 1} - 1 nodes exceeds the budget")
    if huge:
        raise WordLengthOverflow(f"tree of {size}(3^{depth + 1} - 1)/2 letters exceeds the budget")
    letters = size * (3 ** (depth + 1) - 1) // 2
    if letters > MAX_TREE_LETTERS:
        raise WordLengthOverflow(f"tree of {letters} letters exceeds the budget")
    _check_node_words(len(root.u), len(root.v), depth)


def _check_node_words(u_len: int, v_len: int, depth: int) -> None:
    """Refuse a word tree to ``depth`` from (u, v) whose longest node word is over MAX_WORD_LENGTH.

    Node words at depth D are mediant level D + 1 from (|u|, |v|); the longest, F(D+2)max + F(D+1)min letters
    (Fibonacci F, by alternating steps), is grown a step at a time: a few dozen additions at any depth.
    """
    a, b = sorted((u_len, v_len))
    for _ in range(depth + 1 if b else 0):  # two empty words never grow
        a, b = b, a + b
        if b > MAX_WORD_LENGTH:
            raise WordLengthOverflow("child word would exceed the length budget")


def _check_sb_levels(count: int) -> None:
    """Refuse Stern-Brocot levels 1..``count``, 2^count - 1 entries, over MAX_SB_ENTRIES; 2^count is never built."""
    if count >= (MAX_SB_ENTRIES + 1).bit_length():
        raise WordLengthOverflow(f"tree of 2^{count} - 1 entries exceeds the budget")


def _preorder(u: Word | str, v: Word | str, depth: int) -> Iterator[tuple[bool, Word | str, Word | str, str]]:
    """Preorder events to ``depth``: (True, u, v, path) on entering a node, (False, u, v, path) on leaving it.

    Words are ``Word``s or rendered strings, one symbol a letter; an expanded node builds uv once, unchecked, for both.
    ``path`` is "n", then one L or R per step; the stack holds it and the right siblings to come.
    """
    stack = [(True, u, v, "n")]
    while stack:
        entering, u, v, path = event = stack.pop()
        yield event
        if entering:
            stack.append((False, u, v, path))
            if len(path) <= depth:
                uv = u + v
                stack += [(True, uv, v, path + "R"), (True, u, uv, path + "L")]


@dataclass(frozen=True, slots=True)
class Fraction:
    """A formal non-negative fraction; 1/0 is allowed as a sequence endpoint."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.num < 0 or self.den < 0 or self.num + self.den == 0:
            raise ValueError(f"bad fraction {self.num}/{self.den}")

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


SBEntry = Union[Fraction, OccurrenceTuple]


@dataclass(frozen=True)
class SBLevel:
    """The mediants inserted during one iteration; level i holds 2**(i-1) of them."""

    index: int
    entries: tuple[SBEntry, ...]


CLASSICAL_SEED = (Fraction(0, 1), Fraction(1, 0))


def mediant(a: SBEntry, b: SBEntry) -> SBEntry:
    """Componentwise sum: numerators and denominators for fractions, entries for tuples."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return Fraction(a.num + b.num, a.den + b.den)
    if isinstance(a, OccurrenceTuple) and isinstance(b, OccurrenceTuple):
        if a.k != b.k:
            raise DimensionMismatchError(f"tuple lengths differ: {a.k} vs {b.k}")
        return a + b
    raise DimensionMismatchError("mediant needs two fractions or two equal-length tuples")


def _insert_mediants(columns: list[list[int]]) -> None:
    """One round of mediant insertion on a row held as integer columns, in place.

    Each column is summed neighbour to neighbour by one C-level ``map`` written
    straight into the odd positions of the new column, where the level's
    mediants sit; no entry is built.
    """
    for i, c in enumerate(columns):
        row = [0] * (2 * len(c) - 1)
        row[0::2] = c
        row[1::2] = map(add, c, islice(c, 1, None))
        columns[i] = row


def _row_columns(seed: tuple[SBEntry, SBEntry], rounds: int) -> tuple[type, list[list[int]]]:
    """The class of the seed pair's mediant, checked once by ``mediant``, and the row after ``rounds`` rounds.

    The row is held as columns: a ``num`` and a ``den`` column for fractions, one column per letter for tuples.
    """
    a, b = seed
    cls = type(mediant(a, b))
    if cls is Fraction:
        columns = [[a.num, b.num], [a.den, b.den]]
    else:
        columns = list(map(list, zip(a.counts, b.counts)))
    for _ in range(rounds):
        _insert_mediants(columns)
    return cls, columns


def _entries(cls: type, columns: list[list[int]], positions: range) -> tuple[SBEntry, ...]:
    """The entries of ``cls`` at ``positions`` of a row held as columns, built in one C-level batch.

    No constructor runs. Every entry is a sum of seed entries that were already
    checked, fractions with non-negative parts and a positive sum or tuples of one
    shared length, so it passes the constructor's check, as the words that
    ``Word._trusted`` builds do. Each slot descriptor's ``__set__`` fills one field
    of every entry, and the frozen ``__setattr__`` still refuses assignment.
    """
    entries = tuple(map(cls.__new__, repeat(cls, len(positions))))
    parts = [islice(c, positions.start, positions.stop, positions.step) for c in columns]
    if cls is Fraction:
        fields = zip((Fraction.num, Fraction.den), parts)
    else:
        fields = [(OccurrenceTuple.counts, zip(*parts))]
    for slot, values in fields:
        deque(map(slot.__set__, entries, values), maxlen=0)
    return entries


class _SBLevelStream:
    """Levels ``index``, ``index + 1``, ... of the mediant tree grown from ``seed``, forever.

    The row, the whole sequence after ``index - 1`` rounds of insertion, is
    held as integer columns. They are built from the seed on first use and
    after ``advance_to``, so a caller that only moves the index forward, as
    ``diagonal`` does, builds nothing, and a rebuild makes no entry for the
    levels it skips. Each level's mediants become entries in one batch.
    """

    def __init__(self, seed: tuple[SBEntry, SBEntry]) -> None:
        self.seed = (seed[0], seed[1])
        self.index = 1
        self._cls: type | None = None
        self._columns: list[list[int]] | None = None

    def advance_to(self, index: int) -> None:
        """Move to level ``index``; its row is built from the seed when next needed."""
        self.index, self._columns = index, None

    def __iter__(self) -> "_SBLevelStream":
        return self

    def __next__(self) -> SBLevel:
        _check_sb_levels(self.index)
        if self._columns is None:
            self._cls, self._columns = _row_columns(self.seed, self.index - 1)
        _insert_mediants(self._columns)
        level = SBLevel(self.index, _entries(self._cls, self._columns, range(1, len(self._columns[0]), 2)))
        self.index += 1
        return level


def sb_level_stream(seed: tuple[SBEntry, SBEntry]) -> _SBLevelStream:
    """Levels 1, 2, ... of the mediant tree grown from the seed pair, forever."""
    return _SBLevelStream(seed)


def stern_brocot_levels(seed: tuple[SBEntry, SBEntry], count: int) -> list[SBLevel]:
    """The first ``count`` levels of new mediants for the given seed pair."""
    if count < 0:
        raise ValueError("count must be non-negative")
    _check_sb_levels(count)
    return list(islice(sb_level_stream(seed), count))


def sb_sequence(seed: tuple[SBEntry, SBEntry], iterations: int) -> list[SBEntry]:
    """The full sequence after ``iterations`` rounds of mediant insertion; its ends are the seed pair itself."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    _check_sb_levels(iterations)  # the entries between the seed pair are levels 1..iterations
    if not iterations:
        return [seed[0], seed[1]]
    cls, columns = _row_columns(seed, iterations)
    return [seed[0], *_entries(cls, columns, range(1, len(columns[0]) - 1)), seed[1]]


def christoffel_tree(alphabet: Alphabet = BINARY) -> TreeNode:
    """Root (x, y) of the Christoffel tree; descend via ``left``/``right``."""
    if alphabet.size != 2:
        raise ValueError("the Christoffel tree lives over a two-letter alphabet")
    return TreeNode(Word((0,), alphabet), Word((1,), alphabet))


def epichristoffel_tree(
    p: OccurrenceTuple, alphabet: Alphabet | None = None, tie_break: TieBreak = "recent"
) -> TreeNode:
    """Root (u, v) of the epichristoffel tree for an admissible tuple, uv its epichristoffel word (``_root``)."""
    return TreeNode(*epiword.epichristoffel._root(p, alphabet, tie_break))


def tree_levels(root: TreeNode, depth: int) -> list[list[TreeNode]]:
    """Levels 0..depth, left to right, from the preorder walk once the tree is known to fit the budgets."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth:  # a lone root concatenates nothing
        _check_word_tree(root, depth)
    levels: list[list[TreeNode]] = [[] for _ in range(depth + 1)]
    for entering, u, v, path in _preorder(root.u, root.v, depth):
        if entering:
            levels[len(path) - 1].append(TreeNode(u, v))
    return levels


def tree_isomorphism_check(depth: int, alphabet: Alphabet = BINARY) -> bool:
    """Positional match between Christoffel nodes and Stern-Brocot fractions.

    Node (u, v) at tree level d maps to |uv|_y / |uv|_x, compared against
    entry order of mediant level d+1.
    """
    levels = tree_levels(christoffel_tree(alphabet), depth)
    sb = stern_brocot_levels(CLASSICAL_SEED, depth + 1)
    for tree_level, sb_level in zip(levels, sb):
        for node, frac in zip(tree_level, sb_level.entries, strict=True):
            counts = parikh(node.word)
            if Fraction(counts[1], counts[0]) != frac:
                return False
    return True


def _level_entries(level) -> Sequence:
    if isinstance(level, SBLevel):
        return level.entries
    return level


def _stern(m: int) -> int:
    """Stern's diatomic s(m): s(0) = 0, s(1) = 1, s(2m) = s(m), s(2m+1) = s(m) + s(m+1)."""
    # Invariant: s(m0) = a*s(m) + b*s(m+1), where m0 is the argument.
    a, b = 1, 0
    while m:
        if m & 1:
            b += a
        else:
            a += b
        m >>= 1
    return b


def _seed_combination(a: SBEntry, b: SBEntry) -> Callable[[int, int], SBEntry]:
    """(x, y) -> x*a + y*b, componentwise, once the pair passes ``mediant``'s checks."""
    if type(mediant(a, b)) is Fraction:
        return lambda x, y: Fraction(x * a.num + y * b.num, x * a.den + y * b.den)
    return lambda x, y: OccurrenceTuple(tuple(x * p + y * q for p, q in zip(a.counts, b.counts)))


def _sb_diagonal(stream: _SBLevelStream, side: Side, k: int) -> Iterator[SBEntry]:
    # After n rounds from the seed (a, b), entry j of the row (0 <= j <= 2^n)
    # is s(2^n - j)*a + s(j)*b; level n holds the odd j. One level down the
    # k-th entry from the left keeps s(j) and adds it to the coefficient of a,
    # the k-th from the right the other way round (the row-successor maps).
    combine = _seed_combination(*stream.seed)
    n = max((k - 1).bit_length() + 1, stream.index)
    j = 2 * k - 1 if side == "L" else (1 << n) - 2 * k + 1
    x, y = _stern((1 << n) - j), _stern(j)
    while True:
        stream.advance_to(n + 1)
        yield combine(x, y)
        if side == "L":
            x += y
        else:
            y += x
        n += 1


def diagonal(levels: Iterable, side: Side, k: int) -> Iterator:
    """The k-th entry from the given side of every level that has one.

    Levels too short to have a k-th entry are skipped. Given a stream from
    ``sb_level_stream``, the entries come from Stern's diatomic sequence in
    O(log k + count) integer steps, with no level built, from the stream's
    next level on; the stream is left after the last level answered. Any
    other iterable of levels, such as materialized word-tree levels, is
    scanned level by level.
    """
    if k < 1:
        raise ValueError("diagonal index starts at 1")
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    if isinstance(levels, _SBLevelStream):
        yield from _sb_diagonal(levels, side, k)
        return
    for level in levels:
        entries = _level_entries(level)
        if len(entries) < k:
            continue
        yield entries[k - 1] if side == "L" else entries[len(entries) - k]


def l1_plus() -> Iterator[Fraction]:
    """The formal sequence 1/0, 1/1, 1/2, ... used by the diagonal sum rule."""
    n = 0
    while True:
        yield Fraction(1, n)
        n += 1


def _left_diagonal(k: int) -> Iterator[Fraction]:
    return diagonal(sb_level_stream(CLASSICAL_SEED), "L", k)


def diagonal_sum_check(k: int, terms: int) -> bool:
    """Verify that left diagonals 2k and 2k+1 are mediant sums of earlier ones.

    Writing k = 2**i * (2j+1): diagonal 2k is diagonal k plus (1/0, 1/1,
    1/2, ... when j = 0, else diagonal j+1), and diagonal 2k+1 is diagonal
    k+1 plus diagonal j+1, entrywise. Checks the first ``terms`` entries.
    """
    if k < 1 or terms < 1:
        raise ValueError("need k >= 1 and terms >= 1")
    m, i = k, 0
    while m % 2 == 0:
        m //= 2
        i += 1
    j = (m - 1) // 2

    def take(it: Iterator[Fraction], n: int) -> list[Fraction]:
        return list(islice(it, n))

    even_rhs_second = l1_plus() if j == 0 else _left_diagonal(j + 1)
    even_lhs = take(_left_diagonal(2 * k), terms)
    even_rhs = [
        mediant(a, b)
        for a, b in zip(take(_left_diagonal(k), terms), take(even_rhs_second, terms))
    ]
    odd_lhs = take(_left_diagonal(2 * k + 1), terms)
    odd_rhs = [
        mediant(a, b)
        for a, b in zip(take(_left_diagonal(k + 1), terms), take(_left_diagonal(j + 1), terms))
    ]
    return even_lhs == even_rhs and odd_lhs == odd_rhs


def row_successor_check(levels: Sequence) -> bool:
    """Check the row-to-row fraction maps of the Stern-Brocot tree.

    The k-th entry from the left of the next row replaces a/b by a/(a+b);
    the k-th entry from the right replaces a/b by (a+b)/b.
    """
    rows = [_level_entries(level) for level in levels]
    if not all(isinstance(entry, Fraction) for row in rows for entry in row):
        raise ValueError("the row-successor maps are defined for fraction levels")
    for row, nxt in zip(rows, rows[1:]):
        for k in range(len(row)):
            a, b = row[k].num, row[k].den
            if nxt[k] != Fraction(a, a + b):
                return False
            a, b = row[len(row) - 1 - k].num, row[len(row) - 1 - k].den
            if nxt[len(nxt) - 1 - k] != Fraction(a + b, b):
                return False
    return True


def _solve_seed_combination(
    pu: OccurrenceTuple, pv: OccurrenceTuple, target: OccurrenceTuple
) -> tuple[int, int]:
    # Solve alpha*pu + beta*pv = target over the integers; the system is
    # overdetermined, so every coordinate must agree.
    if target.k != pu.k:
        raise NotInTreeError(f"target length {target.k} does not match the tree's {pu.k}")
    k = pu.k
    for r in range(k):
        for s in range(r + 1, k):
            det = pu[r] * pv[s] - pu[s] * pv[r]
            if det == 0:
                continue
            alpha_num = target[r] * pv[s] - target[s] * pv[r]
            beta_num = pu[r] * target[s] - pu[s] * target[r]
            if alpha_num % det or beta_num % det:
                raise NotInTreeError(f"{target} is not an integer combination of the seeds")
            alpha, beta = alpha_num // det, beta_num // det
            if any(alpha * pu[t] + beta * pv[t] != target[t] for t in range(k)):
                raise NotInTreeError(f"{target} is not a combination of the seeds")
            return alpha, beta
    raise NotInTreeError("seed tuples are linearly dependent")


def _walk_to_tuple(
    root_tuple: OccurrenceTuple,
    target: OccurrenceTuple,
    alphabet: Alphabet | None = None,
) -> tuple[list[Side], TreeNode]:
    """The root-to-node steps to the node with counts ``target``, and that node.

    Writes target as alpha*pu + beta*pv over the root's split tuples, then
    walks by runs, one division and one concatenation each (``_tree_walk``).
    """
    root = epichristoffel_tree(root_tuple, alphabet)
    pu, pv = parikh(root.u), parikh(root.v)
    alpha, beta = _solve_seed_combination(pu, pv, target)
    if alpha < 1 or beta < 1 or gcd(alpha, beta) != 1:
        raise NotInTreeError(f"{target} needs coprime positive coefficients, got ({alpha}, {beta})")
    if target.total() > MAX_WORD_LENGTH:
        raise WordLengthOverflow(f"word of length {target.total()} exceeds the budget")
    runs, u, v = epiword.christoffel._tree_walk(root.u._code, root.v._code, alpha, beta)
    path: list[Side] = list("".join(side * q for side, q in runs))
    node = TreeNode(Word._trusted(u, root.u.alphabet), Word._trusted(v, root.v.alphabet))
    assert parikh(node.word) == target
    return path, node


def path_to_tuple(
    root_tuple: OccurrenceTuple,
    target: OccurrenceTuple,
    alphabet: Alphabet | None = None,
) -> list[Side]:
    """Root-to-node steps reaching the node whose word has counts ``target``."""
    return _walk_to_tuple(root_tuple, target, alphabet)[0]


def resolve_epichristoffel(
    root_tuple: OccurrenceTuple,
    target: OccurrenceTuple,
    alphabet: Alphabet | None = None,
) -> Word:
    """The word at the tree node whose counts equal ``target``."""
    return _walk_to_tuple(root_tuple, target, alphabet)[1].word


@dataclass(frozen=True)
class NodeClassification:
    node: TreeNode
    u_epichristoffel: bool
    v_epichristoffel: bool

    @property
    def factorizable(self) -> bool:
        return self.u_epichristoffel and self.v_epichristoffel


@dataclass(frozen=True)
class FactorizabilityReport:
    """Per-node witness of whether both factors are epichristoffel words.

    Only the root's v is tested. The root's u is the epichristoffel word of its tuple (``epichristoffel_tree``);
    off the left spine a node's u is an ancestor's node word uv, off the right spine so is its v, and node words
    are epichristoffel words (criterion 04). So every u is one. When the root's v is not one, each rightmost-spine
    word is checked for having no cut into two epichristoffel words: one pass tests it and reads its tree root,
    then one word test on the root's v (``epi_factorizations``); ``right_spine_unfactorizable`` stays None otherwise.
    """

    root: TreeNode
    nodes: tuple[NodeClassification, ...]
    right_spine_words: tuple[Word, ...]
    right_spine_unfactorizable: bool | None

    @property
    def all_factorizable(self) -> bool:
        return all(entry.factorizable for entry in self.nodes)


def classify_factorizability(
    root_tuple: OccurrenceTuple, depth: int, alphabet: Alphabet | None = None
) -> FactorizabilityReport:
    """Classify every node to ``depth`` from one word test, on the root's v, and probe the rightmost spine.

    Every node has an epichristoffel u (``FactorizabilityReport``), and node i of its level an epichristoffel v
    if it is not the level's last node or the root's v is one. Each spine word's one candidate cut is its tree
    root (``epi_factorizations``), so building the levels costs more than the verdicts.
    """
    epi = epiword.epichristoffel
    root = epichristoffel_tree(root_tuple, alphabet)
    levels = tree_levels(root, depth)
    v_epi = epi.is_epichristoffel_word(root.v)
    entries = tuple(
        NodeClassification(node, True, v_epi or i < len(level) - 1)
        for level in levels
        for i, node in enumerate(level)
    )
    spine_words = tuple(level[-1].word for level in levels)
    spine_free = None if v_epi else all(epi.epi_factorizations(word) == [] for word in spine_words)
    return FactorizabilityReport(root, entries, spine_words, spine_free)


__all__ = [
    "Side",
    "TreeNode",
    "Fraction",
    "SBLevel",
    "SBEntry",
    "CLASSICAL_SEED",
    "mediant",
    "sb_level_stream",
    "stern_brocot_levels",
    "sb_sequence",
    "christoffel_tree",
    "epichristoffel_tree",
    "tree_levels",
    "tree_isomorphism_check",
    "diagonal",
    "l1_plus",
    "diagonal_sum_check",
    "row_successor_check",
    "path_to_tuple",
    "resolve_epichristoffel",
    "NodeClassification",
    "FactorizabilityReport",
    "classify_factorizability",
]
