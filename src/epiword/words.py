"""Core word values: ordered alphabets, finite words, occurrence tuples.

A word stores its letters as one string of code points, code point i for
letter i of its alphabet, so comparison, search, slicing, concatenation and
morphism images run in C and never touch display symbols; symbols appear
only when parsing or rendering, and ``Word.letters`` gives the integer
indices. Letters are checked where they enter: a public ``Word(...)``,
``Alphabet.word`` or parsing. Operations on words already checked build
their results from code strings with ``Word._trusted``. Every value is
immutable and every operation is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from itertools import accumulate
from operator import sub
from typing import Iterator

from .errors import EmptyWordError

# Hard cap on word length; operations that grow words check against it.
MAX_WORD_LENGTH = 1 << 20

_EXTRA_SYMBOLS = "abcdefghijklmnopqrstuvw"


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of single-character symbols.

    The position of a symbol in ``symbols`` is both its letter index and its
    rank in the lexicographic order; the order is fixed for the alphabet's
    lifetime.
    """

    symbols: str

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"alphabet symbols must be distinct: {self.symbols!r}")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        pos = self.symbols.find(symbol)
        if pos < 0:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols!r}")
        return pos

    def word(self, text: str) -> "Word":
        """Parse a plain symbol string such as ``"xzyzzyz"``."""
        return Word(tuple(self.index(ch) for ch in text), self)

    def render(self, letters: Iterator[int] | tuple[int, ...]) -> str:
        return "".join(map(self.symbols.__getitem__, letters))


BINARY = Alphabet("xy")
TERNARY = Alphabet("xyz")


def default_alphabet(k: int) -> Alphabet:
    """``x < y < z`` for k <= 3, extended with ``a < b < ...`` beyond."""
    if k < 1:
        raise ValueError("alphabet size must be at least 1")
    if k <= 3:
        return Alphabet("xyz"[:k])
    if k - 3 > len(_EXTRA_SYMBOLS):
        raise ValueError(f"no default alphabet with {k} symbols")
    return Alphabet("xyz" + _EXTRA_SYMBOLS[: k - 3])


@total_ordering
@dataclass(frozen=True, init=False)
class Word:
    """A finite word: a sequence of letter indices over an alphabet, held as a code string.

    The empty word is a valid value; predicates that need a nonempty word
    raise :class:`EmptyWordError`. Comparison is lexicographic in alphabet
    order, with a proper prefix ordered before its extensions.
    """

    _code: str
    alphabet: Alphabet

    def __init__(self, letters: tuple[int, ...], alphabet: Alphabet) -> None:
        if letters and not (0 <= min(letters) and max(letters) < alphabet.size):
            raise ValueError("letter index outside alphabet")
        self.__dict__.update(_code="".join(map(chr, letters)), alphabet=alphabet)

    @classmethod
    def _trusted(cls, code: str, alphabet: Alphabet) -> "Word":
        """The word whose code point i is letter i, known to lie in the alphabet, built without the check."""
        w = object.__new__(cls)
        w.__dict__.update(_code=code, alphabet=alphabet)
        return w

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(map(ord, self._code))

    def __len__(self) -> int:
        return len(self._code)

    def __iter__(self) -> Iterator[int]:
        return map(ord, self._code)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._trusted(self._code[item], self.alphabet)
        return ord(self._code[item])

    def __add__(self, other: "Word") -> "Word":
        self._require_same_alphabet(other)
        return Word._trusted(self._code + other._code, self.alphabet)

    def __lt__(self, other: "Word") -> bool:
        self._require_same_alphabet(other)
        return self._code < other._code

    def _require_same_alphabet(self, other: "Word") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("words use different alphabets")

    def __str__(self) -> str:
        return self.alphabet.render(self)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


@dataclass(frozen=True, slots=True)
class OccurrenceTuple:
    """Per-letter occurrence counts of a word (its Parikh vector).

    Entries are non-negative when describing a word, but the reduction
    operator used for admissibility testing may produce negative entries,
    so negatives are representable.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("occurrence tuple needs at least one entry")

    @property
    def k(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __add__(self, other: "OccurrenceTuple") -> "OccurrenceTuple":
        if self.k != other.k:
            raise ValueError("tuples have different lengths")
        return OccurrenceTuple(tuple(a + b for a, b in zip(self.counts, other.counts)))

    @classmethod
    def parse(cls, text: str) -> "OccurrenceTuple":
        """Parse comma syntax such as ``"1,2,4"``."""
        try:
            counts = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"not a comma-separated integer tuple: {text!r}") from None
        return cls(counts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.counts)) + ")"


def parikh(w: Word) -> OccurrenceTuple:
    """Occurrence counts of each letter of ``w``, in alphabet order."""
    return _code_counts(w._code, w.alphabet.size)


def _code_counts(s: str, k: int) -> OccurrenceTuple:
    """Letter counts of a code string over k letters, one C-level ``str.count`` pass per letter."""
    return OccurrenceTuple(tuple(map(s.count, map(chr, range(k)))))


def rotate(w: Word, i: int) -> Word:
    """The i-th conjugate ``w[i:] + w[:i]``; offsets are taken modulo |w|."""
    if len(w) == 0:
        return w
    i %= len(w)
    return Word._trusted(w._code[i:] + w._code[:i], w.alphabet)


def _least_conjugate(s: str, a: str) -> str:
    """The least rotation of ``s``, by block renaming: it starts where a run of its least letter a starts.

    Cut the rotation at one such run into blocks a^r (non-a)^+, named by rank in
    sorted order. A block that is a proper prefix of another ranks lower and is
    followed by a where the other has a greater letter, so rotations at block
    boundaries compare as the rotations of the names. Blocks have two letters or
    more, so the depth is at most log2 n, and ranks stay below n/2 < 0x110000.
    Every name occurs, so the least letter one level down is chr(0).
    """
    run_end = len(s) - len(s.lstrip(a))
    if run_end == len(s):
        return s
    # The next run of a after the first, or the first run when it is the only one.
    start = max(s.find(a, run_end), 0)
    t = s[start:] + s[:start]
    blocks = re.findall(f"\\U{ord(a):08x}+[^\\U{ord(a):08x}]+", t)
    order = sorted(set(blocks))
    name = dict(zip(order, map(chr, range(len(order)))))
    least = _least_conjugate("".join(map(name.__getitem__, blocks)), chr(0))
    return "".join(map(order.__getitem__, map(ord, least)))


def least_rotation(w: Word) -> tuple[Word, int]:
    """Lexicographically least conjugate of ``w`` and the offset producing it, by block renaming.

    O(n) C-level work and O(log n) interpreter steps; ties (non-primitive words) take the smallest offset.
    """
    if len(w) == 0:
        raise EmptyWordError("the empty word has no least rotation")
    s = w._code
    least = next(a for a in map(chr, range(w.alphabet.size)) if a in s)
    k = (s + s).find(_least_conjugate(s, least))
    return rotate(w, k), k


def are_conjugate(w1: Word, w2: Word) -> bool:
    """True when ``w2`` is a rotation of ``w1``."""
    w1._require_same_alphabet(w2)
    s1, s2 = w1._code, w2._code
    return len(s1) == len(s2) and s2 in s1 + s1


def is_primitive(w: Word) -> bool:
    """True when ``w`` is not a proper power of a shorter word: it occurs in ww only at 0 and |w|."""
    if len(w) == 0:
        raise EmptyWordError("primitivity is defined for nonempty words")
    s = w._code
    return (s + s).find(s, 1) == len(s)


def is_lyndon(w: Word) -> bool:
    """True when ``w`` is primitive and least among its rotations."""
    if len(w) == 0:
        raise EmptyWordError("Lyndon property is defined for nonempty words")
    return is_primitive(w) and least_rotation(w)[1] == 0


def is_balanced(w: Word) -> bool:
    """True when equal-length factors never differ by more than one in any letter count.

    Uses plain (linear) factors, not cyclic ones.
    """
    if len(w) == 0:
        raise EmptyWordError("balance is defined for nonempty words")
    for a in set(w._code):
        # prefix[i] counts a in the first i letters; a window's count is a difference.
        prefix = list(accumulate(map(a.__eq__, w._code), initial=0))
        for length in range(1, len(w)):
            counts = list(map(sub, prefix[length:], prefix))
            if max(counts) - min(counts) > 1:
                return False
    return True


def factors(w: Word, length: int) -> set[Word]:
    """All distinct contiguous factors of ``w`` of the given length."""
    if not 0 <= length <= len(w):
        raise ValueError("factor length out of range")
    return {w[i : i + length] for i in range(len(w) - length + 1)}


__all__ = [
    "MAX_WORD_LENGTH",
    "Alphabet",
    "Word",
    "OccurrenceTuple",
    "BINARY",
    "TERNARY",
    "default_alphabet",
    "parikh",
    "rotate",
    "least_rotation",
    "are_conjugate",
    "is_primitive",
    "is_lyndon",
    "is_balanced",
    "factors",
]
