"""Lower Christoffel paths and words of slope a/b.

A Christoffel word of slope a/b encodes the lattice path from (0,0) to
(b,a) that runs tightest below the segment between those points: x for a
horizontal step, y for a vertical one. Point labels measure the vertical
distance to the segment and locate the standard two-factor split.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DegenerateSlopeError, EmptyWordError, NonCoprimeError, NotBinaryError, WordLengthOverflow
from .words import BINARY, MAX_WORD_LENGTH, Alphabet, Word, parikh


@dataclass(frozen=True)
class Slope:
    """A reduced slope a/b: ``a`` vertical steps over ``b`` horizontal ones.

    The degenerate slopes 0/1 and 1/0 are permitted; they encode the
    single-letter words.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.a + self.b < 1:
            raise ValueError(f"slope needs non-negative a, b with a+b >= 1: {self.a}/{self.b}")
        if gcd(self.a, self.b) != 1:
            raise NonCoprimeError(f"{self.a}/{self.b} is not coprime")

    def __str__(self) -> str:
        return f"{self.a}/{self.b}"


@dataclass(frozen=True)
class PathLabel:
    """Exact label (i*a - j*b)/b of the lattice point (i, j) on the path.

    Stored as an integer numerator over the fixed denominator b, never as a
    float: the split point is the one label exactly equal to 1/b.
    """

    numerator: int
    denominator: int
    point: tuple[int, int]

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def _require_binary(alphabet: Alphabet) -> None:
    if alphabet.size != 2:
        raise NotBinaryError(f"need a two-letter alphabet, got {alphabet.symbols!r}")


def christoffel_word(slope: Slope, alphabet: Alphabet = BINARY) -> Word:
    """The Christoffel word of the given slope: length a+b, with b x's and a y's."""
    u, v = _christoffel_node(slope, alphabet)
    return Word._trusted(u + v, alphabet)


def _christoffel_node(slope: Slope, alphabet: Alphabet) -> tuple[str, str]:
    """Code strings of the slope's Christoffel tree node (u, v), the standard factorization of u*v (Borel-Laubie 1993).

    The walk from (x, y) to b*|x| + a*|y| makes one concatenation per run of
    Euclid's algorithm on (b, a). A degenerate slope gives one letter u, v empty.
    """
    _require_binary(alphabet)
    a, b = slope.a, slope.b
    if a + b > MAX_WORD_LENGTH:
        raise WordLengthOverflow(f"word of length {a + b} exceeds the budget")
    if a == 0 or b == 0:
        return "\x00" if a == 0 else "\x01", ""
    _, u, v = _tree_walk("\x00", "\x01", b, a)
    return u, v


def _tree_walk(u: str, v: str, alpha: int, beta: int) -> tuple[list[tuple[str, int]], str, str]:
    """The runs from node (u, v) of a word tree to its descendant alpha*|u| + beta*|v|, and that node's code strings.

    The children of (u, v) are (u, uv) and (uv, v). For coprime alpha, beta >= 1
    the walk follows the continued fraction of alpha/beta: while alpha > beta,
    q = (alpha-1)//beta steps L take (u, v) to (u, u^q v) and alpha to
    alpha - q*beta; a run of R gives (u v^q, v). A run is one division and one
    concatenation, so the walk costs about the length of the node's word.
    """
    runs: list[tuple[str, int]] = []
    while (alpha, beta) != (1, 1):
        if alpha > beta:
            q = (alpha - 1) // beta
            runs.append(("L", q))
            v = u * q + v
            alpha -= q * beta
        else:
            q = (beta - 1) // alpha
            runs.append(("R", q))
            u = u + v * q
            beta -= q * alpha
    return runs, u, v


def path_points(slope: Slope, alphabet: Alphabet = BINARY) -> list[tuple[int, int]]:
    """The a+b+1 lattice points visited by the Christoffel path, in order."""
    word = christoffel_word(slope, alphabet)
    points = [(0, 0)]
    i = j = 0
    for letter in word:
        if letter == 0:
            i += 1
        else:
            j += 1
        points.append((i, j))
    return points


def path_labels(slope: Slope, alphabet: Alphabet = BINARY) -> list[PathLabel]:
    """Labels of every path point; the first and last are 0."""
    if slope.b == 0:
        raise DegenerateSlopeError("labels need b >= 1")
    a, b = slope.a, slope.b
    return [PathLabel(i * a - j * b, b, (i, j)) for i, j in path_points(slope, alphabet)]


def standard_factorization(slope: Slope, alphabet: Alphabet = BINARY) -> tuple[Word, Word]:
    """Split the Christoffel word into its Christoffel tree node (u, v).

    The cut is the unique interior point with label 1/b. Both factors are
    themselves Christoffel words.
    """
    if slope.a == 0 or slope.b == 0:
        raise DegenerateSlopeError(f"slope {slope} has no interior split point")
    u, v = _christoffel_node(slope, alphabet)
    return Word._trusted(u, alphabet), Word._trusted(v, alphabet)


def is_christoffel(w: Word) -> bool:
    """True when ``w`` is the Christoffel word of slope |w|_y / |w|_x."""
    _require_binary(w.alphabet)
    if len(w) == 0:
        raise EmptyWordError("Christoffel test is defined for nonempty words")
    counts = parikh(w)
    b, a = counts[0], counts[1]
    if gcd(a, b) != 1:
        return False
    return w == christoffel_word(Slope(a, b), w.alphabet)


__all__ = [
    "Slope",
    "PathLabel",
    "christoffel_word",
    "path_points",
    "path_labels",
    "standard_factorization",
    "is_christoffel",
]
