"""Episturmian morphism atoms and their composition.

Three families of atoms generate the monoid:

* ``Psi(a)``:    a -> a, c -> ac for every other letter c
* ``PsiBar(a)``: a -> a, c -> ca for every other letter c
* ``Theta(a,b)``: swap a and b, fix every other letter

Atoms are plain data so sequences can be printed, compared, and replayed.
A sequence applies rightmost-first: ``[f, g, h]`` acting on w is f(g(h(w))).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Collection, Iterable, Iterator, Sequence, Union

from .errors import InvalidLetterError, WordLengthOverflow
from .words import MAX_WORD_LENGTH, Alphabet, Word


@dataclass(frozen=True)
class Psi:
    letter: int


@dataclass(frozen=True)
class PsiBar:
    letter: int


@dataclass(frozen=True)
class Theta:
    first: int
    second: int

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError("letter exchange needs two distinct letters")


MorphismAtom = Union[Psi, PsiBar, Theta]


@dataclass(frozen=True)
class MorphismSeq:
    """An ordered composition of atoms; the empty sequence is the identity."""

    atoms: tuple[MorphismAtom, ...] = ()

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[MorphismAtom]:
        return iter(self.atoms)


def _images(runs: Sequence[tuple[int, int]], fronts: Iterable[bool], read: Collection[int], units: list) -> list:
    """The images of the distinct letters in ``read``, not empty, under runs (a, n) outermost first: the one image loop.

    A run is Psi_a^n, img[c] = img[a]^n img[c] for c != a, or Psi-bar_a^n, img[c] img[a]^n, as ``fronts``
    says; ``units``, code points or lengths, are the images under no atom. A backward pass marks the images
    read later, of ``read`` and of later run letters; the rest stay None, and a run that changes no marked
    image is skipped: no unread head is built.
    """
    img = [None] * len(units)
    for c in read:
        img[c] = units[c]
    live, plan = len(read), []  # innermost first: drop the run letter's image after the run, keep it, or skip (None)
    for a, _ in reversed(runs):
        drop = img[a] is None
        plan.append(None if live == 1 and not drop else drop)
        if drop:
            img[a], live = units[a], live + 1
    for (a, n), front, drop in zip(runs, fronts, reversed(plan)):
        if drop is not None:
            x, img[a] = img[a], None
            head = x * n
            img = [w and head + w for w in img] if front else [w and w + head for w in img]
            img[a] = None if drop else x
    return img


def apply(seq: MorphismSeq | Iterable[MorphismAtom], w: Word) -> Word:
    """Image of ``w`` under the whole sequence, rightmost atom first, refused over MAX_WORD_LENGTH letters.

    Innermost first, letters are checked and each Theta moves out past the atoms
    beyond it, renaming them (Theta_ab Psi_a = Psi_b Theta_ab), which leaves runs
    of Psi and Psi-bar and one permutation, carried by the units. ``_images`` runs
    on lengths, to refuse before any string is built, then on code strings.
    """
    atoms, alphabet, k = tuple(seq), w.alphabet, w.alphabet.size
    inv, keys, outside = list(range(k)), [], f"outside alphabet {alphabet.symbols!r}"  # inv undoes the Thetas moved out
    for atom in reversed(atoms):
        if isinstance(atom, Theta):
            a, b = atom.first, atom.second
            if not (0 <= a < k and 0 <= b < k):
                raise InvalidLetterError(f"letter index {b if 0 <= a < k else a} {outside}")
            inv[a], inv[b] = inv[b], inv[a]
        elif isinstance(atom, (Psi, PsiBar)):
            if not 0 <= atom.letter < k:
                raise InvalidLetterError(f"letter index {atom.letter} {outside}")
            keys.append(2 * inv[atom.letter] + isinstance(atom, Psi))  # 2a + 1 for Psi_a, 2a for Psi-bar_a
        else:
            raise TypeError(f"not a morphism atom: {atom!r}")
    groups = [(key, len(list(group))) for key, group in groupby(reversed(keys))]
    runs, fronts = [(key >> 1, n) for key, n in groups], [key & 1 for key, _ in groups]
    read = [c for c in range(k) if chr(c) in w._code]
    if not read:
        return w
    lengths = _images(runs, fronts, read, [1.0] * k)  # floats: exact to 2^53, far past the budget
    bound = len(w) * max(lengths[c] for c in read)  # the letters are counted only when this bound is over the budget
    if bound > MAX_WORD_LENGTH and sum(lengths[c] * w._code.count(chr(c)) for c in read) > MAX_WORD_LENGTH:
        raise WordLengthOverflow(f"image longer than {MAX_WORD_LENGTH} letters")
    img = _images(runs, fronts, read, [chr(d) for d in sorted(range(k), key=inv.__getitem__)])  # c -> d, inv[d] = c
    return Word._trusted(w._code.translate({c: img[c] for c in read}), alphabet)


def apply_atom(atom: MorphismAtom, w: Word) -> Word:
    """Image of ``w`` under a single atom."""
    return apply((atom,), w)


def is_pure_standard(seq: MorphismSeq | Iterable[MorphismAtom]) -> bool:
    """True when every atom is a Psi (the constructive subfamily)."""
    return all(isinstance(atom, Psi) for atom in seq)


def format_atom(atom: MorphismAtom, alphabet: Alphabet) -> str:
    match atom:
        case Psi(letter=a):
            return f"psi_{alphabet.symbols[a]}"
        case PsiBar(letter=a):
            return f"psibar_{alphabet.symbols[a]}"
        case Theta(first=a, second=b):
            return f"theta_{alphabet.symbols[a]}{alphabet.symbols[b]}"
    raise TypeError(f"not a morphism atom: {atom!r}")


def format_morphisms(seq: MorphismSeq | Iterable[MorphismAtom], alphabet: Alphabet) -> str:
    """Render a sequence as e.g. ``"psi_y psi_z psi_y"``."""
    return " ".join(format_atom(atom, alphabet) for atom in seq)


def parse_morphisms(text: str, alphabet: Alphabet) -> MorphismSeq:
    """Parse the ``format_morphisms`` syntax back into a sequence."""
    atoms: list[MorphismAtom] = []
    for token in text.split():
        kind, _, letters = token.partition("_")
        if kind == "psi" and len(letters) == 1:
            atoms.append(Psi(alphabet.index(letters)))
        elif kind == "psibar" and len(letters) == 1:
            atoms.append(PsiBar(alphabet.index(letters)))
        elif kind == "theta" and len(letters) == 2:
            atoms.append(Theta(alphabet.index(letters[0]), alphabet.index(letters[1])))
        else:
            raise ValueError(f"bad morphism token: {token!r}")
    return MorphismSeq(tuple(atoms))


__all__ = [
    "Psi",
    "PsiBar",
    "Theta",
    "MorphismAtom",
    "MorphismSeq",
    "apply_atom",
    "apply",
    "is_pure_standard",
    "format_atom",
    "format_morphisms",
    "parse_morphisms",
]
