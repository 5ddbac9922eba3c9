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
from typing import Iterable, Iterator, Union

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


def _check_letter(letter: int, alphabet: Alphabet) -> None:
    if not 0 <= letter < alphabet.size:
        raise InvalidLetterError(f"letter index {letter} outside alphabet {alphabet.symbols!r}")


def apply_atom(atom: MorphismAtom, w: Word) -> Word:
    """Image of ``w`` under a single atom, as C-level passes over its code string.

    Psi_a puts an a before every letter (Psi-bar_a after it), then replaces aa
    by a. Around r letters a in a row, that makes a run of 2r + 1 a's, or 2r at
    an end of the word, and the replace leaves r + 1 or r of them: the image's
    run. Two passes whatever the alphabet size. Theta swaps two codes by one
    ``str.translate``.
    """
    alphabet = w.alphabet
    s = w._code
    match atom:
        case Psi(letter=a) | PsiBar(letter=a):
            _check_letter(a, alphabet)
            x = chr(a)
            if s:
                s = (x + x.join(s) if isinstance(atom, Psi) else x.join(s) + x).replace(x + x, x)
        case Theta(first=a, second=b):
            _check_letter(a, alphabet)
            _check_letter(b, alphabet)
            s = s.translate({a: b, b: a})
        case _:
            raise TypeError(f"not a morphism atom: {atom!r}")
    return Word._trusted(s, alphabet)


def apply(seq: MorphismSeq | Iterable[MorphismAtom], w: Word) -> Word:
    """Image of ``w`` under the whole sequence, rightmost atom first."""
    atoms = tuple(seq)
    for atom in reversed(atoms):
        w = apply_atom(atom, w)
        if len(w) > MAX_WORD_LENGTH:
            raise WordLengthOverflow(f"image longer than {MAX_WORD_LENGTH} letters")
    return w


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
