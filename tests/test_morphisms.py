import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiword import (
    BINARY,
    InvalidLetterError,
    MorphismSeq,
    Psi,
    PsiBar,
    TERNARY,
    Theta,
    Word,
    WordLengthOverflow,
    apply_atom,
    are_conjugate,
    default_alphabet,
    format_morphisms,
    is_pure_standard,
    parikh,
    parse_morphisms,
)
from epiword.morphisms import _images, apply
from oracles import naive_apply
from strategies import WIDE_ALPHABET
from timing import best_of

ternary_words = st.lists(st.integers(0, 2), max_size=10).map(lambda ls: Word(tuple(ls), TERNARY))
letters = st.integers(0, 2)


def test_atom_rules():
    assert str(apply_atom(Psi(1), TERNARY.word("zyzx"))) == "yzyyzyx"
    assert str(apply_atom(Theta(0, 1), TERNARY.word("xzy"))) == "yzx"
    assert str(apply_atom(PsiBar(1), TERNARY.word("zx"))) == "zyxy"


def test_sequence_application_is_rightmost_first():
    assert str(apply([Psi(1), Psi(2), Psi(1)], TERNARY.word("x"))) == "yzyyzyx"
    assert str(apply([Psi(2), Psi(1), Psi(2)], TERNARY.word("x"))) == "zyzzyzx"
    w = TERNARY.word("zyzx")
    assert apply(MorphismSeq(), w) == w


def test_theta_needs_distinct_letters():
    with pytest.raises(ValueError):
        Theta(1, 1)


def test_letters_outside_alphabet_are_rejected():
    with pytest.raises(InvalidLetterError):
        apply_atom(Psi(2), BINARY.word("xy"))
    with pytest.raises(InvalidLetterError):
        apply([Theta(0, 3)], TERNARY.word("x"))


def test_is_pure_standard():
    assert is_pure_standard([Psi(1), Psi(2)])
    assert not is_pure_standard([Psi(1), PsiBar(2)])
    assert not is_pure_standard([Theta(0, 1)])
    assert is_pure_standard(MorphismSeq())


@given(letters, ternary_words)
def test_image_length(a, w):
    counts = parikh(w)
    assert len(apply_atom(Psi(a), w)) == 2 * len(w) - counts[a]
    assert len(apply_atom(PsiBar(a), w)) == 2 * len(w) - counts[a]
    assert len(apply_atom(Theta(0, 1), w)) == len(w)


@given(ternary_words)
def test_theta_is_an_involution(w):
    swap = Theta(0, 2)
    assert apply_atom(swap, apply_atom(swap, w)) == w


@given(letters, ternary_words, ternary_words)
def test_atoms_respect_concatenation(a, u, v):
    for atom in (Psi(a), PsiBar(a), Theta(0, 1)):
        assert apply_atom(atom, u + v) == apply_atom(atom, u) + apply_atom(atom, v)


@given(letters, ternary_words)
def test_psi_and_psibar_images_are_conjugate(a, w):
    if len(w) == 0:
        return
    assert are_conjugate(apply_atom(Psi(a), w), apply_atom(PsiBar(a), w))


def test_format_parse_roundtrip():
    seq = MorphismSeq((Psi(1), PsiBar(2), Theta(0, 2), Psi(0)))
    text = format_morphisms(seq, TERNARY)
    assert text == "psi_y psibar_z theta_xz psi_x"
    assert parse_morphisms(text, TERNARY) == seq
    assert parse_morphisms("", TERNARY) == MorphismSeq()


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_morphisms("psi_q", TERNARY)
    with pytest.raises(ValueError):
        parse_morphisms("rho_x", TERNARY)
    with pytest.raises(ValueError):
        parse_morphisms("theta_x", TERNARY)


def test_apply_respects_length_budget(monkeypatch):
    monkeypatch.setattr("epiword.morphisms.MAX_WORD_LENGTH", 16)
    with pytest.raises(WordLengthOverflow):
        apply([Psi(0)] * 10, TERNARY.word("yz"))
    # x and x^14 y fit, though |w| times the longer image is 30 letters; one more atom does not.
    assert str(apply([Psi(0)] * 14, TERNARY.word("xy"))) == "x" * 15 + "y"
    with pytest.raises(WordLengthOverflow):
        apply([Psi(0)] * 15, TERNARY.word("xy"))


@st.composite
def atoms_on_words(draw):
    """A single atom, or runs of equal atoms of every kind with powers 1-50, and a word over 2-8 letters or over 300.

    Run letters may miss the word, and one run in eight draws its letters from one step past either end of
    the alphabet too; Theta runs have odd and even lengths.
    """
    alphabet = draw(st.sampled_from([default_alphabet(k) for k in range(2, 9)] + [WIDE_ALPHABET]))
    k = alphabet.size
    word = Word(tuple(draw(st.lists(st.integers(0, k - 1), max_size=40))), alphabet)
    atoms = []
    for _ in range(draw(st.integers(0, 6))):
        letters = st.integers(-1, k) if draw(st.integers(0, 7)) == 0 else st.integers(0, k - 1)
        a, b = draw(st.lists(letters, min_size=2, max_size=2, unique=True))
        atoms += [draw(st.sampled_from((Psi(a), PsiBar(a), Theta(a, b))))] * draw(st.integers(1, 50))
    return draw(st.sampled_from((atoms, atoms[:1]))), word


@settings(max_examples=300, deadline=None)
@given(atoms_on_words(), st.integers(0, 5000))
def test_atoms_match_the_per_letter_oracle(case, limit):
    atoms, w = case
    calls = [lambda: apply(atoms, w)] + ([lambda: apply_atom(atoms[0], w)] if len(atoms) == 1 else [])
    try:
        want = naive_apply(atoms, w, limit)
    except InvalidLetterError as exc:
        for call in calls:
            with pytest.raises(InvalidLetterError) as info:
                call()
            assert str(info.value) == str(exc)
        return
    for budget in [limit] + ([len(want), len(want) - 1] if want else []):  # and both sides of the output's length
        with patch("epiword.morphisms.MAX_WORD_LENGTH", budget):
            for call in calls:
                if want is None or len(want) > budget:
                    with pytest.raises(WordLengthOverflow, match=f"image longer than {budget} letters"):
                        call()
                else:
                    assert call() == want


def test_long_runs_cost_about_their_output():
    # One pass per run of equal atoms, not one rewrite of the whole word per atom.
    assert str(naive_apply([Psi(2)] * 50 + [Psi(1)], TERNARY.word("x"), 10**6)) == "z" * 50 + "y" + "z" * 50 + "x"
    atoms = [Psi(2)] * 16_000 + [Psi(1)]
    seconds, w = best_of(3, lambda: apply(atoms, TERNARY.word("x")))
    assert str(w) == "z" * 16_000 + "y" + "z" * 16_000 + "x"
    assert seconds < 0.05, seconds


def test_images_nothing_reads_are_never_built():
    # y's image is read by the first run only and z's by the second, so each is dropped after it.
    assert _images([(1, 3), (2, 2)], [True, False], [0], ["x", "y", "z"]) == ["yyyx" + "yyyz" * 2, None, None]
    # Under Psi_x^20000 only x's image is read, so y's, which would be 400 M letters long, is not built.
    atoms = [Psi(1)] * 20_000 + [Psi(0)] * 20_000
    seconds, w = best_of(3, lambda: apply(atoms, BINARY.word("x")))
    assert str(w) == "y" * 20_000 + "x"
    assert seconds < 0.05, seconds
    tracemalloc.start()
    try:
        apply(atoms, BINARY.word("x"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
