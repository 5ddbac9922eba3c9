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
from epiword.morphisms import apply
from oracles import naive_apply_atom
from strategies import WIDE_ALPHABET

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


@st.composite
def atoms_on_words(draw):
    """An atom and a word over 2-8 letters or over 300; an atom letter may lie one step outside the alphabet."""
    alphabet = draw(st.sampled_from([default_alphabet(k) for k in range(2, 9)] + [WIDE_ALPHABET]))
    word = Word(tuple(draw(st.lists(st.integers(0, alphabet.size - 1), max_size=40))), alphabet)
    a, b = draw(st.lists(st.integers(-1, alphabet.size), min_size=2, max_size=2, unique=True))
    atom = draw(st.sampled_from((Psi(a), PsiBar(a), Theta(a, b))))
    return atom, word


@settings(max_examples=300)
@given(atoms_on_words())
def test_atoms_match_the_per_letter_oracle(case):
    atom, w = case
    try:
        want = naive_apply_atom(atom, w)
    except InvalidLetterError as exc:
        with pytest.raises(InvalidLetterError) as info:
            apply_atom(atom, w)
        assert str(info.value) == str(exc)
        return
    assert apply_atom(atom, w) == want
