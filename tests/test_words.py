import math
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiword import (
    BINARY,
    TERNARY,
    Alphabet,
    EmptyWordError,
    OccurrenceTuple,
    Word,
    are_conjugate,
    canonical_split,
    construct,
    default_alphabet,
    epichristoffel_tree,
    factors,
    is_balanced,
    is_lyndon,
    is_primitive,
    least_rotation,
    parikh,
    resolve_epichristoffel,
    rotate,
)
from epiword import words
from oracles import booth_least_rotation, naive_is_balanced, naive_least_rotation
from strategies import WIDE_ALPHABET, grown_tuples

ternary_words = st.lists(st.integers(0, 2), max_size=10).map(lambda ls: Word(tuple(ls), TERNARY))
nonempty_ternary = st.lists(st.integers(0, 2), min_size=1, max_size=10).map(
    lambda ls: Word(tuple(ls), TERNARY)
)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet("xx")
    assert Alphabet("xyz").index("z") == 2
    with pytest.raises(ValueError):
        Alphabet("xy").index("q")


def test_default_alphabet():
    assert default_alphabet(2).symbols == "xy"
    assert default_alphabet(3).symbols == "xyz"
    assert default_alphabet(5).symbols == "xyzab"
    with pytest.raises(ValueError):
        default_alphabet(0)


def test_word_parse_render_roundtrip():
    w = TERNARY.word("xzyzzyz")
    assert str(w) == "xzyzzyz"
    assert len(w) == 7
    assert str(TERNARY.word("")) == ""


def test_word_rejects_foreign_letters():
    with pytest.raises(ValueError):
        Word((0, 5), TERNARY)
    with pytest.raises(ValueError, match="letter index outside alphabet"):
        Word((0, 3), TERNARY)
    with pytest.raises(ValueError, match="letter index outside alphabet"):
        Word((2, -1, 0), TERNARY)
    with pytest.raises(ValueError):
        TERNARY.word("xq")
    assert Word((2, 0, 1), TERNARY).letters == (2, 0, 1)


wide_tuples = st.lists(st.integers(0, WIDE_ALPHABET.size - 1), max_size=30).map(tuple)


@given(wide_tuples, wide_tuples, st.integers(-35, 35), st.integers(-35, 35))
def test_words_behave_as_their_letter_tuples(t, other, a, b):
    w = Word(t, WIDE_ALPHABET)
    assert w.letters == t and list(w) == list(t) and len(w) == len(t)
    assert [w[i] for i in range(-len(t), len(t))] == [t[i] for i in range(-len(t), len(t))]
    assert w[a:b].letters == t[a:b]
    trusted = Word._trusted("".join(map(chr, t)), WIDE_ALPHABET)
    assert trusted == w and hash(trusted) == hash(w)
    assert (w < Word(other, WIDE_ALPHABET)) == (t < other)
    assert (w + Word(other, WIDE_ALPHABET)).letters == t + other
    with pytest.raises(FrozenInstanceError):
        w.alphabet = TERNARY
    with pytest.raises(FrozenInstanceError):
        w.letters = t


def refuse_check(self, *args):
    raise AssertionError("a word built inside the library checked its letters again")


def test_letters_are_checked_once_at_the_boundary(monkeypatch):
    p = OccurrenceTuple((1, 2, 4))
    w = TERNARY.word("zyzzyzx")
    monkeypatch.setattr(Word, "__init__", refuse_check)
    assert str(construct(p).epi_word) == "xzyzzyz"
    assert (str(canonical_split(p).u), str(canonical_split(p).v)) == ("zyz", "zyzx")
    assert str(epichristoffel_tree(p)) == "(xzyz, zyz)"
    assert str(resolve_epichristoffel(p, OccurrenceTuple((3, 8, 16)))) == "xzyzzyzxzyzzyzzyzxzyzzyzzyz"
    assert str(least_rotation(w)[0] + w[2:4] + rotate(w, 3)) == "xzyzzyzzzzyzxzyz"


def test_word_comparison_is_dictionary_order():
    assert BINARY.word("x") < BINARY.word("xy")
    assert BINARY.word("xy") < BINARY.word("y")
    with pytest.raises(ValueError):
        BINARY.word("x") < TERNARY.word("x")
    with pytest.raises(ValueError):
        BINARY.word("x") + TERNARY.word("x")


def test_parikh_examples():
    assert parikh(TERNARY.word("")).counts == (0, 0, 0)
    assert parikh(TERNARY.word("xzyzzyz")).counts == (1, 2, 4)
    assert parikh(TERNARY.word("yzyyzyx")).counts == (1, 4, 2)


@given(ternary_words, ternary_words)
def test_parikh_is_additive(u, v):
    assert parikh(u + v) == parikh(u) + parikh(v)


def test_rotate_examples():
    assert str(rotate(BINARY.word("xy"), 1)) == "yx"
    assert str(rotate(TERNARY.word("zyzzyzx"), 6)) == "xzyzzyz"
    w = TERNARY.word("xzy")
    assert rotate(w, 0) == w
    assert rotate(w, 3) == w
    assert rotate(TERNARY.word(""), 2) == TERNARY.word("")


def test_least_rotation_examples():
    assert least_rotation(TERNARY.word("zyzzyzx")) == (TERNARY.word("xzyzzyz"), 6)
    assert least_rotation(TERNARY.word("yzyyzyx")) == (TERNARY.word("xyzyyzy"), 6)
    assert least_rotation(BINARY.word("xy")) == (BINARY.word("xy"), 0)
    with pytest.raises(EmptyWordError):
        least_rotation(BINARY.word(""))


def test_least_rotation_tie_takes_smallest_offset():
    assert least_rotation(BINARY.word("xyxy"))[1] == 0
    assert least_rotation(BINARY.word("yxyx"))[1] == 1


def test_least_rotation_matches_naive_scan_exhaustively():
    for n in range(1, 8):
        for letters in product(range(3), repeat=n):
            w = Word(letters, TERNARY)
            assert least_rotation(w) == naive_least_rotation(w)


@given(nonempty_ternary, st.integers(0, 9))
def test_least_rotation_is_rotation_invariant(w, i):
    assert least_rotation(rotate(w, i))[0] == least_rotation(w)[0]


@st.composite
def rotation_words(draw):
    """Words of up to 300 letters over 1-26 letters; some are proper powers, some miss the least letters."""
    k = draw(st.integers(1, 26))
    low = draw(st.integers(0, k - 1))
    high = draw(st.integers(low, k - 1))
    power = draw(st.sampled_from((1, 1, 2, 3, 8)))
    base = draw(st.lists(st.integers(low, high), min_size=1, max_size=300 // power))
    return Word(tuple(base) * power, default_alphabet(k))


@settings(max_examples=300, deadline=None)
@given(rotation_words(), st.integers(0, 299))
def test_least_rotation_matches_naive_scan(w, i):
    least, offset = naive_least_rotation(w)
    assert least_rotation(w) == (least, offset)
    rotations = {w.letters[j:] + w.letters[:j] for j in range(len(w))}
    assert is_primitive(w) == (len(rotations) == len(w))
    assert is_lyndon(w) == (is_primitive(w) and offset == 0)
    assert are_conjugate(w, rotate(w, i)) and are_conjugate(rotate(w, i), least)


@settings(max_examples=40, deadline=None)
@given(grown_tuples(max_total=10**4), st.integers(0, 10**4))
def test_least_rotation_matches_booth_on_constructed_words(p, i):
    c_word = construct(p).c_word
    for w in (c_word, rotate(c_word, i), rotate(c_word, i) + rotate(c_word, i)):
        assert least_rotation(w) == booth_least_rotation(w)


def test_least_rotation_over_an_alphabet_of_more_than_256_letters():
    alphabet = Alphabet("".join(map(chr, range(0x100, 0x100 + 300))))
    for letters in ((299, 0, 299, 299, 0), (5, 280, 5, 280, 5, 280), (270, 260, 299, 261, 260, 299)):
        w = Word(letters, alphabet)
        assert least_rotation(w) == naive_least_rotation(w)
        assert is_primitive(w) == (letters != (5, 280) * 3)


def test_least_rotation_recursion_depth_is_logarithmic(monkeypatch):
    # The word 0 c1 0 c2 ... has blocks 0c, which rename to the word c1 c2 ...
    # one letter lower: each level keeps exactly half the letters, the worst case.
    s = "\x00\x01"
    while len(s) < 1 << 20:
        s = s.translate({c: "\x00" + chr(c + 1) for c in range(32)})
    w = Word(tuple(s.encode("latin-1")), default_alphabet(21))
    depth, deepest = 0, 0
    original = words._least_conjugate

    def tracking(t, a):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return original(t, a)
        finally:
            depth -= 1

    monkeypatch.setattr(words, "_least_conjugate", tracking)
    assert least_rotation(rotate(w, 12345)) == (w, len(w) - 12345)
    assert 19 <= deepest <= math.log2(len(w)) + 2


def test_conjugacy():
    assert are_conjugate(TERNARY.word("zyzzyzx"), TERNARY.word("xzyzzyz"))
    assert are_conjugate(BINARY.word("xy"), BINARY.word("xy"))
    assert not are_conjugate(TERNARY.word("xy"), TERNARY.word("xz"))
    assert are_conjugate(BINARY.word(""), BINARY.word(""))
    assert not are_conjugate(BINARY.word("x"), BINARY.word("xx"))


def test_primitivity():
    assert not is_primitive(BINARY.word("xyxy"))
    assert is_primitive(BINARY.word("x"))
    # length 7 is prime, so only the trivial period divides
    assert is_primitive(TERNARY.word("xzyzzyz"))
    with pytest.raises(EmptyWordError):
        is_primitive(BINARY.word(""))


def test_lyndon():
    assert is_lyndon(TERNARY.word("xzyzzyz"))
    assert not is_lyndon(BINARY.word("xx"))
    assert not is_lyndon(BINARY.word("yx"))
    with pytest.raises(EmptyWordError):
        is_lyndon(BINARY.word(""))


def test_lyndon_implies_primitive_exhaustively():
    for n in range(1, 11):
        for letters in product(range(2), repeat=n):
            w = Word(letters, BINARY)
            if is_lyndon(w):
                assert is_primitive(w)


def test_balance_examples():
    assert not is_balanced(BINARY.word("xxyy"))
    assert is_balanced(BINARY.word("xy"))
    assert is_balanced(BINARY.word("xxyxxyxxyxy"))
    with pytest.raises(EmptyWordError):
        is_balanced(BINARY.word(""))


def test_balance_matches_factor_pair_oracle():
    for alphabet, longest in ((BINARY, 8), (TERNARY, 6)):
        for n in range(1, longest + 1):
            for letters in product(range(alphabet.size), repeat=n):
                w = Word(letters, alphabet)
                assert is_balanced(w) == naive_is_balanced(w)


def test_factors():
    assert factors(BINARY.word("xy"), 1) == {BINARY.word("x"), BINARY.word("y")}
    assert factors(BINARY.word("xxy"), 2) == {BINARY.word("xx"), BINARY.word("xy")}
    assert factors(BINARY.word("xxy"), 0) == {BINARY.word("")}
    with pytest.raises(ValueError):
        factors(BINARY.word("xy"), 3)
