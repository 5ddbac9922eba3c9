from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiword import (
    BINARY,
    DegenerateSlopeError,
    EmptyWordError,
    NonCoprimeError,
    NotBinaryError,
    Slope,
    TERNARY,
    Word,
    WordLengthOverflow,
    christoffel_word,
    is_balanced,
    is_christoffel,
    is_lyndon,
    parikh,
    path_labels,
    standard_factorization,
)
from oracles import geometric_christoffel, naive_christoffel_word, naive_standard_factorization


def coprime_slopes(max_total):
    for total in range(1, max_total + 1):
        for a in range(total + 1):
            b = total - a
            if gcd(a, b) == 1:
                yield Slope(a, b)


def test_slope_validation():
    with pytest.raises(NonCoprimeError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(0, 0)
    with pytest.raises(ValueError):
        Slope(-1, 2)
    assert str(Slope(4, 7)) == "4/7"


def test_word_examples():
    assert str(christoffel_word(Slope(1, 1))) == "xy"
    assert str(christoffel_word(Slope(4, 7))) == "xxyxxyxxyxy"
    assert str(christoffel_word(Slope(0, 1))) == "x"
    assert str(christoffel_word(Slope(1, 0))) == "y"


def test_word_length_and_counts():
    for slope in coprime_slopes(12):
        w = christoffel_word(slope)
        assert len(w) == slope.a + slope.b
        assert parikh(w).counts == (slope.b, slope.a)


def test_word_respects_length_budget(monkeypatch):
    monkeypatch.setattr("epiword.christoffel.MAX_WORD_LENGTH", 10)
    assert len(christoffel_word(Slope(3, 7))) == 10
    with pytest.raises(WordLengthOverflow):
        christoffel_word(Slope(4, 7))
    u, v = standard_factorization(Slope(3, 7))
    assert len(u) + len(v) == 10
    with pytest.raises(WordLengthOverflow):
        standard_factorization(Slope(4, 7))
    with pytest.raises(NotBinaryError):
        standard_factorization(Slope(3, 7), TERNARY)


def test_word_matches_geometric_path_construction():
    for slope in coprime_slopes(10):
        assert christoffel_word(slope) == geometric_christoffel(slope.a, slope.b)


def test_word_matches_the_floor_oracle_for_every_slope_to_400():
    for slope in coprime_slopes(400):
        assert christoffel_word(slope) == naive_christoffel_word(slope.a, slope.b), slope


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**5), st.data())
def test_word_matches_the_floor_oracle_to_total_1e5(n, data):
    a = data.draw(st.integers(1, n - 1).filter(lambda a: gcd(a, n) == 1))
    slope = Slope(a, n - a)
    word = christoffel_word(slope)
    assert word == naive_christoffel_word(a, n - a)
    # A Christoffel word has one split into two Christoffel words, the standard one (Borel-Laubie).
    u, v = standard_factorization(slope)
    assert u + v == word
    assert is_christoffel(u) and is_christoffel(v)


def test_labels_examples():
    labels = path_labels(Slope(1, 1))
    assert [(l.numerator, l.denominator, l.point) for l in labels] == [
        (0, 1, (0, 0)),
        (1, 1, (1, 0)),
        (0, 1, (1, 1)),
    ]
    by_point = {l.point: l for l in path_labels(Slope(4, 7))}
    assert (by_point[(2, 1)].numerator, by_point[(2, 1)].denominator) == (1, 7)
    assert by_point[(0, 0)].numerator == 0
    assert str(by_point[(2, 1)]) == "1/7"


def test_labels_properties():
    for slope in coprime_slopes(12):
        if slope.b == 0:
            with pytest.raises(DegenerateSlopeError):
                path_labels(slope)
            continue
        labels = path_labels(slope)
        assert len(labels) == slope.a + slope.b + 1
        assert labels[0].numerator == 0 and labels[-1].numerator == 0
        assert all(l.numerator >= 0 for l in labels)
        numerators = [l.numerator for l in labels[1:-1]]
        # interior numerators are pairwise distinct, so the 1/b point and the
        # maximum label are both unique
        assert len(set(numerators)) == len(numerators)
        if slope.a >= 1 and slope.b >= 1:
            assert numerators.count(1) == 1


def test_standard_factorization_examples():
    assert tuple(map(str, standard_factorization(Slope(1, 1)))) == ("x", "y")
    assert tuple(map(str, standard_factorization(Slope(4, 7)))) == ("xxy", "xxyxxyxy")
    assert tuple(map(str, standard_factorization(Slope(1, 2)))) == ("x", "xy")


def test_standard_factorization_matches_the_label_scan():
    for a in range(1, 151):
        for b in range(1, 151):
            if gcd(a, b) == 1:
                slope = Slope(a, b)
                assert standard_factorization(slope) == naive_standard_factorization(slope)


def test_standard_factorization_rejects_degenerate_slopes():
    with pytest.raises(DegenerateSlopeError):
        standard_factorization(Slope(0, 1))
    with pytest.raises(DegenerateSlopeError):
        standard_factorization(Slope(1, 0))


def test_standard_factorization_parts_are_christoffel():
    for slope in coprime_slopes(12):
        if slope.a == 0 or slope.b == 0:
            continue
        w1, w2 = standard_factorization(slope)
        assert w1 + w2 == christoffel_word(slope)
        assert is_christoffel(w1)
        assert is_christoffel(w2)


def test_is_christoffel_examples():
    assert is_christoffel(BINARY.word("xy"))
    assert is_christoffel(BINARY.word("xxyxy"))
    assert not is_christoffel(BINARY.word("xyxy"))
    with pytest.raises(NotBinaryError):
        is_christoffel(TERNARY.word("xy"))
    with pytest.raises(EmptyWordError):
        is_christoffel(BINARY.word(""))


def test_christoffel_iff_balanced_lyndon_small():
    expected = {christoffel_word(s).letters for s in coprime_slopes(10)}
    for n in range(1, 11):
        for letters in product(range(2), repeat=n):
            w = Word(letters, BINARY)
            assert is_christoffel(w) == (letters in expected)
            assert is_christoffel(w) == (is_balanced(w) and is_lyndon(w))
