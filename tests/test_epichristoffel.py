import sys
import time
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epiword import (
    AllZeroError,
    Alphabet,
    BINARY,
    EmptyWordError,
    EpiwordError,
    NotAdmissibleError,
    NotEpichristoffelError,
    OccurrenceTuple,
    Psi,
    Slope,
    TERNARY,
    TrivialTupleError,
    Word,
    WordLengthOverflow,
    admissibility,
    canonical_split,
    christoffel_word,
    construct,
    default_alphabet,
    epi_factorizations,
    epichristoffel_tree,
    format_trace,
    is_c_epichristoffel,
    is_epichristoffel_word,
    is_lyndon,
    least_rotation,
    parikh,
    rotate,
    standard_factorization,
    t_operator,
    tuples_of_length,
)
from epiword.epichristoffel import _MAX_PLACED_ENTRIES, _TRACE_CHUNK, _all_letters, _check_compositions, _listed
from epiword.epichristoffel import _listing, _parts, _reduce, split_construction
from epiword.morphisms import _images, apply
from oracles import naive_admissibility, naive_construct, naive_epi_factorizations, naive_is_epichristoffel_word
from oracles import naive_tuples_of_length
from strategies import grown_tuples, near_misses
from timing import best_of

T = OccurrenceTuple
TIE_BREAKS = ("recent", "smallest", "largest")


def all_tuples(k, max_total, minimum=0):
    for counts in product(range(max_total + 1), repeat=k):
        if minimum <= sum(counts) <= max_total and any(counts):
            yield T(counts)


def test_t_operator_examples():
    assert t_operator(T((2, 3, 7))) == (T((2, 3, 2)), 2)
    assert t_operator(T((2, 3, 2))) == (T((2, -1, 2)), 1)
    assert t_operator(T((1, 4, 2))) == (T((1, 1, 2)), 1)


def test_t_operator_breaks_ties_toward_smallest_index():
    assert t_operator(T((1, 1, 0))) == (T((0, 1, 0)), 0)


def test_t_operator_validation():
    with pytest.raises(AllZeroError):
        t_operator(T((0, 0, 0)))
    with pytest.raises(ValueError):
        t_operator(T((3,)))
    with pytest.raises(ValueError):
        t_operator(T((-1, 0)))


def test_admissibility_rejects_on_negative_entry():
    trace = admissibility(T((2, 3, 7)))
    assert not trace.admissible
    assert trace.rejection == "negative entry"
    assert [s.after.counts for s in trace.steps] == [(2, 3, 2), (2, -1, 2)]


def test_admissibility_accepts_with_full_trace():
    trace = admissibility(T((1, 4, 2)))
    assert trace.admissible and trace.terminal == 0
    assert [s.after.counts for s in trace.steps] == [(1, 1, 2), (1, 1, 0), (1, 0, 0)]
    assert [s.index for s in trace.steps] == [1, 2, 1]


def test_admissibility_on_unit_and_stationary_tuples():
    trace = admissibility(T((0, 1, 0)))
    assert trace.admissible and trace.terminal == 1 and trace.steps == ()
    trace = admissibility(T((0, 0, 2)))
    assert not trace.admissible and trace.rejection == "stationary tuple"


def test_admissibility_validation():
    with pytest.raises(AllZeroError):
        admissibility(T((0, 0)))
    with pytest.raises(ValueError):
        admissibility(T((1, -1)))
    with pytest.raises(ValueError):
        admissibility(T((1, 2, 3)), tie_break="sideways")


def test_reduction_sum_contracts_to_previous_maximum():
    for p in all_tuples(3, 12):
        trace = admissibility(p)
        for step in trace.steps:
            assert step.after.total() == max(step.before.counts)
        assert len(trace.steps) <= p.total()


def test_verdict_is_tie_break_independent_small():
    for p in all_tuples(3, 12):
        verdicts = {
            admissibility(p, tie_break=rule).admissible
            for rule in ("recent", "smallest", "largest")
        }
        assert len(verdicts) == 1, f"tie-break changed the verdict for {p}"


def test_format_trace():
    assert (
        format_trace(admissibility(T((1, 4, 2))))
        == "(1,4,2) ->y (1,1,2) ->z (1,1,0) ->y (1,0,0)"
    )
    assert format_trace(admissibility(T((2, 3, 7)))) == "(2,3,7) ->z (2,3,2) ->y (2,-1,2)"
    assert format_trace(admissibility(T((0, 1, 0)))) == "(0,1,0)"
    assert format_trace(admissibility(T((4, 1, 2))), Alphabet("%yz")) == "(4,1,2) ->% (1,1,2) ->z (1,1,0) ->% (0,1,0)"


def test_trace_over_the_step_budget_is_refused_before_rendering(monkeypatch):
    trace = admissibility(T((1, 1, 10**12)))
    monkeypatch.setattr("epiword.epichristoffel._run_walk", lambda *args: pytest.fail("the trace was rendered"))
    start = time.perf_counter()
    with pytest.raises(WordLengthOverflow, match=r"^trace of 500000000001 steps exceeds the budget$"):
        format_trace(trace)
    assert time.perf_counter() - start < 0.01
    # (1,4,2) reduces in 3 steps: a budget of 3 renders them, 2 refuses them.
    monkeypatch.undo()
    monkeypatch.setattr("epiword.epichristoffel.MAX_WORD_LENGTH", 3)
    assert format_trace(admissibility(T((1, 4, 2)))).count("->") == 3
    monkeypatch.setattr("epiword.epichristoffel.MAX_WORD_LENGTH", 2)
    with pytest.raises(WordLengthOverflow, match=r"^trace of 3 steps exceeds the budget$"):
        format_trace(admissibility(T((1, 4, 2))))


def test_trace_steps_over_the_step_budget_are_refused_before_any_step(monkeypatch):
    trace = admissibility(T((1, 1, 10**12)))
    monkeypatch.setattr("epiword.epichristoffel.TStep", refuse_steps)
    start = time.perf_counter()
    with pytest.raises(WordLengthOverflow, match=r"^trace of 500000000001 steps exceeds the budget$"):
        trace.steps
    assert time.perf_counter() - start < 0.01
    # (1,1,8) reduces in 5 steps and (1,1,10) in 6: a budget of 5 expands the first and refuses the second.
    monkeypatch.undo()
    monkeypatch.setattr("epiword.epichristoffel.MAX_WORD_LENGTH", 5)
    assert len(admissibility(T((1, 1, 8))).steps) == 5
    with pytest.raises(WordLengthOverflow, match=r"^trace of 6 steps exceeds the budget$"):
        admissibility(T((1, 1, 10))).steps


def test_construct_examples():
    r = construct(T((1, 4, 2)))
    assert (str(r.c_word), str(r.epi_word)) == ("yzyyzyx", "xyzyyzy")
    r = construct(T((1, 2, 4)))
    assert (str(r.c_word), str(r.epi_word)) == ("zyzzyzx", "xzyzzyz")
    assert rotate(r.c_word, r.rotation_offset) == r.epi_word
    r = construct(T((3, 8, 16)))
    assert str(r.c_word) == "zyzzyzxzyzzyzzyzxzyzzyzzyzx"
    r = construct(T((3, 2, 1)))
    assert (str(r.c_word), str(r.epi_word)) == ("xyxyxz", "xyxyxz")


def test_construct_replays_through_the_morphism_sequence():
    for counts in ((1, 4, 2), (1, 2, 4), (3, 8, 16), (2, 1, 1)):
        r = construct(T(counts))
        start = TERNARY.word(TERNARY.symbols[r.terminal_letter])
        assert apply(r.morphisms, start) == r.c_word
        assert parikh(r.c_word) == T(counts)
        assert is_lyndon(r.epi_word)


def test_construct_lists_its_atoms_only_when_read():
    p = T((1, 1, 64_000))
    assert "morphisms" not in construct(p).__dict__  # a cached_property keeps its value there once read

    def replay():
        r = construct(p)
        return r, apply(r.morphisms, TERNARY.word(TERNARY.symbols[r.terminal_letter]))

    seconds, (r, w) = best_of(3, replay)
    assert len(r.morphisms) == 32_001 and w == r.c_word
    assert seconds < 0.1, seconds


def test_construct_rejects_inadmissible_tuples():
    with pytest.raises(NotAdmissibleError):
        construct(T((2, 3, 7)))


def test_construct_respects_length_budget(monkeypatch):
    monkeypatch.setattr("epiword.epichristoffel.MAX_WORD_LENGTH", 10)
    with pytest.raises(WordLengthOverflow):
        construct(T((3, 8, 16)))


@settings(max_examples=40, deadline=None)
@given(grown_tuples())
def test_construct_and_split_match_the_per_atom_oracle(p):
    for rule in TIE_BREAKS:
        expected, expected_atoms, expected_split = naive_construct(p, rule)
        r = construct(p, tie_break=rule)
        assert r == expected
        assert r.morphisms == expected_atoms  # not a field, so not compared above
        if expected_split is None:
            with pytest.raises(TrivialTupleError):
                split_construction(r)
        else:
            assert split_construction(r) == expected_split


@settings(max_examples=100, deadline=None)
@given(grown_tuples(max_total=10**4))
def test_split_parts_join_to_the_word_and_count_each_part(p):
    assume(p.total() > 1)  # unit tuples have no split
    for rule in TIE_BREAKS:
        r = construct(p, tie_break=rule)
        s = split_construction(r)
        assert s.u + s.v == r.c_word
        assert (s.u_tuple, s.v_tuple) == (parikh(s.u), parikh(s.v))


@st.composite
def tied_tuples(draw):
    """Small random tuples with zeros, some with one entry copied onto another to force a tie."""
    k = draw(st.integers(2, 5))
    entry = st.sampled_from((0, 0, 1, 2, 3)) | st.integers(0, 5000)
    counts = draw(st.lists(entry, min_size=k, max_size=k).filter(any))
    if draw(st.booleans()):
        counts[draw(st.integers(0, k - 1))] = max(counts)
    return T(tuple(counts))


@st.composite
def deep_ties(draw, max_total=10_000):
    """A grown tuple with one entry copied onto another, then grown on, so a tie sits inside its reduction."""
    counts = list(draw(grown_tuples(max_total // 4)).counts)
    i, j = draw(st.permutations(range(len(counts))))[:2]
    counts[j] = counts[i]
    for a, q in draw(st.lists(st.tuples(st.integers(0, len(counts) - 1), st.integers(1, 50)), max_size=4)):
        for _ in range(q):
            rest = sum(counts) - counts[a]
            if sum(counts) + rest > max_total:
                break
            counts[a] += rest
    assume(any(counts))
    return T(tuple(counts))


@settings(max_examples=300, deadline=None)
@given(grown_tuples(10_000) | near_misses() | deep_ties())
def test_verdict_is_tie_break_independent(p):
    # The enumeration relies on this: a tie at total >= 3 fails under every rule.
    verdicts = {admissibility(p, tie_break=rule).admissible for rule in TIE_BREAKS}
    assert len(verdicts) == 1, f"tie-break changed the verdict for {p}"


@settings(max_examples=150, deadline=None)
@given(grown_tuples(10_000) | near_misses() | tied_tuples())
def test_run_length_reduction_matches_the_step_by_step_oracle(p):
    for rule in TIE_BREAKS:
        expected = naive_admissibility(p, rule)
        trace = admissibility(p, rule)
        assert trace.admissible == (expected.terminal is not None)
        assert (trace.terminal, trace.rejection) == (expected.terminal, expected.rejection)
        assert trace.steps == expected.steps
        assert format_trace(trace) == expected.text()
        assert sum(q for _, q in trace.runs) == len(expected.steps)


@st.composite
def chunk_edge_runs(draw):
    """(q, i, p): p's reduction starts with q steps on entry i, q at a chunk edge; entry i is max + 1 + (q - 1)*sum of the others."""
    q = draw(st.sampled_from((_TRACE_CHUNK - 1, _TRACE_CHUNK, _TRACE_CHUNK + 1, 2 * _TRACE_CHUNK + 1)))
    others = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4).filter(any))
    i = draw(st.integers(0, len(others)))
    return q, i, T((*others[:i], max(others) + 1 + (q - 1) * sum(others), *others[i:]))


@settings(max_examples=25, deadline=None)
@given(chunk_edge_runs())
def test_trace_chunks_render_as_the_step_by_step_oracle(case):
    q, i, p = case
    for rule in TIE_BREAKS:
        trace = admissibility(p, rule)
        assert trace.runs[0] == (i, q)
        assert format_trace(trace) == naive_admissibility(p, rule).text()


@pytest.mark.parametrize("symbols", ["%yz", "x%z", "%{}", "{%d"])
def test_trace_symbols_are_not_format_syntax(symbols):
    alphabet = Alphabet(symbols)
    for p in [T((4, 1, 2)), T((1, 4, 2)), T((2, 3, 7)), T((1, 1, 2 * _TRACE_CHUNK + 3)), T((5, 3, 1))]:
        assert format_trace(admissibility(p), alphabet) == naive_admissibility(p).text(alphabet)


def refuse_steps(*args):
    raise AssertionError("a trace was expanded step by step")


def test_verdict_costs_runs_not_steps(monkeypatch):
    assert len(admissibility(T((1, 1, 10**7))).runs) <= 3
    monkeypatch.setattr("epiword.epichristoffel.TStep", refuse_steps)
    trace = admissibility(T((1, 1, 200_000)))
    assert trace.admissible and format_trace(trace).count("->") == 100_001
    # 363 of them use every letter, as frozen in criterion 06
    assert sum(all(p.counts) for p in tuples_of_length(60, 3)) == 363
    monkeypatch.undo()
    assert len(admissibility(T((1, 1, 10**5))).steps) == 50_001


def test_construction_never_rewrites_per_atom(monkeypatch):
    def refuse(atom, w):
        raise AssertionError("construction rewrote the word atom by atom")

    monkeypatch.setattr("epiword.morphisms.apply_atom", refuse)
    monkeypatch.setattr("epiword.epichristoffel.TStep", refuse_steps)
    n = 100_000
    r = construct(T((1, 1, 2 * n)))
    s = split_construction(r)
    z = (2,) * n
    assert (s.u.letters, s.v.letters) == (z + (0,), z + (1,))
    assert r.c_word == s.u + s.v
    assert r.epi_word.letters == (0,) + z + (1,) + z


def test_letter_images_never_outgrow_the_word():
    # Every word is read off letter images under all atoms but the last
    # (_parts), so this keeps them within the length budget checked on the
    # tuple total, and images under all atoms within twice it. With w the
    # letters of all atoms but the last, Justin's formula Pal(wc) =
    # Psi_w(c) Pal(w) gives |Psi_w(c)| <= |Pal(w)| + 1 for every c, and
    # induction on the last occurrences in w of the last atom's letter and
    # of the terminal letter gives |u| + |v| >= |Pal(w)| + 1.
    # One more atom a gives |Psi_wa(c)| <= |Pal(wa)| + 1 <= 2 |Pal(w)| + 2.
    for k, max_total in ((3, 20), (4, 11)):
        alphabet = default_alphabet(k)
        for p in all_tuples(k, max_total):
            for rule in TIE_BREAKS:
                trace = admissibility(p, rule)
                if not trace.admissible or not trace.steps:
                    continue
                atoms = [Psi(step.index) for step in trace.steps]
                longest = max(len(apply(atoms[:-1], Word((c,), alphabet))) for c in range(k))
                assert longest <= p.total()
                longest = max(len(apply(atoms, Word((c,), alphabet))) for c in range(k))
                assert longest <= 2 * p.total()


def test_construct_on_unit_tuple_gives_the_letter():
    r = construct(T((0, 0, 1)))
    assert str(r.c_word) == "z" and len(r.morphisms) == 0


def test_canonical_split_examples():
    s = canonical_split(T((1, 4, 2)))
    assert (str(s.u), str(s.v)) == ("yzy", "yzyx")
    assert (s.u_tuple.counts, s.v_tuple.counts) == ((0, 2, 1), (1, 2, 1))
    s = canonical_split(T((1, 2, 4)))
    assert (str(s.u), str(s.v)) == ("zyz", "zyzx")
    s = canonical_split(T((3, 2, 1)))
    assert (str(s.u), str(s.v)) == ("xy", "xyxz")


def test_canonical_split_rejects_unit_tuples():
    with pytest.raises(TrivialTupleError):
        canonical_split(T((0, 1, 0)))


def outcome(call):
    """The result of ``call``, or the type and message of the error it raises."""
    try:
        return call()
    except (EpiwordError, ValueError) as exc:
        return type(exc), str(exc)


def oracle_split(p, rule):
    """The split of the per-atom oracle's construction; the library's construction refuses what it cannot build."""
    construct(p, tie_break=rule)
    split = naive_construct(p, rule)[2]
    if split is None:
        raise TrivialTupleError("unit tuples have no two-factor split")
    return split


def test_canonical_split_matches_the_split_of_the_construction():
    for k, max_total in ((2, 30), (3, 14), (4, 8)):
        for p in all_tuples(k, max_total):
            for rule in TIE_BREAKS:
                expected = outcome(lambda: oracle_split(p, rule))
                assert outcome(lambda: canonical_split(p, tie_break=rule)) == expected, (p, rule)
                if not isinstance(expected, tuple):
                    assert split_construction(construct(p, tie_break=rule)) == expected, (p, rule)


def counting(calls, real):
    def count(*args, **kwargs):
        calls.append(real.__name__)
        return real(*args, **kwargs)

    return count


def test_canonical_split_builds_no_construction(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the split built more than the c-word")

    calls = []
    monkeypatch.setattr("epiword.epichristoffel.construct", fail)
    monkeypatch.setattr("epiword.epichristoffel._images", counting(calls, _images))
    s = canonical_split(T((1, 2, 4)))
    assert (str(s.u), str(s.v), s.u_tuple, s.v_tuple) == ("zyz", "zyzx", T((0, 1, 2)), T((1, 1, 2)))
    assert calls == ["_images"]


BUILT_124 = construct(T((1, 2, 4)))


# Each entry point reads its words off one shared image pass (_parts), or cuts a built word where one pass on lengths
# puts |u|: (reductions, letter passes, length passes). A pass is a letter pass when its units are strings.
@pytest.mark.parametrize(
    "call, passes",
    [
        pytest.param(lambda: construct(T((1, 2, 4))), (1, 2, 0), id="construct"),
        pytest.param(lambda: canonical_split(T((1, 2, 4))), (1, 1, 0), id="canonical_split"),
        pytest.param(lambda: split_construction(BUILT_124), (0, 0, 1), id="split_construction"),
        pytest.param(lambda: epichristoffel_tree(T((1, 2, 4))), (1, 1, 0), id="epichristoffel_tree"),
        pytest.param(lambda: is_epichristoffel_word(BUILT_124.epi_word), (1, 1, 0), id="is_epichristoffel_word"),
        pytest.param(lambda: epi_factorizations(BUILT_124.epi_word), (2, 2, 0), id="epi_factorizations"),
    ],
)
def test_each_entry_point_makes_its_reductions_and_image_passes(monkeypatch, call, passes):
    calls = []

    def images(runs, fronts, read, units):
        calls.append("letters" if all(isinstance(unit, str) for unit in units) else "lengths")
        return _images(runs, fronts, read, units)

    monkeypatch.setattr("epiword.epichristoffel.admissibility", counting(calls, admissibility))
    monkeypatch.setattr("epiword.epichristoffel._images", images)
    call()
    assert (calls.count("admissibility"), calls.count("letters"), calls.count("lengths")) == passes, calls


def test_construct_preserves_counts_for_all_admissible_tuples():
    for p in all_tuples(3, 30):
        if not admissibility(p).admissible:
            continue
        r = construct(p)
        assert parikh(r.c_word) == p
        assert len(r.c_word) == p.total()
        assert parikh(r.epi_word) == p


def test_split_parts_recombine_and_are_c_epichristoffel():
    for p in all_tuples(3, 14):
        if not admissibility(p).admissible or p.total() == 1:
            continue
        s = canonical_split(p)
        assert parikh(s.u + s.v) == p
        assert s.u_tuple + s.v_tuple == p
        assert is_c_epichristoffel(s.u)
        assert is_c_epichristoffel(s.v)


def test_extending_a_split_keeps_the_family():
    for counts in ((1, 4, 2), (1, 2, 4), (3, 2, 1), (1, 1, 2)):
        s = canonical_split(T(counts))
        for stretched in (s.u + s.u + s.v, s.u + s.v + s.v):
            assert is_epichristoffel_word(least_rotation(stretched)[0])


def test_is_epichristoffel_word_examples():
    assert is_epichristoffel_word(TERNARY.word("xzyzzyz"))
    assert is_epichristoffel_word(TERNARY.word("x"))
    assert not is_epichristoffel_word(TERNARY.word("zyzzyzx"))
    with pytest.raises(EmptyWordError):
        is_epichristoffel_word(TERNARY.word(""))


def test_is_c_epichristoffel_examples():
    assert is_c_epichristoffel(TERNARY.word("zyzzyzx"))
    assert is_c_epichristoffel(TERNARY.word("yzyyzyx"))
    assert not is_c_epichristoffel(BINARY.word("xxyy"))


def test_word_predicates_refuse_an_admissible_word_over_the_budget(monkeypatch):
    """Over the budget, admissible counts are refused before any pass; inadmissible ones still get their verdict."""
    monkeypatch.setattr("epiword.epichristoffel.MAX_WORD_LENGTH", 6)
    for word in ("xzyzzyz", "zyzzyzx"):  # (1,2,4): the epichristoffel word and its c-word
        for predicate in (is_epichristoffel_word, is_c_epichristoffel, epi_factorizations):
            with pytest.raises(WordLengthOverflow, match="^word of length 7 exceeds the budget$"):
                predicate(TERNARY.word(word))
    rejected = TERNARY.word("xxyyyzzzzzzz")  # (2,3,7) reaches a negative entry
    assert not is_epichristoffel_word(rejected)
    assert not is_c_epichristoffel(rejected)
    with pytest.raises(NotEpichristoffelError):
        epi_factorizations(rejected)
    assert is_epichristoffel_word(TERNARY.word("x"))  # one letter needs no reduction


def check_lyndon_words(p, rule):
    """The word's Lyndon conjugate and offset, and the tree root's image pass, against the rotation search."""
    r = construct(p, tie_break=rule)
    assert (r.epi_word, r.rotation_offset) == least_rotation(r.c_word), (p, rule)
    if r.trace.runs:  # the tree root (u, v) is the Lyndon pass over the split's outer runs
        s = split_construction(r)
        u, v = _parts(r.trace, p.k, True)
        assert u + v == r.epi_word._code, (p, rule)
        low = s.u if r.trace.runs[-1][0] < r.terminal_letter else s.v
        assert u == least_rotation(low)[0]._code, (p, rule)


@settings(max_examples=100, deadline=None)
@given(grown_tuples(max_total=10**4))
def test_lyndon_words_match_the_rotation_search(p):
    for rule in TIE_BREAKS:
        check_lyndon_words(p, rule)


def test_lyndon_words_match_the_rotation_search_for_every_ternary_tuple_to_60():
    for n in range(1, 61):
        for p in tuples_of_length(n, 3):
            for rule in TIE_BREAKS:
                check_lyndon_words(p, rule)


@st.composite
def words_around_a_class(draw):
    """The epichristoffel word of a grown tuple, by the rotation search, or one
    of its rotations, or it with two neighbouring letters swapped, or with one
    letter changed, which moves its tuple by one as in ``near_misses``."""
    p = draw(grown_tuples(10**4))
    w = least_rotation(construct(p).c_word)[0]
    letters, n = list(w.letters), len(w)
    kind = draw(st.sampled_from(("word", "rotation", "swap", "change")))
    if kind == "rotation":
        i = draw(st.integers(0, n - 1))
        letters = letters[i:] + letters[:i]
    elif kind == "swap" and n > 1:
        i = draw(st.integers(0, n - 2))
        letters[i], letters[i + 1] = letters[i + 1], letters[i]
    elif kind == "change":
        letters[draw(st.integers(0, n - 1))] = draw(st.integers(0, p.k - 1))
    return Word(tuple(letters), w.alphabet)


@settings(max_examples=200, deadline=None)
@given(words_around_a_class())
def test_word_tests_match_the_rotation_oracle(w):
    least = least_rotation(w)[0]
    for rule in TIE_BREAKS:
        assert is_epichristoffel_word(w) == naive_is_epichristoffel_word(w, rule)
        assert is_c_epichristoffel(w) == naive_is_epichristoffel_word(least, rule)


def test_word_tests_match_the_rotation_oracle_on_every_short_word():
    for alphabet, longest in ((BINARY, 11), (TERNARY, 7)):
        for n in range(1, longest + 1):
            for letters in product(range(alphabet.size), repeat=n):
                w = Word(letters, alphabet)
                assert is_epichristoffel_word(w) == naive_is_epichristoffel_word(w), w
                assert is_c_epichristoffel(w) == naive_is_epichristoffel_word(least_rotation(w)[0]), w


def test_binary_epichristoffel_words_are_christoffel():
    for a, b in ((1, 1), (1, 2), (2, 3), (3, 4), (4, 7), (5, 8)):
        assert construct(T((b, a)), BINARY).epi_word == christoffel_word(Slope(a, b))


def test_epi_factorizations_examples():
    assert epi_factorizations(TERNARY.word("xzyzzyz")) == []
    xy = BINARY.word("xy")
    assert epi_factorizations(xy) == [(BINARY.word("x"), BINARY.word("y"))]
    splits = epi_factorizations(TERNARY.word("xyxyxz"))
    assert (TERNARY.word("xy"), TERNARY.word("xyxz")) in splits


def test_epi_factorizations_rejects_other_words():
    with pytest.raises(NotEpichristoffelError):
        epi_factorizations(TERNARY.word("zyzzyzx"))


# The oracle runs two word tests at each cut, so totals stay near 3,000 letters.
factorized_words = st.one_of(
    grown_tuples(3000),
    near_misses(3000).filter(lambda p: admissibility(p).admissible),
    st.integers(0, 1500).map(lambda n: T((1, 1, 2 * n))),  # (1, 1, n) is admissible for even n only
).map(lambda p: construct(p).epi_word)


@settings(max_examples=100, deadline=None)
@given(factorized_words)
def test_epi_factorizations_match_the_cut_scan(w):
    assert epi_factorizations(w) == naive_epi_factorizations(w)


def test_epi_factorizations_match_the_cut_scan_on_every_small_tuple():
    words = 0
    for k, bound in ((2, 40), (3, 16), (4, 8)):
        for counts in product(range(bound), repeat=k):
            if any(counts) and admissibility(T(counts)).admissible:
                w = construct(T(counts)).epi_word
                assert epi_factorizations(w) == naive_epi_factorizations(w), counts
                words += 1
    assert words == 2822  # 2,813 of two letters or more, and the 9 single letters


def test_binary_factorization_is_the_standard_factorization():
    # christoffel.py builds the word and its split by the Christoffel tree walk, sharing no code with the root read.
    slopes = [Slope(a, b) for a in range(1, 60) for b in range(1, 60) if gcd(a, b) == 1]
    assert len(slopes) == 2171
    for slope in slopes:
        assert epi_factorizations(christoffel_word(slope)) == [standard_factorization(slope)], slope


def test_a_long_run_factorizes_from_its_root_in_milliseconds(monkeypatch):
    w = construct(T((1, 1, 64_000))).epi_word
    best, found = best_of(3, lambda: epi_factorizations(w))
    assert best < 0.01  # two word tests at each of the 64,001 cuts took 7.9 s
    assert [(len(u), len(v)) for u, v in found] == [(32_001, 32_001)]
    tested = []
    monkeypatch.setattr("epiword.epichristoffel.is_epichristoffel_word", lambda x: tested.append(x) or True)
    epi_factorizations(w)
    assert tested == [found[0][1]]  # the root's v: the word itself is tested by the pass that reads the root


def test_tuples_of_length():
    assert tuples_of_length(5, 3, True) == []
    four = tuples_of_length(4, 3, True)
    assert T((1, 1, 2)) in four
    assert four == sorted(four, key=lambda p: p.counts)
    assert T((1, 2, 4)) in tuples_of_length(7, 3, True)
    # without the flag, tuples may omit letters
    assert T((0, 1, 1)) in tuples_of_length(2, 3)
    with pytest.raises(ValueError):
        tuples_of_length(0, 3)


# Largest total compared exhaustively with the composition oracle, per k.
EXHAUSTIVE_TOTALS = {2: 100, 3: 60, 4: 30, 5: 20, 6: 12}


def test_tuples_of_length_matches_the_composition_oracle():
    for k, max_total in EXHAUSTIVE_TOTALS.items():
        for n in range(1, max_total + 1):
            for flag in (False, True):
                assert tuples_of_length(n, k, flag) == naive_tuples_of_length(n, k, flag), (n, k, flag)


@cache
def listed(n, k, flag):
    return frozenset(p.counts for p in tuples_of_length(n, k, flag))


@st.composite
def moved_tuples(draw):
    """A grown tuple of total <= 200 and k <= 4, or it with units moved between two entries."""
    counts = list(draw(grown_tuples(200).filter(lambda p: p.k <= 4)).counts)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.permutations(range(len(counts))))[:2]
        if counts[i] > 0:
            counts[i], counts[j] = counts[i] - 1, counts[j] + 1
    return T(tuple(counts))


@settings(max_examples=100, deadline=None)
@given(moved_tuples())
def test_tuples_of_length_lists_exactly_the_admissible_tuples(p):
    admissible = admissibility(p).admissible
    assert (p.counts in listed(p.total(), p.k, False)) == admissible
    assert (p.counts in listed(p.total(), p.k, True)) == (admissible and all(p.counts))


def test_tuples_of_length_takes_time_about_its_output():
    start = time.perf_counter()
    found = tuples_of_length(240, 4)
    assert time.perf_counter() - start < 1.0
    assert len(found) == 35_556


def test_enumeration_depth_does_not_grow_with_the_total():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    # (998,1,1) reduces its first entry 499 times in a row: a call per step would overflow.
    sys.setrecursionlimit(depth + 200)
    try:
        found = tuples_of_length(1000, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert T((998, 1, 1)) in found and len(found) == 26_589


def test_enumeration_settles_leaves_without_verdicts_or_tuples(monkeypatch):
    expected = {(n, k): naive_tuples_of_length(n, k) for n, k in ((60, 3), (20, 5))}

    def fail(*args, **kwargs):
        raise AssertionError("an enumeration candidate was given a verdict, a trace or a tuple")

    monkeypatch.setattr("epiword.epichristoffel.admissibility", fail)
    monkeypatch.setattr("epiword.epichristoffel.TTrace", fail)
    monkeypatch.setattr(OccurrenceTuple, "__post_init__", fail)
    for (n, k), tuples in expected.items():
        assert tuples_of_length(n, k) == tuples, (n, k)


@pytest.mark.parametrize("n, k, count", [(2, 40, 780), (3, 12, 132)])
def test_small_totals_over_many_letters_list_only_their_orderings(n, k, count):
    # Every tuple orders one multiset, (1,1,0,...) or (2,1,0,...); listing k! orderings would never end.
    start = time.perf_counter()
    found = tuples_of_length(n, k)
    assert time.perf_counter() - start < 1.0
    assert len(found) == count
    assert {tuple(sorted(p.counts, reverse=True)) for p in found} == {(n - 1, 1) + (0,) * (k - 2)}


def test_tuples_of_length_count_at_total_2000():
    assert len(tuples_of_length(2000, 3)) == 65_703


# The largest total accepted per k: C(n+k-1, k-1) compositions at most 2^25.
LARGEST_ACCEPTED_TOTALS = {3: 8190, 4: 584, 5: 165, 6: 80, 7: 50}


def test_enumeration_budget_edges():
    for k, n in LARGEST_ACCEPTED_TOTALS.items():
        _check_compositions(n, k)
        with pytest.raises(WordLengthOverflow, match=rf"^enumeration of C\({n + k}, {k - 1}\) compositions "):
            _check_compositions(n + 1, k)


def test_enumeration_over_the_budget_is_refused_before_the_search(monkeypatch):
    # C(12, 2) = 66 compositions of 10 into 3 entries fit; the 78 of 11 do not.
    monkeypatch.setattr("epiword.epichristoffel.MAX_COMPOSITIONS", 66)
    assert tuples_of_length(10, 3) == naive_tuples_of_length(10, 3)
    with pytest.raises(WordLengthOverflow, match=r"^enumeration of C\(13, 2\) compositions exceeds the budget$"):
        tuples_of_length(11, 3)
    monkeypatch.undo()

    def fail(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr("epiword.epichristoffel._reduce", fail)
    monkeypatch.setattr("epiword.epichristoffel._orderings", fail)
    start = time.perf_counter()
    with pytest.raises(WordLengthOverflow, match=r"^enumeration of C\(1000000000, 999999999\) compositions "):
        tuples_of_length(1, 10**9)
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("k, top", [(3, 60), (4, 30), (5, 20), (6, 12)])
def test_the_tuples_that_begin_with_zero_are_zero_before_the_shorter_list(k, top):
    for n in range(1, top + 1):
        found = [p.counts for p in tuples_of_length(n, k)]
        shorter = [(0, *p.counts) for p in tuples_of_length(n, k - 1)]
        assert found[: len(shorter)] == shorter and all(found[len(shorter) :]), (n, k)
        assert _listing(n, k, False, len(shorter)) == shorter  # that block alone, as `exists --max` reads it


# Largest total compared under Hypothesis with the composition oracle, per k, past EXHAUSTIVE_TOTALS.
SAMPLED_TOTALS = {3: 150, 4: 45, 5: 25}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SAMPLED_TOTALS)), st.data(), st.booleans())
def test_tuples_of_length_matches_the_composition_oracle_past_the_exhaustive_range(k, data, flag):
    n = data.draw(st.integers(EXHAUSTIVE_TOTALS[k] + 1, SAMPLED_TOTALS[k]))
    assert tuples_of_length(n, k, flag) == naive_tuples_of_length(n, k, flag)


@pytest.mark.parametrize("n, k", [(40, 3), (25, 4), (16, 5), (11, 6)])
def test_a_listing_makes_exactly_the_reductions_of_the_all_letter_lists_it_places(monkeypatch, n, k):
    calls = []
    real = _reduce

    def recorded(counts, tie_break):
        calls.append(tuple(counts))
        return real(counts, tie_break)

    monkeypatch.setattr("epiword.epichristoffel._reduce", recorded)
    tuples_of_length(n, k)
    listing, calls[:] = calls[:], []
    for j in range(2, k + 1):  # one and two letters take no search
        tuples_of_length(n, j, True)
    assert listing == calls and calls


# At n = 2 the list is (1,1) on each of C(k, 2) position pairs, k entries a tuple: k = 128 fits 2^20 entries.
def test_enumeration_over_the_entry_budget_is_refused_before_the_search(monkeypatch):
    assert len(tuples_of_length(2, 128)) == 8128
    assert len(tuples_of_length(1, 1024)) == 1024  # exactly 2^20 entries

    def fail(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr("epiword.epichristoffel._reduce", fail)
    monkeypatch.setattr("epiword.epichristoffel._orderings", fail)
    for n, k, listed in [(2, 129, 8256), (2, 8191, 33_542_145), (1, 1025, 1025), (3, 300, 89_700)]:
        start = time.perf_counter()
        with pytest.raises(WordLengthOverflow, match=rf"^enumeration of at least {listed} tuples of {k} entries "):
            tuples_of_length(n, k)
        assert time.perf_counter() - start < 0.01
    assert len(tuples_of_length(2, 129, True)) == 0  # no tuple with a zero is listed


def test_the_entry_budget_keeps_the_largest_accepted_totals():
    # The tuples with a zero at the edges: 15,552 / 180,432 / 220,300 / 501,840 / 265,335 entries.
    for k, n in LARGEST_ACCEPTED_TOTALS.items():
        assert k * _listed([_all_letters(n, j) for j in range(1, k)], k) <= _MAX_PLACED_ENTRIES, (n, k)


def test_occurrence_tuple_parse():
    assert OccurrenceTuple.parse("1,2,4").counts == (1, 2, 4)
    with pytest.raises(ValueError):
        OccurrenceTuple.parse("1,a")
    assert str(T((1, 2, 4))) == "(1,2,4)"
