import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epiword import (
    BINARY,
    CLASSICAL_SEED,
    DimensionMismatchError,
    EpiwordError,
    Fraction,
    NotAdmissibleError,
    NotInTreeError,
    OccurrenceTuple,
    Slope,
    TrivialTupleError,
    Word,
    WordLengthOverflow,
    admissibility,
    christoffel_tree,
    classify_factorizability,
    diagonal,
    diagonal_sum_check,
    epichristoffel_tree,
    is_epichristoffel_word,
    l1_plus,
    mediant,
    parikh,
    path_to_tuple,
    resolve_epichristoffel,
    row_successor_check,
    sb_level_stream,
    standard_factorization,
    stern_brocot_levels,
    tree_isomorphism_check,
    tree_levels,
)
from epiword import trees
from epiword.morphisms import _images
from epiword.trees import TreeNode, _check_node_words, _walk_to_tuple, sb_sequence
from oracles import (
    naive_classify_factorizability,
    naive_epichristoffel_tree,
    naive_insert_mediants,
    naive_longest_node_word,
    naive_sb_diagonal,
    naive_tree_levels,
    naive_walk_to_tuple,
)
from strategies import grown_tuples, near_misses
from timing import best_of

T = OccurrenceTuple
TIE_BREAKS = ("recent", "smallest", "largest")


def frs(entries):
    return [str(e) for e in entries]


def test_christoffel_tree_root_and_children():
    root = christoffel_tree()
    assert str(root) == "(x, y)"
    left, right = root.children()
    assert str(left) == "(x, xy)" and str(right) == "(xy, y)"
    assert str(left.left()) == "(x, xxy)"
    assert root.children() == root.children()


def test_christoffel_tree_words_are_unique_to_depth_6():
    nodes = [n for level in tree_levels(christoffel_tree(), 6) for n in level]
    words = {n.word.letters for n in nodes}
    assert len(words) == len(nodes) == 2**7 - 1


def test_christoffel_tree_nodes_are_standard_factorizations():
    for level in tree_levels(christoffel_tree(), 6):
        for node in level:
            counts = parikh(node.word)
            assert (node.u, node.v) == standard_factorization(Slope(counts[1], counts[0]))


def test_mediant():
    assert mediant(Fraction(1, 2), Fraction(1, 1)) == Fraction(2, 3)
    assert mediant(T((1, 1, 2)), T((0, 1, 2))) == T((1, 2, 4))
    assert mediant(T((1, 2, 4)), T((0, 0, 0))) == T((1, 2, 4))
    with pytest.raises(DimensionMismatchError):
        mediant(T((1, 2)), T((1, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        mediant(Fraction(1, 2), T((1, 2)))


def test_fraction_validation():
    with pytest.raises(ValueError):
        Fraction(0, 0)
    with pytest.raises(ValueError):
        Fraction(-1, 2)
    assert str(Fraction(1, 0)) == "1/0"


def test_classical_levels():
    levels = stern_brocot_levels(CLASSICAL_SEED, 4)
    assert frs(levels[0].entries) == ["1/1"]
    assert frs(levels[1].entries) == ["1/2", "2/1"]
    assert frs(levels[2].entries) == ["1/3", "2/3", "3/2", "3/1"]
    assert frs(levels[3].entries) == ["1/4", "2/5", "3/5", "3/4", "4/3", "5/3", "5/2", "4/1"]
    for i, level in enumerate(stern_brocot_levels(CLASSICAL_SEED, 8), start=1):
        assert level.index == i
        assert len(level.entries) == 2 ** (i - 1)
        assert all(gcd(f.num, f.den) == 1 for f in level.entries)


def test_classical_full_sequences():
    assert frs(sb_sequence(CLASSICAL_SEED, 2)) == ["0/1", "1/2", "1/1", "2/1", "1/0"]
    assert frs(sb_sequence(CLASSICAL_SEED, 3)) == [
        "0/1", "1/3", "1/2", "2/3", "1/1", "3/2", "2/1", "3/1", "1/0",
    ]


def test_tuple_levels():
    seed = (T((1, 1, 2)), T((0, 1, 2)))
    levels = stern_brocot_levels(seed, 2)
    assert [e.counts for e in levels[0].entries] == [(1, 2, 4)]
    assert [e.counts for e in levels[1].entries] == [(2, 3, 6), (1, 3, 6)]
    assert [e.counts for e in sb_sequence(seed, 2)] == [
        (1, 1, 2), (2, 3, 6), (1, 2, 4), (1, 3, 6), (0, 1, 2),
    ]


def naive_rows(seed, rounds):
    """The seed pair and the row after each of ``rounds`` rounds, by the per-pair oracle."""
    rows = [list(seed)]
    for _ in range(rounds):
        rows.append(naive_insert_mediants(rows[-1]))
    return rows


fractions = st.tuples(st.integers(0, 50), st.integers(0, 50)).filter(any).map(lambda p: Fraction(*p))


def tuples_of(k):
    return st.lists(st.integers(0, 50), min_size=k, max_size=k).map(lambda c: T(tuple(c)))


tuple_seeds = st.integers(1, 6).flatmap(lambda k: st.tuples(tuples_of(k), tuples_of(k)))


@settings(max_examples=150, deadline=None)
@given(st.tuples(fractions, fractions) | tuple_seeds, st.integers(0, 10))
def test_mediant_rows_match_the_per_pair_oracle(seed, rounds):
    rows = naive_rows(seed, rounds)
    assert sb_sequence(seed, rounds) == rows[-1]
    levels = stern_brocot_levels(seed, rounds)
    assert [level.index for level in levels] == list(range(1, rounds + 1))
    assert [list(level.entries) for level in levels] == [row[1::2] for row in rows[1:]]
    # Entries are built in a batch, with no constructor call; each must be the value its constructor builds.
    built = sb_sequence(seed, rounds) + [entry for level in levels for entry in level.entries]
    want = rows[-1] + [entry for row in rows[1:] for entry in row[1::2]]
    for got, entry in zip(built, want, strict=True):
        assert type(got) is type(entry) and type(entry) in (Fraction, T)
        assert (got, hash(got), str(got), repr(got)) == (entry, hash(entry), str(entry), repr(entry))
    for got in built[1:-1]:
        with pytest.raises(FrozenInstanceError):
            setattr(got, "counts" if type(got) is T else "num", 0)


mismatched_seeds = (
    st.tuples(fractions, st.integers(2, 6).flatmap(tuples_of))
    | st.tuples(st.integers(2, 6).flatmap(tuples_of), fractions)
    | st.tuples(st.integers(2, 6), st.integers(2, 6))
    .filter(lambda ks: ks[0] != ks[1])
    .flatmap(lambda ks: st.tuples(tuples_of(ks[0]), tuples_of(ks[1])))
)


@settings(max_examples=60, deadline=None)
@given(mismatched_seeds, st.integers(1, 10))
def test_mismatched_seeds_raise_as_the_per_pair_oracle_does(seed, rounds):
    want = outcome(naive_rows, seed, rounds)
    assert want[0] is DimensionMismatchError
    assert outcome(sb_sequence, seed, rounds) == want
    assert outcome(stern_brocot_levels, seed, rounds) == want


def test_levels_take_under_three_quarters_of_the_per_pair_oracle():
    seed = (T((1, 2, 4)), T((2, 3, 9)))
    fast, levels = best_of(3, lambda: stern_brocot_levels(seed, 14))
    slow, want = best_of(3, lambda: [tuple(row[1::2]) for row in naive_rows(seed, 14)[1:]])
    assert [level.entries for level in levels] == want
    assert fast < 0.75 * slow, (fast, slow)


def test_fraction_levels_take_under_three_quarters_of_the_per_pair_oracle():
    fast, levels = best_of(3, lambda: stern_brocot_levels(CLASSICAL_SEED, 15))
    slow, want = best_of(3, lambda: [tuple(row[1::2]) for row in naive_rows(CLASSICAL_SEED, 15)[1:]])
    assert [level.entries for level in levels] == want
    assert fast < 0.75 * slow, (fast, slow)


def test_negative_iterations_are_rejected():
    with pytest.raises(ValueError, match="^iterations must be non-negative$"):
        sb_sequence(CLASSICAL_SEED, -3)
    with pytest.raises(ValueError, match="^count must be non-negative$"):
        stern_brocot_levels(CLASSICAL_SEED, -3)


def test_epichristoffel_tree_roots():
    assert str(epichristoffel_tree(T((1, 2, 4)))) == "(xzyz, zyz)"
    assert str(epichristoffel_tree(T((3, 2, 1)))) == "(xy, xyxz)"
    assert str(epichristoffel_tree(T((1, 2, 4))).right()) == "(xzyzzyz, zyz)"
    assert str(epichristoffel_tree(T((1, 1)), BINARY)) == "(x, y)"


def test_epichristoffel_tree_rejections():
    with pytest.raises(TrivialTupleError):
        epichristoffel_tree(T((0, 1, 0)))
    with pytest.raises(NotAdmissibleError):
        epichristoffel_tree(T((2, 3, 7)))


def test_epichristoffel_tree_figure_nodes_to_depth_2():
    levels = tree_levels(epichristoffel_tree(T((1, 2, 4))), 2)
    assert [str(n) for n in levels[1]] == ["(xzyz, xzyzzyz)", "(xzyzzyz, zyz)"]
    assert [str(n) for n in levels[2]] == [
        "(xzyz, xzyzxzyzzyz)",
        "(xzyzxzyzzyz, xzyzzyz)",
        "(xzyzzyz, xzyzzyzzyz)",
        "(xzyzzyzzyz, zyz)",
    ]


@settings(max_examples=40, deadline=None)
@given(grown_tuples(), st.integers(0, 5))
@example(T((1, 2, 4)), 5)
@example(T((3, 2, 1)), 5)
def test_epichristoffel_tree_nodes_are_epichristoffel_words(p, depth):
    # classify_factorizability rests on this: off a spine, a node's u or v is an ancestor's node word.
    assume(sum(p.counts) >= 2)  # a unit vector has no split
    for level in tree_levels(epichristoffel_tree(p), depth):
        for node in level:
            assert node.u < node.v
            assert is_epichristoffel_word(node.word)


def test_node_tuples_follow_the_seed_combination():
    root = epichristoffel_tree(T((1, 2, 4)))
    pu, pv = parikh(root.u), parikh(root.v)
    # track seed multiplicities of both factors: u and v act as the fences
    frontier = [(root, (1, 0), (0, 1))]
    for _ in range(6):
        nxt = []
        for node, ucoef, vcoef in frontier:
            mid = (ucoef[0] + vcoef[0], ucoef[1] + vcoef[1])
            left, right = node.children()
            nxt.append((left, ucoef, mid))
            nxt.append((right, mid, vcoef))
        frontier = nxt
        for node, ucoef, vcoef in frontier:
            alpha, beta = ucoef[0] + vcoef[0], ucoef[1] + vcoef[1]
            assert gcd(alpha, beta) == 1
            expected = tuple(alpha * pu[i] + beta * pv[i] for i in range(3))
            assert parikh(node.word).counts == expected


def test_node_tuples_match_the_tuple_tree_positionally():
    root = epichristoffel_tree(T((1, 2, 4)))
    seed = (parikh(root.u), parikh(root.v))
    sb = stern_brocot_levels(seed, 6)
    for level, sb_level in zip(tree_levels(root, 5), sb):
        assert [parikh(n.word) for n in level] == list(sb_level.entries)


def test_isomorphism_with_the_fraction_tree():
    assert tree_isomorphism_check(1)
    assert tree_isomorphism_check(6)


def test_diagonals_classical():
    assert frs(islice(diagonal(sb_level_stream(CLASSICAL_SEED), "L", 1), 4)) == [
        "1/1", "1/2", "1/3", "1/4",
    ]
    assert frs(islice(diagonal(sb_level_stream(CLASSICAL_SEED), "L", 2), 3)) == [
        "2/1", "2/3", "2/5",
    ]
    assert frs(islice(diagonal(sb_level_stream(CLASSICAL_SEED), "R", 3), 3)) == [
        "2/3", "5/3", "8/3",
    ]
    # levels shorter than k are skipped: the 4th diagonal starts on level 3
    assert frs(islice(diagonal(sb_level_stream(CLASSICAL_SEED), "L", 4), 2)) == ["3/1", "3/4"]


def test_diagonals_of_the_tuple_tree():
    seed = (T((1, 1, 2)), T((0, 1, 2)))
    left1 = list(islice(diagonal(sb_level_stream(seed), "L", 1), 4))
    assert [e.counts for e in left1] == [(1, 2, 4), (2, 3, 6), (3, 4, 8), (4, 5, 10)]
    right1 = list(islice(diagonal(sb_level_stream(seed), "R", 1), 4))
    assert [e.counts for e in right1] == [(1, 2, 4), (1, 3, 6), (1, 4, 8), (1, 5, 10)]
    left2 = list(islice(diagonal(sb_level_stream(seed), "L", 2), 3))
    assert [e.counts for e in left2] == [(1, 3, 6), (3, 5, 10), (5, 7, 14)]
    right2 = list(islice(diagonal(sb_level_stream(seed), "R", 2), 2))
    assert [e.counts for e in right2] == [(2, 3, 6), (2, 5, 10)]


def test_diagonal_works_on_word_tree_levels():
    levels = tree_levels(epichristoffel_tree(T((1, 2, 4))), 3)
    spine = list(diagonal(levels, "R", 1))
    assert [str(n.word) for n in spine] == [
        "xzyzzyz", "xzyzzyzzyz", "xzyzzyzzyzzyz", "xzyzzyzzyzzyzzyz",
    ]


def test_diagonal_rejects_a_bad_side():
    for levels in (sb_level_stream(CLASSICAL_SEED), stern_brocot_levels(CLASSICAL_SEED, 3)):
        with pytest.raises(ValueError, match="^side must be 'L' or 'R', got 'X'$"):
            next(diagonal(levels, "X", 2))


def tree_seed(root):
    tree = epichristoffel_tree(T(root))
    return parikh(tree.u), parikh(tree.v)


SB_SEEDS = (CLASSICAL_SEED, tree_seed((1, 2, 4)), tree_seed((1, 2, 4, 8)), tree_seed((1, 4, 2)))


@pytest.mark.parametrize("seed", SB_SEEDS, ids=["classical", "1,2,4", "1,2,4,8", "1,4,2"])
def test_diagonals_match_the_level_scan_for_every_k_to_4096(seed):
    for k in range(1, 2**12 + 1):
        for side in "LR":
            got = list(islice(diagonal(sb_level_stream(seed), side, k), 3))
            assert got == list(islice(naive_sb_diagonal(seed, side, k), 3)), (side, k)


def test_diagonal_of_an_advanced_stream_starts_at_its_next_level():
    seed = SB_SEEDS[1]
    for k, skipped in ((2, 5), (5, 2), (5, 3), (5, 4), (1, 1)):
        for side in "LR":
            stream = sb_level_stream(seed)
            for _ in range(skipped):
                next(stream)
            got = list(islice(diagonal(stream, side, k), 3))
            start = (k - 1).bit_length() + 1  # the first level with a k-th entry
            first = max(skipped + 1, start)  # the level of got[0]
            want = list(islice(naive_sb_diagonal(seed, side, k), first - start, first - start + 3))
            assert got == want, (k, skipped, side)
            # The stream is left after the last level answered, as a scan leaves it.
            assert next(stream) == stern_brocot_levels(seed, first + 3)[-1]


def refuse_level(*args):
    raise AssertionError("a diagonal built a mediant level")


def test_diagonal_of_a_stream_builds_no_level(monkeypatch):
    checked = []
    monkeypatch.setattr("epiword.trees.mediant", lambda a, b: checked.append((a, b)) or mediant(a, b))
    monkeypatch.setattr("epiword.trees._insert_mediants", refuse_level)
    monkeypatch.setattr("epiword.trees._entries", refuse_level)
    got = frs(islice(diagonal(sb_level_stream(CLASSICAL_SEED), "L", 10**18), 3))
    assert got == ["572471677/203949877", "572471677/776421554", "572471677/1348893231"]
    assert checked == [CLASSICAL_SEED]  # one mediant, of the seed pair, for its checks
    best, _ = best_of(3, lambda: list(islice(diagonal(sb_level_stream(SB_SEEDS[2]), "R", 100_000), 5)))
    assert best < 0.01


def test_next_level_after_a_diagonal_builds_only_its_own_entries(monkeypatch):
    built = []
    entries = trees._entries

    def counting(cls, columns, positions):
        built.append(len(positions))
        return entries(cls, columns, positions)

    monkeypatch.setattr("epiword.trees._entries", counting)
    for seed in (CLASSICAL_SEED, SB_SEEDS[1]):
        stream = sb_level_stream(seed)
        list(islice(diagonal(stream, "L", 100), 3))  # levels 8 to 10
        assert built == []
        level = next(stream)
        assert level.index == 11 and built == [2**10]
        assert level == stern_brocot_levels(seed, 11)[-1]
        built.clear()


def test_diagonal_scans_levels_that_are_not_a_stream():
    levels = stern_brocot_levels(CLASSICAL_SEED, 6)
    assert list(diagonal(levels[2::2], "L", 2)) == [levels[2].entries[1], levels[4].entries[1]]
    assert frs(diagonal(iter(levels), "R", 3)) == ["2/3", "5/3", "8/3", "11/3"]


def test_diagonal_of_a_mismatched_seed_is_an_error():
    # A mixed seed and one of unequal lengths: the diagonal raises mediant's error, message and all.
    for seed in ((Fraction(0, 1), T((1, 2))), (T((1, 2)), T((1, 2, 3)))):
        want = outcome(mediant, *seed)
        assert want[0] is DimensionMismatchError
        for k in (1, 3):
            assert outcome(lambda: next(diagonal(sb_level_stream(seed), "L", k))) == want


def test_l1_plus():
    assert frs(islice(l1_plus(), 4)) == ["1/0", "1/1", "1/2", "1/3"]


def test_diagonal_sums():
    assert diagonal_sum_check(1, 6)  # diagonals 2 and 3 from 1 and the formal sequence
    assert diagonal_sum_check(3, 6)  # diagonals 6 and 7
    for k in range(1, 13):
        assert diagonal_sum_check(k, 5), f"diagonal sum failed for k={k}"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**40), st.integers(1, 6))
def test_diagonal_sums_for_large_k(k, terms):
    assert diagonal_sum_check(k, terms)


def test_row_successors():
    levels = stern_brocot_levels(CLASSICAL_SEED, 8)
    assert row_successor_check(levels)
    with pytest.raises(ValueError, match="^the row-successor maps are defined for fraction levels$"):
        row_successor_check(stern_brocot_levels(SB_SEEDS[1], 3))
    row2, row3 = levels[1].entries, levels[2].entries
    assert row2[0] == Fraction(1, 2) and row3[0] == Fraction(1, 3)
    assert row2[-1] == Fraction(2, 1) and row3[-1] == Fraction(3, 1)


def test_path_to_tuple():
    assert path_to_tuple(T((1, 2, 4)), T((3, 8, 16))) == ["R", "L", "R"]
    assert path_to_tuple(T((1, 2, 4)), T((1, 2, 4))) == []
    assert path_to_tuple(T((1, 2, 4)), T((2, 3, 6))) == ["L"]
    assert path_to_tuple(T((1, 2, 4)), T((1, 3, 6))) == ["R"]


def test_path_to_tuple_orientation_on_asymmetric_paths():
    # coefficients (3, 2) sit at L then R; (2, 3) mirror it
    assert path_to_tuple(T((1, 2, 4)), T((3, 5, 10))) == ["L", "R"]
    assert path_to_tuple(T((1, 2, 4)), T((2, 5, 10))) == ["R", "L"]


def test_path_to_tuple_rejections():
    with pytest.raises(NotInTreeError):
        path_to_tuple(T((1, 2, 4)), T((2, 3, 7)))  # no integer combination
    with pytest.raises(NotInTreeError):
        path_to_tuple(T((1, 2, 4)), T((2, 4, 8)))  # coefficients (2, 2) share a factor
    with pytest.raises(NotInTreeError):
        path_to_tuple(T((1, 2, 4)), T((0, 1, 2)))  # needs alpha = 0
    with pytest.raises(NotInTreeError):
        path_to_tuple(T((1, 2, 4)), T((1, 2)))
    with pytest.raises(WordLengthOverflow, match="^word of length 40000003 exceeds the budget$"):
        path_to_tuple(T((1, 2, 4)), T((10_000_000, 10_000_001, 20_000_002)))
    with pytest.raises(NotInTreeError):  # the tree checks come before the budget
        path_to_tuple(T((1, 2, 4)), T((10_000_000, 10_000_000, 20_000_000)))


def outcome(f, *args, **kwargs):
    """What a call returns, or the type and message of the library error it raises."""
    try:
        return f(*args, **kwargs)
    except EpiwordError as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(grown_tuples(10**5) | near_misses())
def test_roots_match_the_oracle_that_constructs_each_part(p):
    for rule in TIE_BREAKS:
        assert outcome(epichristoffel_tree, p, tie_break=rule) == outcome(
            naive_epichristoffel_tree, p, tie_break=rule
        )


FIBONACCI = (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610)

coefficients = (
    st.tuples(st.integers(1, 500), st.just(1))  # one long run of L
    | st.tuples(st.just(1), st.integers(1, 500))  # one long run of R
    | st.integers(1, len(FIBONACCI) - 2).map(lambda n: (FIBONACCI[n + 1], FIBONACCI[n]))  # runs of one
    | st.integers(1, len(FIBONACCI) - 2).map(lambda n: (FIBONACCI[n], FIBONACCI[n + 1]))
    | st.tuples(st.integers(0, 40), st.integers(0, 40))  # zero and non-coprime pairs too
)


@settings(max_examples=100, deadline=None)
@given(grown_tuples(30), coefficients, st.integers(0, 4), st.sampled_from((0, 0, -1, 1)))
def test_walks_by_runs_match_the_step_by_step_oracle(root, coefs, i, nudge):
    alpha, beta = coefs
    target = root  # a unit root has no tree; both walks must say so alike
    tree = outcome(naive_epichristoffel_tree, root)
    if isinstance(tree, TreeNode):
        counts = [alpha * a + beta * b for a, b in zip(parikh(tree.u), parikh(tree.v))]
        counts[i % len(counts)] += nudge  # a one-off neighbour, mostly outside the tree
        target = T(tuple(counts))
    assert outcome(_walk_to_tuple, root, target) == outcome(naive_walk_to_tuple, root, target)


def refuse_descent(self):
    raise AssertionError("the walk descended one node at a time")


def test_walk_costs_runs_not_steps(monkeypatch):
    monkeypatch.setattr(TreeNode, "left", refuse_descent)
    monkeypatch.setattr(TreeNode, "right", refuse_descent)
    target = T((100_000, 100_001, 200_002))
    assert path_to_tuple(T((1, 2, 4)), target) == ["L"] * 99_999
    word = resolve_epichristoffel(T((1, 2, 4)), target)
    assert len(word) == 400_003 and parikh(word) == target


def test_tree_root_reduces_once_and_constructs_nothing(monkeypatch):
    calls = []

    def counting(real):
        def count(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return count

    def refuse(*args, **kwargs):
        raise AssertionError("the tree root ran a construction")

    monkeypatch.setattr("epiword.epichristoffel.admissibility", counting(admissibility))
    monkeypatch.setattr("epiword.epichristoffel._images", counting(_images))
    monkeypatch.setattr("epiword.epichristoffel.construct", refuse)
    assert str(epichristoffel_tree(T((1, 2, 4)))) == "(xzyz, zyz)"
    assert calls == ["admissibility", "_images"]
    for counts in ((3, 2, 1), (1, 1, 16_000), (5, 8), (1, 1, 2, 4)):
        calls.clear()
        epichristoffel_tree(T(counts))
        assert calls == ["admissibility", "_images"], counts
    assert not hasattr(trees, "construct")
    assert not hasattr(trees, "RootSelectionError")


def test_tree_root_of_a_long_run_takes_milliseconds():
    p = T((1, 1, 16_000))
    best, root = best_of(3, lambda: epichristoffel_tree(p))
    assert best < 0.015
    assert root == naive_epichristoffel_tree(p)


def test_resolve_epichristoffel():
    assert str(resolve_epichristoffel(T((1, 2, 4)), T((3, 8, 16)))) == (
        "xzyzzyzxzyzzyzzyzxzyzzyzzyz"
    )
    assert str(resolve_epichristoffel(T((1, 2, 4)), T((1, 2, 4)))) == "xzyzzyz"
    assert str(resolve_epichristoffel(T((1, 2, 4)), T((1, 3, 6)))) == "xzyzzyzzyz"


def test_path_then_resolve_roundtrips_counts():
    for target in ((3, 8, 16), (2, 3, 6), (3, 4, 8), (2, 5, 10), (5, 8, 16)):
        word = resolve_epichristoffel(T((1, 2, 4)), T(target))
        assert parikh(word).counts == target
        assert is_epichristoffel_word(word)


def test_classify_factorizability_spine_without_splits():
    report = classify_factorizability(T((1, 2, 4)), 3)
    assert not report.nodes[0].v_epichristoffel
    assert [str(w) for w in report.right_spine_words] == [
        "xzyzzyz", "xzyzzyzzyz", "xzyzzyzzyzzyz", "xzyzzyzzyzzyzzyz",
    ]
    assert report.right_spine_unfactorizable is True
    assert not report.all_factorizable


def test_classify_factorizability_all_factorizable():
    report = classify_factorizability(T((3, 2, 1)), 3)
    assert report.all_factorizable
    assert report.right_spine_unfactorizable is None
    classical = classify_factorizability(T((1, 1)), 3, BINARY)
    assert classical.all_factorizable
    assert str(classical.root) == "(x, y)"


@settings(max_examples=100, deadline=None)
@given(grown_tuples(400) | near_misses(400), st.integers(0, 5))
@example(T((1, 2, 4)), 5)  # the root's v is not epichristoffel, so the right spine is probed
@example(T((3, 2, 1)), 5)
def test_factorizability_matches_the_per_node_oracle(p, depth):
    # Totals stay small because the oracle scans every cut of each right-spine word when the root's v fails.
    assert outcome(classify_factorizability, p, depth) == outcome(naive_classify_factorizability, p, depth)


def test_factorizability_matches_the_per_node_oracle_on_deep_trees():
    for counts, depth in (((1, 2, 4), 12), ((3, 2, 1), 12), ((2, 3, 5), 11), ((1, 2, 40), 10)):
        report = classify_factorizability(T(counts), depth)
        assert len(report.nodes) == 2 ** (depth + 1) - 1
        assert report == naive_classify_factorizability(T(counts), depth)


def test_factorizability_tests_one_word_per_report(monkeypatch):
    calls = []

    def counting(w):
        calls.append(w)
        return is_epichristoffel_word(w)

    monkeypatch.setattr("epiword.epichristoffel.is_epichristoffel_word", counting)
    report = classify_factorizability(T((1, 2, 4)), 12)
    assert len(report.nodes) == 8191
    # The root's u is its tuple's epichristoffel word by construction; testing both parts of every node made 16,382.
    # One test on the root's v, then one per right-spine word, inside epi_factorizations, on its root's v: the same v.
    assert len(report.right_spine_words) == 13
    assert calls == [report.root.v] * 14


def test_factorizability_to_depth_12_takes_under_a_tenth_of_a_second():
    best, report = best_of(3, lambda: classify_factorizability(T((1, 2, 4)), 12))
    assert best < 0.1  # testing both parts of every node took 0.4-0.7 s
    assert report.right_spine_unfactorizable is True


def test_tree_children_respect_length_budget(monkeypatch):
    monkeypatch.setattr("epiword.trees.MAX_WORD_LENGTH", 16)
    node = epichristoffel_tree(T((1, 2, 4)))
    with pytest.raises(WordLengthOverflow):
        tree_levels(node, 3)
    # a walk builds only the target's word, so its budget is the target total
    monkeypatch.setattr("epiword.trees.MAX_WORD_LENGTH", 27)
    assert len(resolve_epichristoffel(T((1, 2, 4)), T((3, 8, 16)))) == 27
    monkeypatch.setattr("epiword.trees.MAX_WORD_LENGTH", 26)
    with pytest.raises(WordLengthOverflow, match="^word of length 27 exceeds the budget$"):
        path_to_tuple(T((1, 2, 4)), T((3, 8, 16)))


def test_each_tree_child_is_checked_on_its_own_length(monkeypatch):
    monkeypatch.setattr("epiword.trees.MAX_WORD_LENGTH", 10)
    short, long = BINARY.word("x"), BINARY.word("y" * 5)
    # (u, v) has children (u, uv) of 2|u| + |v| letters and (uv, v) of |u| + 2|v|
    assert TreeNode(short, long).left() == TreeNode(short, BINARY.word("xyyyyy"))
    with pytest.raises(WordLengthOverflow, match="^child word would exceed the length budget$"):
        TreeNode(short, long).right()
    assert TreeNode(long, short).right() == TreeNode(BINARY.word("yyyyyx"), short)
    with pytest.raises(WordLengthOverflow, match="^child word would exceed the length budget$"):
        TreeNode(long, short).left()


@settings(max_examples=60, deadline=None)
@given(st.none() | grown_tuples() | near_misses(), st.integers(0, 5), st.none() | st.integers(-3, 1))
def test_tree_levels_match_the_breadth_first_oracle(p, depth, slack):
    # None stands for the Christoffel tree; a tuple without a tree is not a root.
    root = christoffel_tree() if p is None else outcome(epichristoffel_tree, p)
    assume(isinstance(root, TreeNode))
    levels = naive_tree_levels(root, depth)
    assert tree_levels(root, depth) == levels
    if slack is not None:
        # A budget around the longest node word: at or over it both walks give the levels, under it the same error.
        longest = max(len(node.word) for level in levels for node in level)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("epiword.trees.MAX_WORD_LENGTH", longest + slack)
            assert outcome(tree_levels, root, depth) == outcome(naive_tree_levels, root, depth)


OVER_BUDGET = (WordLengthOverflow, "child word would exceed the length budget")


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10**4), st.integers(1, 10**4), st.integers(0, 12), st.sampled_from((-1, 0)))
def test_node_word_guard_matches_the_mediant_rows(u_len, v_len, depth, slack):
    # A budget at the longest node word passes, one letter under it is refused.
    longest = naive_longest_node_word(u_len, v_len, depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("epiword.trees.MAX_WORD_LENGTH", longest + slack)
        assert outcome(_check_node_words, u_len, v_len, depth) == (OVER_BUDGET if slack else None)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tree_levels(christoffel_tree(), 30), "tree of 2(3^31 - 1)/2 letters exceeds the budget"),
        (lambda: tree_levels(epichristoffel_tree(T((1, 2, 4))), 10**12),
         "tree of 7(3^1000000000001 - 1)/2 letters exceeds the budget"),
        (lambda: classify_factorizability(T((1, 2, 4)), 40), "tree of 7(3^41 - 1)/2 letters exceeds the budget"),
        (lambda: tree_levels(epichristoffel_tree(T((1, 2, 4))), 19), "tree of 12203745400 letters exceeds the budget"),
        (lambda: stern_brocot_levels(CLASSICAL_SEED, 40), "tree of 2^40 - 1 entries exceeds the budget"),
        (lambda: sb_sequence(CLASSICAL_SEED, 40), "tree of 2^40 - 1 entries exceeds the budget"),
    ],
    ids=["christoffel-30", "epi-huge", "classify-40", "epi-1,2,4-19", "levels-40", "sequence-40"],
)
def test_over_budget_trees_are_refused_before_the_walk(monkeypatch, call, message):
    def refuse_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr("epiword.trees._preorder", refuse_walk)
    monkeypatch.setattr("epiword.trees._row_columns", refuse_walk)
    elapsed, result = best_of(1, lambda: outcome(call))
    assert result == (WordLengthOverflow, message)
    assert elapsed < 0.01


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tree_levels(christoffel_tree(), 27), "tree of 2(3^28 - 1)/2 letters exceeds the budget"),
        (lambda: tree_levels(TreeNode(BINARY.word(""), BINARY.word("")), 10**12),
         "tree of 2^1000000000001 - 1 nodes exceeds the budget"),
        (lambda: classify_factorizability(T((1, 1)), 27), "tree of 2(3^28 - 1)/2 letters exceeds the budget"),
    ],
    ids=["christoffel-27", "empty-huge", "classify-27"],
)
def test_trees_over_the_node_budget_are_refused_before_the_walk(monkeypatch, call, message):
    # Depth 27 passes the length guard (F(30) = 832,040 letters); its 2^28 - 1 nodes are bounded by its letters.
    monkeypatch.setattr("epiword.trees._preorder", lambda *args: pytest.fail("the walk started"))
    elapsed, result = best_of(1, lambda: outcome(call))
    assert result == (WordLengthOverflow, message)
    assert elapsed < 0.01


def test_a_level_stream_moved_past_the_entry_budget_refuses_its_next_level(monkeypatch):
    monkeypatch.setattr("epiword.trees._row_columns", lambda *args: pytest.fail("the row was built"))
    stream = sb_level_stream(CLASSICAL_SEED)
    # Level 26 holds 2^25 entries, the last of them 26/1; each level down maps a/b to a/(a+b).
    assert frs(islice(diagonal(stream, "L", 2**25), 3)) == ["26/1", "26/27", "26/53"]
    assert outcome(next, stream) == (WordLengthOverflow, "tree of 2^29 - 1 entries exceeds the budget")
    stream.advance_to(10**6)  # as a diagonal that far out leaves it
    elapsed, result = best_of(1, lambda: outcome(next, stream))
    assert result == (WordLengthOverflow, "tree of 2^1000000 - 1 entries exceeds the budget")
    assert elapsed < 0.01


def test_every_level_entry_point_keeps_the_entry_budget(monkeypatch):
    # Levels 1..21 hold 2^21 - 1 entries, over MAX_SB_ENTRIES = 2^20 (20 levels fit); no row is built to say so.
    monkeypatch.setattr("epiword.trees._row_columns", lambda *args: pytest.fail("the row was built"))
    for call in (stern_brocot_levels, sb_sequence):
        assert outcome(call, CLASSICAL_SEED, 21) == (WordLengthOverflow, "tree of 2^21 - 1 entries exceeds the budget")
    stream = sb_level_stream(CLASSICAL_SEED)
    stream.advance_to(21)
    assert outcome(next, stream) == (WordLengthOverflow, "tree of 2^21 - 1 entries exceeds the budget")
    # Levels 1..3 hold 7 entries: a budget of 7 gives them at every entry point, 6 refuses them.
    monkeypatch.undo()
    monkeypatch.setattr("epiword.trees.MAX_SB_ENTRIES", 7)
    assert len(stern_brocot_levels(CLASSICAL_SEED, 3)) == len(list(islice(sb_level_stream(CLASSICAL_SEED), 3))) == 3
    assert len(sb_sequence(CLASSICAL_SEED, 3)) == 9
    monkeypatch.setattr("epiword.trees.MAX_SB_ENTRIES", 6)
    for call in (stern_brocot_levels, sb_sequence):
        assert outcome(call, CLASSICAL_SEED, 3) == (WordLengthOverflow, "tree of 2^3 - 1 entries exceeds the budget")
    assert outcome(list, islice(sb_level_stream(CLASSICAL_SEED), 3))[0] is WordLengthOverflow


def test_letter_budget_keeps_christoffel_depth_14_in_little_memory():
    # 2(3^15 - 1)/2 = 14,348,906 letters fit MAX_TREE_LETTERS = 2^24; 43,046,720 at depth 15 do not.
    tracemalloc.start()
    try:
        levels = tree_levels(christoffel_tree(), 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, levels)) == 2**15 - 1
    assert peak < 16_000_000, peak  # 12.1-12.7 MB measured
    del levels
    assert outcome(tree_levels, christoffel_tree(), 15) == (WordLengthOverflow, "tree of 43046720 letters exceeds the budget")
    # Two empty words never grow; their tree stops where a one-letter root's does.
    empty = TreeNode(BINARY.word(""), BINARY.word(""))
    assert sum(map(len, tree_levels(empty, 14))) == 2**15 - 1
    assert outcome(tree_levels, empty, 15) == (WordLengthOverflow, "tree of 2^16 - 1 nodes exceeds the budget")


def counting_concatenations(monkeypatch) -> list:
    calls = []
    concat = Word.__add__

    def counting(self, other):
        calls.append(other)
        return concat(self, other)

    monkeypatch.setattr(Word, "__add__", counting)
    return calls


def test_tree_levels_concatenate_once_per_expanded_node(monkeypatch):
    calls = counting_concatenations(monkeypatch)
    levels = tree_levels(christoffel_tree(), 12)
    assert sum(map(len, levels)) == 2**13 - 1
    assert len(calls) == 2**12 - 1  # one per node above the last level; breadth first by children() made 8,190


def test_factorizability_spine_comes_from_the_levels(monkeypatch):
    calls = counting_concatenations(monkeypatch)
    report = classify_factorizability(T((3, 2, 1)), 6)
    assert len(report.nodes) == 2**7 - 1
    assert len(calls) == 2**6 - 1 + 7  # one per expanded node and one per spine word; a right() walk made 139


def test_children_share_the_word_they_concatenate(monkeypatch):
    calls = counting_concatenations(monkeypatch)
    left, right = epichristoffel_tree(T((1, 2, 4))).children()
    assert len(calls) == 1
    assert left.v is right.u
    assert (str(left), str(right)) == ("(xzyz, xzyzzyz)", "(xzyzzyz, zyz)")


def test_tree_levels_validation():
    with pytest.raises(ValueError):
        tree_levels(christoffel_tree(), -1)
    assert len(tree_levels(christoffel_tree(), 0)) == 1
