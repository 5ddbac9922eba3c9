import hashlib
import io
import json
import time
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epiword import (
    BINARY,
    CLASSICAL_SEED,
    TERNARY,
    Alphabet,
    OccurrenceTuple,
    TreeNode,
    WordLengthOverflow,
    admissibility,
    christoffel_tree,
    epichristoffel_tree,
    format_trace,
    tree_levels,
)
from epiword.cli import _word_tree_pieces, _write, main
from epiword.epichristoffel import _trace_pieces
from oracles import tree_to_dict
from strategies import grown_tuples


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def tree_from_dict(data: dict, alphabet: Alphabet) -> TreeNode:
    """Rebuild the root node from its JSON form; children must obey the child rule."""
    node = TreeNode(alphabet.word(data["u"]), alphabet.word(data["v"]))
    children = data.get("children", [])
    if children:
        if len(children) != 2:
            raise ValueError("word-tree nodes have zero or two children")
        left = tree_from_dict(children[0], alphabet)
        right = tree_from_dict(children[1], alphabet)
        if (left, right) != node.children():
            raise ValueError(f"children of {node} do not follow the child rule")
    return node


def test_christoffel_word_and_factorization():
    result = run("christoffel", "4", "7")
    assert result.exit_code == 0 and result.output == "xxyxxyxxyxy\n"
    result = run("christoffel", "1", "1", "--factorize")
    assert result.exit_code == 0 and result.output == "(x, y)\n"


def test_christoffel_rejects_non_coprime_slopes():
    result = run("christoffel", "2", "4")
    assert result.exit_code == 2
    assert "not coprime" in result.stderr


def test_christoffel_rejects_words_over_the_length_budget():
    result = run("christoffel", "1", "2000000")
    assert result.exit_code == 2
    assert "exceeds the budget" in result.stderr and result.stdout == ""


def test_christoffel_custom_alphabet():
    result = run("christoffel", "4", "7", "--alphabet", "ab")
    assert result.output == "aabaabaabab\n"
    result = run("christoffel", "4", "7", "--alphabet", "abc")
    assert result.exit_code == 2


def test_christoffel_labels_and_drawing():
    result = run("christoffel", "1", "1", "--labels")
    assert result.output == "0/1 1/1 0/1\n"
    result = run("christoffel", "1", "2", "--draw")
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "xxy"
    result = run("christoffel", "4", "7", "--format", "json")
    payload = json.loads(result.output)
    assert payload == {"slope": "4/7", "word": "xxyxxyxxyxy"}


def test_tuple_verdicts():
    result = run("tuple", "2,3,7")
    assert result.exit_code == 1 and result.output == "rejected\n"
    result = run("tuple", "1,4,2")
    assert result.exit_code == 0 and result.output == "admissible\n"


def test_tuple_word_split_trace():
    result = run("tuple", "1,4,2", "--word")
    assert result.output == "c: yzyyzyx / epi: xyzyyzy\n"
    result = run("tuple", "1,2,4", "--split")
    assert result.output == "(zyz, zyzx)\n"
    result = run("tuple", "1,4,2", "--trace")
    assert result.output == "(1,4,2) ->y (1,1,2) ->z (1,1,0) ->y (1,0,0)\nadmissible\n"
    result = run("tuple", "1,4,2", "--word", "--split")
    assert result.exit_code == 0
    assert result.output == "c: yzyyzyx / epi: xyzyyzy\n(yzy, yzyx)\n"


def test_tuple_word_and_split_take_two_image_passes(monkeypatch):
    """One reduction per call, whose trace the word is built from: the c-word and its Lyndon conjugate take one
    letter pass each, and the split is the c-word cut where one pass on lengths puts |u|, not a third letter pass."""
    from epiword.epichristoffel import _images, admissibility

    calls = []

    def reducing(*args, **kwargs):
        calls.append("admissibility")
        return admissibility(*args, **kwargs)

    def images(runs, fronts, read, units):
        calls.append("letters" if all(isinstance(unit, str) for unit in units) else "lengths")
        return _images(runs, fronts, read, units)

    monkeypatch.setattr("epiword.epichristoffel.admissibility", reducing)
    monkeypatch.setattr("epiword.epichristoffel._images", images)
    for args, stdout, lengths in [
        (("1,2,4", "--word", "--split"), "c: zyzzyzx / epi: xzyzzyz\n(zyz, zyzx)\n", 1),
        (("13,8", "--word", "--split"),
         "c: xyxxyxyxxyxxyxyxxyxxy / epi: xxyxxyxyxxyxxyxyxxyxy\n(xyxxyxyx, xyxxyxyxxyxxy)\n", 1),
        (("1,2,4", "--split"), "(zyz, zyzx)\n", 1),
        (("1,2,4", "--trace", "--word"),
         "(1,2,4) ->z (1,2,1) ->y (1,0,1) ->z (1,0,0)\nadmissible\nc: zyzzyzx / epi: xzyzzyz\n", 0),
    ]:
        calls.clear()
        result = run("tuple", *args)
        assert (result.exit_code, result.stdout) == (0, stdout)
        assert (calls.count("admissibility"), calls.count("letters"), calls.count("lengths")) == (1, 2, lengths), args
    calls.clear()
    result = run("tuple", "1,1,200000", "--word", "--split")
    # 600,023 bytes, byte for byte the output the console-script check pins
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "b8565aee61a682b4545aaf0fe5b3d0c2e5b25ce4c900b3339e8010bb44f66454"
    )
    assert (calls.count("admissibility"), calls.count("letters"), calls.count("lengths")) == (1, 2, 1)


@pytest.mark.parametrize(
    "args, code, stdout, stderr",
    [
        (("tuple", "1,1,20000000"), 0, "admissible\n", ""),
        (("tuple", "1,1,20000000", "--word"), 2, "", "error: word of length 20000002 exceeds the budget\n"),
        # (2001, 2002) and (100000, 1) times the root's split tuples (1,1,2) and (0,1,2)
        (("find", "--root", "1,2,4", "--target", "2001,4003,8006"), 0,
         " ".join(["R"] + ["L"] * 2000) + "\n" + "xzyzzyz" * 2001 + "zyz\n", ""),
        (("find", "--root", "1,2,4", "--target", "100000,100001,200002"), 0,
         " ".join(["L"] * 99_999) + "\n" + "xzyz" * 100_000 + "zyz\n", ""),
        (("find", "--root", "1,2,4", "--target", "10000000,10000001,20000002"), 2, "",
         "error: word of length 40000003 exceeds the budget\n"),
        # 85,512 admissible tuples, from 10.8 M compositions
        (("exists", "--length", "400", "--k", "4", "--max", "1"), 0, "0,0,1,399\n", ""),
        # 50 M compositions: refused before the search
        (("exists", "--length", "10000", "--k", "3"), 2, "",
         "error: enumeration of C(10002, 2) compositions exceeds the budget\n"),
        # The first tuple has a zero: it is read off the 2-letter list, with no search
        (("exists", "--length", "8000", "--k", "3", "--max", "1"), 0, "0,1,7999\n", ""),
        # 33.5 M tuples (1,1) placed among 8,191 zeros: refused before the search, even for one line
        (("exists", "--length", "2", "--k", "8191", "--max", "1"), 2, "",
         "error: enumeration of at least 33542145 tuples of 8191 entries exceeds the budget\n"),
    ],
    ids=["verdict", "word", "find", "find-long-run", "find-over-budget", "exists", "exists-over-budget",
         "exists-max-from-the-zero-block", "exists-over-entry-budget"],
)
def test_tuple_on_a_huge_total_finishes_within_two_seconds(args, code, stdout, stderr):
    start = time.perf_counter()
    result = run(*args)
    assert time.perf_counter() - start < 2.0
    assert (result.exit_code, result.stdout, result.stderr) == (code, stdout, stderr)


def test_tuple_split_of_a_unit_tuple_is_an_error():
    for args in (("--word", "--split"), ("--trace", "--split")):
        result = run("tuple", "0,1,0", *args)
        assert (result.exit_code, result.stdout) == (2, ""), args  # the word or trace was written first before
        assert result.stderr == "error: unit tuples have no two-factor split\n"


def test_tuple_word_on_rejected_tuple_is_an_error():
    result = run("tuple", "2,3,7", "--word")
    assert result.exit_code == 2
    assert "not admissible" in result.stderr
    result = run("tuple", "0,0,0")
    assert result.exit_code == 2
    result = run("tuple", "1,x")
    assert result.exit_code == 2


def test_tree_text_outputs():
    result = run("tree", "christoffel", "--depth", "1")
    assert result.output == "(x, y)\n  (x, xy)\n  (xy, y)\n"
    result = run("tree", "epi", "--root", "1,2,4", "--depth", "1")
    assert result.output == "(xzyz, zyz)\n  (xzyz, xzyzzyz)\n  (xzyzzyz, zyz)\n"
    result = run("tree", "sb", "--root", "1,2,4", "--depth", "2")
    assert result.output == "level 1: (1,2,4)\nlevel 2: (2,3,6), (1,3,6)\n"
    result = run("tree", "sb", "--depth", "2")
    assert result.output == "level 1: 1/1\nlevel 2: 1/2, 2/1\n"


def test_tree_requires_root_for_epi():
    result = run("tree", "epi")
    assert result.exit_code == 2
    result = run("tree", "epi", "--root", "2,3,7")
    assert result.exit_code == 2


def test_tree_json_roundtrip():
    result = run("tree", "epi", "--root", "1,2,4", "--depth", "3", "--format", "json")
    payload = json.loads(result.output)
    assert payload["alphabet"] == "xyz"
    rebuilt = tree_from_dict(payload["root"], TERNARY)
    direct = epichristoffel_tree(OccurrenceTuple((1, 2, 4)))
    assert rebuilt == direct
    assert tree_to_dict(rebuilt, 3) == payload["root"]
    assert tree_levels(rebuilt, 3) == tree_levels(direct, 3)
    # The json is written by hand, byte for byte as json.dumps writes the nested dicts,
    # also for symbols that json must escape.
    quoted, accented = Alphabet('"\\'), Alphabet('"\\\u00e9')
    for args, alphabet, direct in (
        (("epi", "--root", "1,2,4"), TERNARY, epichristoffel_tree(OccurrenceTuple((1, 2, 4)))),
        (("christoffel",), quoted, christoffel_tree(quoted)),
        (("epi", "--root", "1,2,4"), accented, epichristoffel_tree(OccurrenceTuple((1, 2, 4)), accented)),
    ):
        result = run("tree", *args, "--depth", "3", "--format", "json", "--alphabet", alphabet.symbols)
        assert tree_from_dict(json.loads(result.output)["root"], alphabet) == direct
        payload = {"alphabet": alphabet.symbols, "root": tree_to_dict(direct, 3)}
        assert result.output == json.dumps(payload) + "\n"


def test_tree_dot_output():
    result = run("tree", "christoffel", "--depth", "1", "--format", "dot")
    assert result.output.startswith("digraph")
    assert '"n" -> "nL";' in result.output
    assert '"nR" [label="(xy, y)"];' in result.output
    result = run("tree", "sb", "--depth", "2", "--format", "dot")
    assert '"n1_0" -> "n2_1";' in result.output


def test_find():
    result = run("find", "--root", "1,2,4", "--target", "3,8,16")
    assert result.exit_code == 0
    assert result.output == "R L R\nxzyzzyzxzyzzyzzyzxzyzzyzzyz\n"
    result = run("find", "--root", "1,2,4", "--target", "1,2,4")
    assert result.output == "(root)\nxzyzzyz\n"
    result = run("find", "--root", "1,2,4", "--target", "2,3,7")
    assert result.exit_code == 2


def test_exists():
    result = run("exists", "--length", "5", "--k", "3", "--all-letters")
    assert result.exit_code == 1 and result.output == ""
    result = run("exists", "--length", "4", "--k", "3", "--all-letters")
    assert result.exit_code == 0
    assert "1,1,2" in result.output.splitlines()
    result = run("exists", "--length", "7", "--k", "3", "--all-letters")
    assert "1,2,4" in result.output.splitlines()
    result = run("exists", "--length", "7", "--k", "3", "--all-letters", "--max", "2")
    assert len(result.output.splitlines()) == 2


@pytest.mark.parametrize("n, k, all_letters", [(60, 3, False), (20, 5, False), (12, 6, False), (60, 3, True), (5, 3, True)])
def test_exists_max_prints_the_first_lines_of_the_full_listing(n, k, all_letters):
    flag = ("--all-letters",) if all_letters else ()
    full = run("exists", "--length", str(n), "--k", str(k), *flag)
    lines = full.stdout.splitlines(keepends=True)
    # 2-letter and (k-1)-letter zero blocks: the tuples that begin with k-2 zeros, and with one
    blocks = [sum(line.startswith("0," * z) for line in lines) for z in (k - 2, 1)]
    for limit in sorted({0, 1, *blocks, *(b + 1 for b in blocks), len(lines), len(lines) + 3}):
        result = run("exists", "--length", str(n), "--k", str(k), *flag, "--max", str(limit))
        assert (result.exit_code, result.stdout) == (full.exit_code, "".join(lines[:limit])), limit


def test_apply_command():
    result = run("apply", "psi_y psi_z psi_y", "x")
    assert result.output == "yzyyzyx\n"
    result = run("apply", "psi_q", "x")
    assert result.exit_code == 2


def test_diagonal_command():
    result = run("diagonal", "--side", "L", "--k", "2", "--count", "3")
    assert result.output == "2/1\n2/3\n2/5\n"
    result = run("diagonal", "--side", "R", "--k", "1", "--count", "3", "--root", "1,2,4")
    assert result.output == "(1,2,4)\n(1,3,6)\n(1,4,8)\n"


@pytest.mark.parametrize(
    "k, count, stdout",
    [
        (100_000, 5, "811/364\n811/1175\n811/1986\n811/2797\n811/3608\n"),
        (10**18, 3, "572471677/203949877\n572471677/776421554\n572471677/1348893231\n"),
    ],
)
def test_diagonal_far_out_answers_without_building_levels(k, count, stdout):
    # Level 18 alone holds 2^17 mediants, and level 61 more than memory holds.
    start = time.perf_counter()
    result = run("diagonal", "--side", "L", "--k", str(k), "--count", str(count))
    assert time.perf_counter() - start < 0.5
    assert (result.exit_code, result.stdout) == (0, stdout)


def test_trace_over_the_budget_exits_2_before_any_output(monkeypatch):
    start = time.perf_counter()
    result = run("tuple", "1,1,20000000", "--trace")
    assert time.perf_counter() - start < 1.0
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: trace of 10000001 steps exceeds the budget\n"
    # (1,4,2) reduces in 3 steps: a budget of 3 prints them, 2 refuses them.
    monkeypatch.setattr("epiword.epichristoffel.MAX_WORD_LENGTH", 3)
    assert run("tuple", "1,4,2", "--trace").exit_code == 0
    monkeypatch.setattr("epiword.epichristoffel.MAX_WORD_LENGTH", 2)
    result = run("tuple", "1,4,2", "--trace")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: trace of 3 steps exceeds the budget\n"


def test_trace_inside_the_budget_prints_every_step():
    result = run("tuple", "1,1,2000000", "--trace")
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[1] == "admissible"
    segments = lines[0].split(" ->")
    assert len(segments) == 1_000_002  # the start and 1,000,001 steps
    assert segments[:3] == ["(1,1,2000000)", "z (1,1,1999998)", "z (1,1,1999996)"]
    assert segments[-3:] == ["z (1,1,2)", "z (1,1,0)", "x (0,1,0)"]
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "a509392f0190c3ebf1264c519cf931f8696823aeb5e88c8ba1031d9f66817352"  # as printed before traces were streamed
    )


def test_trace_alphabet_symbols_are_printed_as_given():
    result = run("tuple", "4,1,2", "--trace", "--alphabet", "%yz")
    assert (result.exit_code, result.stdout) == (0, "(4,1,2) ->% (1,1,2) ->z (1,1,0) ->% (0,1,0)\nadmissible\n")


def test_tree_over_the_letter_budget_exits_2_before_any_output(monkeypatch):
    start = time.perf_counter()
    result = run("tree", "epi", "--root", "1,2,400", "--depth", "12")
    assert time.perf_counter() - start < 1.0
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: tree of 321255883 letters exceeds the budget\n"
    # (x, y) to depth 1 prints 2 + 3 * 2 = 8 letters: a budget of 8 prints them, 7 refuses them.
    for fmt in ("text", "json", "dot"):
        monkeypatch.setattr("epiword.trees.MAX_TREE_LETTERS", 8)
        assert run("tree", "christoffel", "--depth", "1", "--format", fmt).exit_code == 0
        monkeypatch.setattr("epiword.trees.MAX_TREE_LETTERS", 7)
        result = run("tree", "christoffel", "--depth", "1", "--format", fmt)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: tree of 8 letters exceeds the budget\n"


@pytest.mark.parametrize(
    "args, letters, digests",
    [
        (("christoffel",), 1_594_322, {
            "text": "3062807628d215241f2fcb9784a48b4f3cf23b7d6f77942731e41b7303100a22",
            "json": "271757f34741e3c5ed25383aafbcc4cd717914e24a0101677c34e142375fe9e4",
            "dot": "af5f15b9d3759c2ae6e99400c7cdb1414a3799b1c2b5021fcb6d63dfc2a0bc75",
        }),
        (("epi", "--root", "1,2,4"), 5_580_127, {
            "text": "19ca516a1c30c4083bc4a13dc9bb26d1a5d2837251c80c6e127abbd50dc28910",
            "json": "f16394607a4a3c691483ae9192681e1697b43af8afee00d52d729de2889b5699",
            "dot": "1f7d61fa559c79f9ba384ad92e31ade7cae7a9da6ab9fbe513133c61ec5949f2",
        }),
    ],
    ids=["christoffel", "epi-1,2,4"],
)
def test_trees_inside_the_letter_budget_print_as_before(args, letters, digests):
    for fmt, digest in digests.items():
        result = run("tree", *args, "--depth", "12", "--format", fmt)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest, fmt
        if fmt == "text":
            assert sum(ch.isalpha() for ch in result.stdout) == letters


def written_and_peak(monkeypatch, pieces) -> tuple[int, int]:
    """The characters ``_write`` gives stdout for ``pieces``, and the tracemalloc peak while it writes them."""

    class Sink(io.TextIOBase):
        """A text stream that counts what it is given and keeps none of it."""

        written = 0

        def write(self, piece: str) -> int:
            self.written += len(piece)
            return len(piece)

    sink = Sink()
    monkeypatch.setattr("epiword.cli.click.get_text_stream", lambda *args, **kwargs: sink)
    tracemalloc.start()
    try:
        _write(pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sink.written, peak


def test_word_tree_is_written_as_it_is_walked(monkeypatch):
    written, peak = written_and_peak(monkeypatch, _word_tree_pieces(christoffel_tree(), 12, "json", BINARY))
    assert written == 2_042_942  # the bytes of `tree christoffel --depth 12 --format json`
    assert peak < written / 4, (peak, written)


def test_trace_is_written_as_it_is_rendered(monkeypatch):
    trace = admissibility(OccurrenceTuple((1, 1, 400_000)))
    written, peak = written_and_peak(monkeypatch, _trace_pieces(trace, "xyz"))
    assert written == len(format_trace(trace)) > 3_000_000  # 200,001 steps
    assert peak < written / 4, (peak, written)


def test_word_tree_over_the_word_length_budget_exits_2_before_any_output(monkeypatch):
    start = time.perf_counter()
    # 3.6 M letters, inside the letter budget, but each child of the root is longer than MAX_WORD_LENGTH.
    result = run("tree", "epi", "--root", "1,1,899998", "--depth", "1")
    assert time.perf_counter() - start < 1.0
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: child word would exceed the length budget\n"
    # The longest node of (x, y) to depth 2 is (xxy, xy), of 5 letters: a budget of 5 prints it, 4 refuses it.
    monkeypatch.setattr("epiword.trees.MAX_WORD_LENGTH", 5)
    assert run("tree", "christoffel", "--depth", "2").stdout.count("\n") == 7
    monkeypatch.setattr("epiword.trees.MAX_WORD_LENGTH", 4)
    result = run("tree", "christoffel", "--depth", "2")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: child word would exceed the length budget\n"


@pytest.mark.parametrize("root", [(), ("--root", "1,2,4"), ("--root", "3,2,1"), ("--root", "1,2,4,8")])
def test_word_tree_longest_node_check_matches_the_built_levels(monkeypatch, root):
    kind = "epi" if root else "christoffel"
    node = epichristoffel_tree(OccurrenceTuple.parse(root[1])) if root else christoffel_tree()
    # The guard and tree_levels both read the budget in epiword.trees, so every level is built before it is patched.
    longests = [max(len(n.word) for level in tree_levels(node, depth) for n in level) for depth in range(5)]
    for depth, longest in enumerate(longests):
        monkeypatch.setattr("epiword.trees.MAX_WORD_LENGTH", longest)
        assert run("tree", kind, *root, "--depth", str(depth)).exit_code == 0
        monkeypatch.setattr("epiword.trees.MAX_WORD_LENGTH", longest - 1)
        assert run("tree", kind, *root, "--depth", str(depth)).exit_code == 2


@settings(max_examples=60, deadline=None)
@given(st.none() | grown_tuples(300), st.integers(2, 5), st.sampled_from((-1, 0, 1, 10**12)), st.integers(-1, 1),
       st.integers(-1, 1))
def test_tree_levels_refuse_exactly_what_the_tree_command_refuses(p, edge, step, letter_slack, length_slack):
    # None stands for the Christoffel tree; a unit tuple has no split, so no tree.
    assume(p is None or p.total() > 1)
    root = christoffel_tree() if p is None else epichristoffel_tree(p)
    args = ("christoffel",) if p is None else ("epi", "--root", ",".join(map(str, p.counts)))
    # Both budgets sit around the size of the tree to depth ``edge``; the query is a depth near it, or a huge one.
    letters = (len(root.u) + len(root.v)) * (3 ** (edge + 1) - 1) // 2
    longest = max(len(node.word) for level in tree_levels(root, edge) for node in level)
    depth = edge + step if step < 10**12 else step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("epiword.trees.MAX_TREE_LETTERS", letters + letter_slack)
        mp.setattr("epiword.trees.MAX_WORD_LENGTH", longest + length_slack)
        result = run("tree", *args, "--depth", str(depth))
        try:
            tree_levels(root, depth)
        except WordLengthOverflow as exc:
            assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {exc}\n")
        else:
            assert result.exit_code == 0


@pytest.mark.parametrize("args", [("christoffel",), ("epi", "--root", "1,2,4"), ("sb",)])
def test_trees_of_a_huge_depth_exit_2_at_once(args):
    start = time.perf_counter()
    result = run("tree", *args, "--depth", str(10**12))
    assert time.perf_counter() - start < 1.0
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("error: tree of ") and result.stderr.endswith(" exceeds the budget\n")


def test_trees_deeper_than_twelve_print_inside_the_budgets():
    result = run("tree", "christoffel", "--depth", "13")
    assert result.exit_code == 0
    assert sum(ch.isalpha() for ch in result.stdout) == 2 * (3**14 - 1) // 2


@pytest.mark.parametrize(
    "root, fmt, digest",
    [
        ((), "text", "26c09b6523f26eb87e2c78d214308311d2bccf84bb8ada3a47f10ac39071433c"),
        ((), "json", "39c7a700ec4785deeb15440a9b48a7f7f9d045d35b2aeede3b48f33e84f2f6a2"),
        ((), "dot", "82ac204597d1c1584a1d7ba31146e258777eba2af0a8b61ba6a6b1570f251601"),
        (("--root", "1,2,4"), "text", "caafd32395b82d577590facbc3bb7d5f5855aabe68f42d6a9a8fffed9f32bfcd"),
        (("--root", "1,2,4"), "json", "d2641df37426b79c02028ce5aba65df24e1b36d85a55b03848beea512a3f77bd"),
        (("--root", "1,2,4"), "dot", "865ad338f06d226e030cbf03980e343012e603af2da5f7ca88f3574d730477e6"),
    ],
)
def test_sb_trees_print_as_before(root, fmt, digest):
    result = run("tree", "sb", *root, "--depth", "12", "--format", fmt)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_sb_tree_over_the_entry_budget_exits_2_before_any_level(monkeypatch):
    built = []

    def recording(seed):
        built.append(seed)
        return iter(())

    monkeypatch.setattr("epiword.trees.sb_level_stream", recording)
    # Depth 20 holds 2^20 - 1 entries, inside the budget of MAX_WORD_LENGTH = 2^20; depth 21 does not.
    assert run("tree", "sb", "--depth", "20").exit_code == 0
    assert built == [CLASSICAL_SEED]
    for depth in (21, 40):
        for root in ((), ("--root", "1,2,4")):
            result = run("tree", "sb", *root, "--depth", str(depth))
            assert (result.exit_code, result.stdout) == (2, "")
            assert result.stderr == f"error: tree of 2^{depth} - 1 entries exceeds the budget\n"
    assert built == [CLASSICAL_SEED]
    # Levels 1..3 hold 7 entries: a budget of 7 prints them, 6 refuses them.
    monkeypatch.undo()
    monkeypatch.setattr("epiword.trees.MAX_SB_ENTRIES", 7)
    assert run("tree", "sb", "--depth", "3").stdout.count("/") == 7
    monkeypatch.setattr("epiword.trees.MAX_SB_ENTRIES", 6)
    result = run("tree", "sb", "--depth", "3")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: tree of 2^3 - 1 entries exceeds the budget\n"


def test_commands_are_deterministic():
    for args in (
        ("tree", "epi", "--root", "1,2,4", "--depth", "3", "--format", "json"),
        ("exists", "--length", "12", "--k", "3", "--all-letters"),
        ("christoffel", "5", "8", "--factorize", "--labels"),
    ):
        first, second = run(*args), run(*args)
        assert first.output == second.output
        assert first.exit_code == second.exit_code


@pytest.mark.parametrize(
    "args, stdout",
    [
        # Alphabets that do not fit the tuple once a word or trace is built.
        (("tuple", "1,2,4", "--alphabet", "ab", "--word"), ""),
        (("tuple", "1,2,4", "--alphabet", "ab", "--split"), ""),
        (("tuple", "1,2,4", "--alphabet", "ab", "--trace"), ""),
        (("tuple", "1,2,4", "--alphabet", "xyzw", "--word"), ""),
        (("tree", "epi", "--root", "1,2,4", "--alphabet", "ab"), ""),
        (("tree", "sb", "--root", "1,2,4", "--alphabet", "xyzw"), ""),
        (("find", "--root", "1,2,4", "--target", "3,8,16", "--alphabet", "ab"), ""),
        (("diagonal", "--side", "R", "--k", "1", "--root", "1,2,4", "--alphabet", "ab"), ""),
        # Construction finds the alphabet too large before the trace's first byte.
        (("tuple", "1,2,4", "--alphabet", "xyzw", "--trace", "--word"), ""),
        # Input bounds.
        (("christoffel", "40", "41", "--draw"), ""),
        (("exists", "--length", "7", "--k", "3", "--max", "-1"), ""),
        # An alphabet shorter than the tuple, even for the verdict alone.
        (("tuple", "1,2,4", "--alphabet", "ab"), ""),
    ],
)
def test_library_errors_exit_2_with_one_message(monkeypatch, args, stdout):
    monkeypatch.setattr("epiword.cli.MAX_WORD_LENGTH", 1000)
    result = run(*args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == stdout
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "args, stderr",
    [
        (("tuple", "13,1", "--trace", "--split", "--alphabet", "xyz"),
         "error: alphabet size 3 does not match tuple length 2\n"),
        (("tuple", "1048576,13,1", "--trace", "--word"), "error: word of length 1048590 exceeds the budget\n"),
        (("tuple", "2,3,7", "--trace", "--word"), "error: (2,3,7) is not admissible: negative entry\n"),
        (("tuple", "2,3,7", "--split"), "error: (2,3,7) is not admissible: negative entry\n"),
    ],
    ids=["split-alphabet", "word-over-budget", "rejected-trace-word", "rejected-split"],
)
def test_trace_with_a_refused_word_or_split_writes_nothing(args, stderr):
    # The trace used to be written first: 151 bytes, and 1,343,794 bytes.
    result = run(*args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr)


def test_draw_cap_applies_only_when_the_path_is_drawn(monkeypatch):
    monkeypatch.setattr("epiword.cli.MAX_WORD_LENGTH", 1000)
    assert run("christoffel", "30", "31", "--draw").exit_code == 0  # 31 * 32 cells
    result = run("christoffel", "40", "41", "--draw")
    assert result.stderr == "error: drawing of 1722 cells exceeds the budget\n"
    for args in (("40", "41"), ("40", "41", "--factorize"), ("40", "41", "--draw", "--format", "json")):
        assert run("christoffel", *args).exit_code == 0, args


def test_trace_keeps_working_with_a_larger_alphabet():
    result = run("tuple", "1,2,4", "--alphabet", "xyzw", "--trace")
    assert result.exit_code == 0
    assert result.output == "(1,2,4) ->z (1,2,1) ->y (1,0,1) ->z (1,0,0)\nadmissible\n"
    result = run("tuple", "13,1", "--trace", "--alphabet", "xyz")  # --split or --word would need exactly 2 letters
    steps = "".join(f" ->x ({n},1)" for n in range(12, -1, -1))
    assert (result.exit_code, result.stdout) == (0, f"(13,1){steps}\nadmissible\n")
    assert len(result.stdout) == 151
    result = run("tuple", "1,2,4", "--alphabet", "ab")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: alphabet size 2 is smaller than tuple length 3\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (("tree", "christoffel", "--root", "1,2,4"), "christoffel trees take no --root"),
        (("tree", "sb", "--alphabet", "ab"), "--alphabet needs --root"),
        (("diagonal", "--side", "L", "--k", "2", "--alphabet", "qq"), "--alphabet needs --root"),
    ],
    ids=["christoffel-root", "sb-alphabet", "diagonal-alphabet"],
)
def test_options_the_command_would_ignore_are_refused(args, message):
    result = run(*args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
    assert isinstance(result.exception, SystemExit)
