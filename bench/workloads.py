"""Seeded inputs, timed calls and output checks for each benchmark workload.

A workload is a list of ``Op``s built from a seed. ``call`` is the only
part that is timed. ``check`` runs outside the timed region on the first
result of an op; later results of the same op are compared to the first
one by ``digest``. Checks use the independent answers in ``reference``
wherever they are cheap.

Library functions are looked up on the ``epiword`` package at call time,
so the traced run sees the wrappers it installs there.

Sizes are stratified: each workload walks a fixed grid of sizes spanning at
least a decade, and the seed picks the inputs inside each cell. That keeps
the mix of cheap and expensive ops the same from seed to seed, so medians
compare across seeds, while the inputs themselves differ.
"""

from __future__ import annotations

import io
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable

import epiword as E

import reference as R

# An op that takes longer than this counts as failed.
OP_BOUND_S = 10.0


class Mismatch(Exception):
    """An output differs from the expected one."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], Any] = hash


# ---------------------------------------------------------------- generators


@dataclass(frozen=True)
class Grown:
    """A tuple grown from the unit vector e_terminal by runs of inverse reduction."""

    counts: tuple[int, ...]
    growth: tuple[tuple[int, int], ...]
    terminal: int

    @property
    def steps(self) -> int:
        return sum(q for _, q in self.growth)


def geometric(rng: random.Random, mean: float) -> int:
    """Run length >= 1 with a geometric distribution of the given mean."""
    if mean <= 1:
        return 1
    return 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - 1.0 / mean))


def grow(rng: random.Random, k: int, total: int, mean_run: float = 1.0) -> Grown:
    """An admissible k-tuple of total at most ``total`` built by inverse reduction.

    Each run applies p_i += q * (sum of the others) for one index i, with q
    drawn from a geometric law of mean ``mean_run``. Runs visit every index
    once before repeating, so every letter occurs, and a run is cut short
    to stay within ``total``.
    """
    p = [0] * k
    terminal = rng.randrange(k)
    p[terminal] = 1
    unused = [i for i in range(k) if i != terminal]
    rng.shuffle(unused)
    growth = []
    last = terminal
    while True:
        i = unused.pop() if unused else rng.choice([j for j in range(k) if j != last])
        rest = sum(p) - p[i]
        # Each index still unused at least doubles the total; leave room for it.
        room = (total // (1 << len(unused)) - sum(p)) // rest
        if room < 1:
            break
        q = min(room, geometric(rng, mean_run))
        p[i] += q * rest
        growth.append((i, q))
        last = i
    return Grown(tuple(p), tuple(growth), terminal)


def log_grid(rng: random.Random, low: float, high: float, cells: int, jitter: float = 0.05) -> list[int]:
    """Centres of ``cells`` log-spaced cells from ``low`` to ``high``, each moved by up to ``jitter``.

    The grid fixes the sizes, which set the cost of an op; the seed only
    moves them a little, so the mix of cheap and costly ops, and with it
    the medians, stays the same from seed to seed.
    """
    span = math.log(high / low)
    return [round(low * math.exp(span * (c + 0.5) / cells) * rng.uniform(1 - jitter, 1 + jitter))
            for c in range(cells)]


def near_miss(rng: random.Random, counts: tuple[int, ...]) -> tuple[int, ...]:
    """The tuple with one entry moved by one, kept non-negative."""
    p = list(counts)
    i = rng.randrange(len(p))
    p[i] += 1 if p[i] <= 1 or rng.random() < 0.5 else -1
    return tuple(p)


def best_growth(rng: random.Random, k: int, total: int, mean_run: float = 1.0, key=sum) -> Grown:
    """Of 16 growths, the one with the largest ``key`` of its counts (by default its total).

    One growth stops anywhere between about half of ``total`` and all of
    it; the best of several keeps op costs close to the size grid.
    """
    return max((grow(rng, k, total, mean_run) for _ in range(16)), key=lambda g: key(g.counts))


def with_long_run(rng: random.Random, k: int, total: int, base_total: int, mean_run: float = 1.0) -> Grown:
    """A base grown to about ``base_total``, then one run on its smallest entry up to ``total``.

    This is the skew knob: the long run has about total / base_total
    steps, and the reduction takes it first. The base is picked for the
    sum of its other entries, which sets the length of the run.
    """
    base = best_growth(rng, k, base_total, mean_run, key=lambda c: sum(c) - min(c))
    i = min(range(k), key=base.counts.__getitem__)
    rest = sum(base.counts) - base.counts[i]
    q = max(1, (total - sum(base.counts)) // rest)
    p = list(base.counts)
    p[i] += q * rest
    return Grown(tuple(p), base.growth + ((i, q),), base.terminal)


def late_near_miss(counts: tuple[int, ...]) -> tuple[int, ...]:
    """Of the rejected tuples one entry away from ``counts``, the one rejected last."""
    best = (-1, counts)
    for i in range(len(counts)):
        for delta in (1, -1):
            p = list(counts)
            p[i] += delta
            if p[i] >= 0:
                verdict = R.reduce_tuple(tuple(p))
                if not verdict.admissible and verdict.steps > best[0]:
                    best = (verdict.steps, tuple(p))
    return best[1]


def coprime_pair(rng: random.Random, n: int, skewed: bool) -> tuple[int, int]:
    """Coprime (a, b) with a + b near n; skewed pairs have a small b."""
    while True:
        b = rng.randint(1, 4) if skewed else rng.randint(n // 4, n // 2)
        a = n - b
        if a > 0 and math.gcd(a, b) == 1:
            return a, b


def tree_seed(p: tuple[int, ...]) -> tuple[E.OccurrenceTuple, E.OccurrenceTuple]:
    """Split tuples (|u|, |v|) of the epichristoffel tree root of ``p``."""
    root = E.epichristoffel_tree(E.OccurrenceTuple(p))
    return E.parikh(root.u), E.parikh(root.v)


def as_str(word: E.Word) -> str:
    return "".join(map(chr, word.letters))


def word_digest(word: E.Word) -> int:
    return hash(word.letters)


# ------------------------------------------------------------------- verdict


def verdict_ops(rng: random.Random, toy: bool) -> list[Op]:
    """Admissibility plus trace rendering on large tuples with long runs.

    Each tuple is a base of total 2^(k+1) grown with short geometric runs,
    then one long run up to the cell's total. The reduction takes that run
    first, so the trace length grows linearly with the total, and a
    neighbour one entry away is only rejected after it.
    """
    cells, low, high = (2, 50, 500) if toy else (32, 1_000, 100_000)
    ops: list[Op] = []
    for k in (3, 4, 5):
        for cell, total in enumerate(log_grid(rng, low, high, cells)):
            g = with_long_run(rng, k, total, 2 << k, mean_run=2.0)
            ref = R.reduce_tuple(g.counts)
            if not ref.admissible or ref.steps != g.steps:
                raise RuntimeError(f"generator error: {g.counts} does not retrace its growth")
            # Every grown tuple meets a tie between two maxima at its last
            # step; a quarter of them also run under the other two policies.
            policies = R.POLICIES if cell % 4 == 0 else ("recent",)
            for policy in policies:
                ops.append(_verdict_op(g.counts, policy))
            ops.append(_verdict_op(late_near_miss(g.counts), "recent"))
    return ops


def _verdict_op(counts: tuple[int, ...], policy: str) -> Op:
    p = E.OccurrenceTuple(counts)
    want = R.reduce_tuple(counts, policy)

    def call():
        trace = E.admissibility(p, policy)
        return trace, E.format_trace(trace)

    def check(out) -> None:
        trace, text = out
        got = (trace.admissible, len(trace.steps), trace.terminal, trace.rejection)
        expect(got == (want.admissible, want.steps, want.terminal, want.rejection),
               f"verdict {got} != {want}")
        expect(text.startswith(str(p)) and text.count("->") == want.steps, "trace text")

    return Op(f"verdict {counts} {policy}", call, check, lambda out: hash(out[1]))


# --------------------------------------------------------------------- words


def words_ops(rng: random.Random, toy: bool) -> list[Op]:
    """Queries that build words: construction, split, tree roots, word tests, paths."""
    cells, low, high = (2, 20, 100) if toy else (12, 100, 10_000)
    ops: list[Op] = []
    for k in (3, 4, 5):
        for cell, total in enumerate(log_grid(rng, low, high, cells)):
            # Cycle through balanced tuples (runs of one), skewed ones whose
            # long run has about sqrt(total) steps, and skewed ones whose run
            # is a fixed share of the total, as in (1, 1, n): on those the
            # quadratic rewrite of construction shows in full.
            if cell % 3 == 0:
                g = best_growth(rng, k, total)
            elif cell % 3 == 1:
                g = with_long_run(rng, k, total, max(math.isqrt(total), 1 << k))
            else:
                g = with_long_run(rng, k, total, 2 << k)
            ops.extend(_word_ops(g))
    path_cells, path_low, path_high = (2, 30, 100) if toy else (12, 100, 3_000)
    for cell, total in enumerate(log_grid(rng, path_low, path_high, path_cells)):
        root = PATH_ROOTS[cell // 2 % len(PATH_ROOTS)]
        ops.extend(_path_ops(rng, root, total, skewed=cell % 2 == 1))
    slope_cells, slope_low, slope_high = (2, 20, 100) if toy else (12, 100, 10_000)
    for cell, n in enumerate(log_grid(rng, slope_low, slope_high, slope_cells)):
        ops.extend(_slope_ops(*coprime_pair(rng, n, skewed=cell % 2 == 1)))
    return ops


def _word_ops(g: Grown) -> list[Op]:
    k = len(g.counts)
    p = E.OccurrenceTuple(g.counts)
    alphabet = E.default_alphabet(k)
    epi = R.least_rotation(R.psi_word(list(g.growth), g.terminal, k))
    j = next(i for i in range(len(epi) - 1) if epi[i] != epi[i + 1])
    swapped = epi[:j] + epi[j + 1] + epi[j] + epi[j + 2 :]
    epi_word = E.Word(tuple(map(ord, epi)), alphabet)
    swapped_word = E.Word(tuple(map(ord, swapped)), alphabet)

    def check_construct(r) -> None:
        c = as_str(r.c_word)
        expect(R.letter_counts(c, k) == g.counts, "parikh(c_word) != p")
        expect(as_str(r.epi_word) == epi, "epi word is not the least rotation")
        expect(c[r.rotation_offset :] + c[: r.rotation_offset] == epi, "rotation offset")

    def check_split(s) -> None:
        c = E.construct(p).c_word
        expect(s.u + s.v == c, "u + v != c_word")
        expect(R.letter_counts(s.u.letters, k) == s.u_tuple.counts, "u tuple")
        expect(R.letter_counts(s.v.letters, k) == s.v_tuple.counts, "v tuple")

    def check_tree(node) -> None:
        expect(as_str(node.u) + as_str(node.v) == epi, "root u v != epi word")
        expect(len(node.u) > 0 and len(node.v) > 0, "empty root factor")

    def is_epi(word: E.Word, want: bool) -> Op:
        def check(got) -> None:
            expect(got is want, f"is_epichristoffel_word gave {got}")

        return Op(f"is_epi {g.counts} {want}", lambda: E.is_epichristoffel_word(word), check)

    label = str(g.counts)
    return [
        Op(f"construct {label}", lambda: E.construct(p), check_construct,
           lambda r: (word_digest(r.c_word), word_digest(r.epi_word))),
        Op(f"split {label}", lambda: E.canonical_split(p), check_split,
           lambda s: (word_digest(s.u), word_digest(s.v))),
        Op(f"tree {label}", lambda: E.epichristoffel_tree(p), check_tree,
           lambda n: (word_digest(n.u), word_digest(n.v))),
        is_epi(epi_word, True),
        is_epi(swapped_word, False),
    ]


# Fixed tree roots for path queries, so that the seed moves only the targets.
PATH_ROOTS = ((1, 2, 4), (1, 2, 4, 8), (1, 4, 2))
GOLDEN = (1 + 5 ** 0.5) / 2


def _path_ops(rng: random.Random, root: tuple[int, ...], total: int, skewed: bool) -> list[Op]:
    """Path and word queries to target = alpha*|u| + beta*|v| near ``total``.

    Skewed targets have beta = 1, so the path is one run of alpha - 1 steps
    L. Balanced ones have alpha/beta near the golden ratio, so the runs are
    short.
    """
    pu, pv = tree_seed(root)
    size_u, size_v = pu.total(), pv.total()
    if skewed:
        beta = 1
        alpha = max(2, (total - size_v) // size_u)
    else:
        beta = max(1, round(total / (size_u * GOLDEN + size_v)))
        alpha = round(beta * GOLDEN)
        while math.gcd(alpha, beta) != 1:
            alpha += 1
    k = len(root)
    target_counts = tuple(alpha * a + beta * b for a, b in zip(pu.counts, pv.counts))
    root_p, target = E.OccurrenceTuple(root), E.OccurrenceTuple(target_counts)
    want_path = R.sb_path(alpha, beta)

    def check_path(path) -> None:
        expect("".join(path) == want_path, "path differs from the Euclid walk")

    def check_word(word) -> None:
        expect(R.letter_counts(word.letters, k) == target_counts, "parikh(node.word) != target")

    label = f"{root}->{target_counts}"
    return [
        Op(f"path {label}", lambda: E.path_to_tuple(root_p, target), check_path, lambda p: hash(tuple(p))),
        Op(f"resolve {label}", lambda: E.resolve_epichristoffel(root_p, target), check_word, word_digest),
    ]


def _slope_ops(a: int, b: int) -> list[Op]:
    slope = E.Slope(a, b)
    want = R.christoffel(a, b)
    cut = R.christoffel_cut(a, b)

    def check_word(w) -> None:
        expect(as_str(w) == want, "christoffel word")

    def check_split(uv) -> None:
        u, v = uv
        expect(as_str(u) + as_str(v) == want and len(u) == cut, "standard factorization")

    return [
        Op(f"christoffel {a}/{b}", lambda: E.christoffel_word(slope), check_word, word_digest),
        Op(f"factorize {a}/{b}", lambda: E.standard_factorization(slope), check_split,
           lambda uv: (word_digest(uv[0]), word_digest(uv[1]))),
    ]


# --------------------------------------------------------------------- sweep


def sweep_ops(rng: random.Random, toy: bool) -> list[Op]:
    """Bulk integer generation: enumeration, mediant levels and diagonals."""
    ops: list[Op] = []
    # (k, smallest n, largest n, cells): enumeration cost grows like n^(k-1).
    grids = ((3, 16, 128, 20), (4, 6, 48, 15), (5, 5, 32, 10))
    for k, low, high, cells in grids:
        if toy:
            low, high, cells = low // 2 + 2, low + 4, 2
        # Cost grows steeply with n, so the seed moves n by one at most.
        for cell, n in enumerate(log_grid(rng, low, high, cells, jitter=0)):
            ops.append(_enumeration_op(n + rng.randint(-1, 1), k, all_letters=cell % 3 != 2))
    roots = [grow(rng, 3 + i % 2, rng.randint(12, 30)).counts for i in range(3)]
    seeds = [None] + [tree_seed(r) for r in roots]
    level_low, level_high = (4, 7) if toy else (8, 15)
    for i, count in enumerate(2 * list(range(level_low, level_high + 1))):
        ops.append(_levels_op(rng, seeds[i % len(seeds)], count))
    # A diagonal costs about as much as the first level holding its k-th
    # entry, so k stays well inside (2^j, 2^(j+1)).
    diag_levels = 3 if toy else 10
    for i in range(4 * diag_levels):
        k = round((3 << (i % diag_levels)) / 2 * rng.uniform(0.9, 1.1))
        ops.append(_diagonal_op(seeds[i % len(seeds)], rng.choice("LR"), k, 2 + i % 3))
    return ops


def _enumeration_op(n: int, k: int, all_letters: bool) -> Op:
    small = R.candidates(n, k, all_letters) <= 20_000

    def check(found) -> None:
        counts = [t.counts for t in found]
        low = 1 if all_letters else 0
        expect(all(sum(c) == n and min(c) >= low and len(c) == k for c in counts), "tuple shape")
        expect(counts == sorted(set(counts)), "not in strict lexicographic order")
        if k == 3 and all_letters and n <= 60:
            expect(len(counts) == R.ADMISSIBLE_COUNTS_4_TO_60[n - 4], "frozen admissible count")
        if small:
            expect(counts == R.admissible_tuples(n, k, all_letters), "brute-force enumeration")
        else:
            expect(all(R.reduce_tuple(c).admissible for c in counts), "inadmissible tuple listed")

    return Op(f"tuples_of_length {n} {k} {all_letters}", lambda: E.tuples_of_length(n, k, all_letters),
              check, lambda found: hash(tuple(t.counts for t in found)))


def _expected_entry(seed, frac: tuple[int, int]):
    if seed is None:
        return E.Fraction(*frac)
    return E.OccurrenceTuple(R.seeded_tuple(seed[0].counts, seed[1].counts, frac))


def _levels_op(rng: random.Random, seed, count: int) -> Op:
    pair = E.CLASSICAL_SEED if seed is None else seed
    probes = [rng.randrange(1 << (count - 1)) for _ in range(8)] + [0, (1 << (count - 1)) - 1]

    def check(levels) -> None:
        expect([lv.index for lv in levels] == list(range(1, count + 1)), "level indices")
        expect(all(len(lv.entries) == 1 << (lv.index - 1) for lv in levels), "level widths")
        last = levels[-1].entries
        for pos in probes:
            expect(last[pos] == _expected_entry(seed, R.sb_level_entry(count, pos)), f"entry {pos}")

    return Op(f"levels {count} {'classical' if seed is None else 'tuple'}",
              lambda: E.stern_brocot_levels(pair, count), check,
              lambda levels: hash(levels[-1].entries))


def _diagonal_op(seed, side: str, k: int, count: int) -> Op:
    pair = E.CLASSICAL_SEED if seed is None else seed
    fracs = R.diagonal_fractions(side, k, count)
    want = [_expected_entry(seed, f) for f in fracs]

    def call():
        return list(islice(E.diagonal(E.sb_level_stream(pair), side, k), count))

    def check(entries) -> None:
        expect(entries == want, "diagonal entries")
        expect(all(R.row_successor(side, a) == b for a, b in zip(fracs, fracs[1:])), "row successor")

    return Op(f"diagonal {side} {k} {count}", call, check, lambda e: hash(tuple(e)))


# ----------------------------------------------------------------------- cli


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    code: int
    stdout: str | None = None  # expected output, where it is cheap to know


def _render(word: str, symbols: str) -> str:
    return "".join(symbols[ord(c)] for c in word)


def cli_calls(rng: random.Random, rounds: int) -> list[CliCall]:
    """Small CLI calls, ``rounds`` times over every subcommand and output format.

    About a tenth of the calls expect exit 1 (rejected tuples, nothing
    found) and a tenth exit 2 (bad input).
    """

    def tup(c) -> str:
        return ",".join(map(str, c))

    calls: list[CliCall] = []
    for _ in range(rounds):
        a, b = coprime_pair(rng, rng.randint(8, 30), skewed=False)
        word = _render(R.christoffel(a, b), "xy")
        calls.append(CliCall(("christoffel", str(a), str(b)), 0, word + "\n"))
        for flag in ("--factorize", "--labels", "--draw"):
            calls.append(CliCall(("christoffel", str(a), str(b), flag), 0))
        calls.append(CliCall(("christoffel", str(a), str(b), "--format", "json"), 0))
        g = grow(rng, rng.choice((3, 4)), rng.randint(20, 200), mean_run=2.0)
        calls.append(CliCall(("tuple", tup(g.counts)), 0, "admissible\n"))
        for flag in ("--trace", "--word", "--split"):
            calls.append(CliCall(("tuple", tup(g.counts), flag), 0))
        root = tup(grow(rng, 3, rng.randint(7, 20)).counts)
        calls.append(CliCall(("tree", "christoffel", "--depth", str(rng.randint(2, 4))), 0))
        calls.append(CliCall(("tree", "christoffel", "--depth", "2", "--format", "json"), 0))
        calls.append(CliCall(("tree", "epi", "--root", root, "--depth", "2", "--format", "json"), 0))
        calls.append(CliCall(("tree", "epi", "--root", root, "--depth", "2", "--format", "dot"), 0))
        calls.append(CliCall(("tree", "sb", "--root", root, "--depth", "3"), 0))
        calls.append(CliCall(("tree", "sb", "--depth", "4", "--format", "dot"), 0))
        pu, pv = tree_seed(tuple(map(int, root.split(","))))
        alpha, beta = coprime_pair(rng, rng.randint(5, 12), skewed=False)
        target = tuple(alpha * x + beta * y for x, y in zip(pu.counts, pv.counts))
        calls.append(CliCall(("find", "--root", root, "--target", tup(target)), 0))
        n = rng.randint(10, 40)
        listed = R.admissible_tuples(n, 3, True)[:5]
        calls.append(CliCall(("exists", "--length", str(n), "--k", "3", "--all-letters", "--max", "5"),
                             0 if listed else 1, "".join(tup(t) + "\n" for t in listed)))
        calls.append(CliCall(("exists", "--length", str(rng.randint(6, 14)), "--k", "4"), 0))
        calls.append(CliCall(("apply", "psi_y psi_z psi_y", rng.choice(("x", "xy", "zyx"))), 0))
        calls.append(CliCall(("diagonal", "--side", rng.choice("LR"), "--k", str(rng.randint(1, 8)),
                              "--count", str(rng.randint(2, 5))), 0))
        calls.append(CliCall(("diagonal", "--side", rng.choice("LR"), "--k", str(rng.randint(1, 4)),
                              "--count", "3", "--root", root), 0))
        rejected = near_miss(rng, g.counts)
        while R.reduce_tuple(rejected).admissible:
            rejected = near_miss(rng, rejected)
        calls.append(CliCall(("tuple", tup(rejected)), 1, "rejected\n"))
        calls.append(CliCall(("tuple", tup(rejected), "--trace"), 1))
        calls.append(CliCall(("exists", "--length", "5", "--k", "3", "--all-letters"), 1, ""))
        calls.append(CliCall(("christoffel", str(2 * a), str(2 * b)), 2, ""))
        calls.append(CliCall(("tuple", f"1,{rng.randint(2, 9)},x"), 2, ""))
        calls.append(CliCall(("tree", "epi", "--depth", "2"), 2, ""))
        calls.append(CliCall(("find", "--root", root, "--target", tup(pu.counts)), 2, ""))
    return calls


def cli_env() -> dict[str, str]:
    src = os.path.dirname(os.path.dirname(E.__file__))
    return dict(os.environ, PYTHONPATH=src)


def run_cli_subprocess(argv: tuple[str, ...]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "epiword.cli", *argv], capture_output=True,
                          text=True, env=cli_env(), timeout=OP_BOUND_S)
    return proc.returncode, proc.stdout


def run_cli_in_process(argv: tuple[str, ...]) -> tuple[int, str]:
    """``main(args, standalone_mode=False)`` with the exit code click would give."""
    import click
    from epiword import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rv = cli.main(list(argv), standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
        except click.ClickException as exc:
            code = exc.exit_code
    return code, out.getvalue()


def cli_ops(rng: random.Random, toy: bool, runner=run_cli_subprocess) -> list[Op]:
    return [_cli_op(c, runner) for c in cli_calls(rng, 1 if toy else 4)]


def _cli_op(c: CliCall, runner) -> Op:
    def check(out) -> None:
        code, stdout = out
        expect(code == c.code, f"exit code {code}, expected {c.code}")
        if c.stdout is not None:
            expect(stdout == c.stdout, f"stdout {stdout[:80]!r}")
        elif c.code == 0:
            expect(bool(stdout.strip()), "empty stdout")

    return Op("epiword " + " ".join(c.argv), lambda: runner(c.argv), check)


OP_LISTS = {"verdict": verdict_ops, "words": words_ops, "sweep": sweep_ops, "cli": cli_ops}


def build(name: str, seed: int, toy: bool = False, **kwargs) -> list[Op]:
    """The op list of workload ``name`` for ``seed``, in a seeded order."""
    rng = random.Random(f"{name}:{seed}")
    ops = OP_LISTS[name](rng, toy, **kwargs)
    rng.shuffle(ops)
    return ops
