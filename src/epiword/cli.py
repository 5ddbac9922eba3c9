"""Command-line front door.

Exit codes: 0 success, 1 valid-but-negative answer (rejected tuple, no
tuples found), 2 input or domain error: every library error (EpiwordError,
ValueError) exits 2 with ``error: <message>`` from one handler on the group.
The size rules are the library's, checked before anything of the refused
output is written: word lengths in each module, word and Stern-Brocot trees in
``trees``, traces in ``epichristoffel``. Only the ``christoffel --draw`` grid
is bounded here.

Each command imports the library modules it runs when it runs, so a process
loads only those: ``christoffel`` never loads the trees or the reduction.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

import click

from .errors import EpiwordError, WordLengthOverflow
from .words import MAX_WORD_LENGTH, Alphabet, OccurrenceTuple, default_alphabet, parikh

if TYPE_CHECKING:
    from .christoffel import Slope
    from .trees import TreeNode


def _alphabet_for(k: int, symbols: str | None) -> Alphabet:
    return Alphabet(symbols) if symbols else default_alphabet(k)


def _seed(root_counts: str | None, symbols: str | None) -> tuple:
    """The classical fraction seed, or the split tuples of the epi tree rooted at ROOT_COUNTS."""
    from .trees import CLASSICAL_SEED, epichristoffel_tree

    if root_counts is None:
        if symbols is not None:
            raise ValueError("--alphabet needs --root")
        return CLASSICAL_SEED
    p = OccurrenceTuple.parse(root_counts)
    root = epichristoffel_tree(p, _alphabet_for(p.k, symbols))
    return parikh(root.u), parikh(root.v)


def _write(pieces: Iterable[str]) -> None:
    """Write each piece to the stdout stream ``click.echo`` uses as it is produced, with one flush at the end."""
    out = click.get_text_stream("stdout", errors=None)
    out.writelines(pieces)
    out.flush()


def _word_tree_pieces(root: TreeNode, depth: int, fmt: str, alphabet: Alphabet) -> Iterator[str]:
    """A word tree as text, dot, or json as ``json.dumps`` writes {alphabet, root: {u, v, tuple, children}}."""
    import json

    from .trees import _preorder

    head = f'{{"alphabet": {json.dumps(alphabet.symbols)}, "root": '
    yield {"text": "", "dot": "digraph tree {\n", "json": head}[fmt]
    for entering, u, v, path in _preorder(str(root.u), str(root.v), depth):
        if fmt == "json" and entering:
            counts = ", ".join([str(u.count(s) + v.count(s)) for s in alphabet.symbols])
            sep = ", " if path[-1] == "R" else ""
            yield f'{sep}{{"u": {json.dumps(u)}, "v": {json.dumps(v)}, "tuple": [{counts}], "children": ['
        elif fmt == "json":
            yield "]}"
        elif fmt == "text" and entering:
            yield f"{'  ' * (len(path) - 1)}({u}, {v})\n"
        elif entering:
            yield f'  "{path}" [label="({u}, {v})"];\n'
        elif fmt == "dot" and len(path) > 1:
            yield f'  "{path[:-1]}" -> "{path}";\n'
    yield "" if fmt == "text" else "}\n"


def _sb_pieces(levels: Iterable, fmt: str) -> Iterator[str]:
    """The text, dot or json form of Stern-Brocot levels, a level at a time."""
    import json

    yield {"text": "", "json": '{"levels": [', "dot": "digraph sb {\n"}[fmt]
    for level in levels:
        if fmt == "text":
            yield f"level {level.index}: " + ", ".join(map(str, level.entries)) + "\n"
        elif fmt == "json":
            sep = ", " if level.index > 1 else ""
            yield sep + "[" + ", ".join(json.dumps(str(e)) for e in level.entries) + "]"
        else:
            # Level i entry p has children 2p and 2p+1 on level i+1.
            lines = []
            for pos, entry in enumerate(level.entries):
                lines.append(f'  "n{level.index}_{pos}" [label="{entry}"];\n')
                if level.index > 1:
                    lines.append(f'  "n{level.index - 1}_{pos // 2}" -> "n{level.index}_{pos}";\n')
            yield "".join(lines)
    yield {"text": "", "json": "]}\n", "dot": "}\n"}[fmt]


def _draw_path(slope: Slope) -> str:
    from .christoffel import path_points

    cells = (slope.a + 1) * (slope.b + 1)
    if cells > MAX_WORD_LENGTH:
        raise WordLengthOverflow(f"drawing of {cells} cells exceeds the budget")
    points = set(path_points(slope))
    rows = []
    for j in range(slope.a, -1, -1):
        rows.append(" ".join("*" if (i, j) in points else "." for i in range(slope.b + 1)))
    return "\n".join(rows)


class _Group(click.Group):
    """The one error path: library errors exit 2 with ``error: <message>``."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (EpiwordError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Group)
def main() -> None:
    """Christoffel and epichristoffel word toolkit."""


@main.command("christoffel")
@click.argument("a", type=int)
@click.argument("b", type=int)
@click.option("--factorize", is_flag=True, help="Print the standard two-factor split.")
@click.option("--labels", is_flag=True, help="Print the path point labels as exact fractions.")
@click.option("--draw", is_flag=True, help="Draw the lattice path in ASCII.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--alphabet", "symbols", default=None, help="Two symbols, e.g. ab.")
def christoffel_cmd(
    a: int, b: int, factorize: bool, labels: bool, draw: bool, fmt: str, symbols: str | None
) -> None:
    """Christoffel word of slope A/B."""
    from .christoffel import Slope, christoffel_word, path_labels, standard_factorization

    alphabet = _alphabet_for(2, symbols)
    if alphabet.size != 2:
        raise ValueError("christoffel words need a two-letter alphabet")
    slope = Slope(a, b)
    word = christoffel_word(slope, alphabet)
    split = standard_factorization(slope, alphabet) if factorize else None
    label_seq = path_labels(slope, alphabet) if labels else None
    if fmt == "json":
        import json

        payload: dict = {"slope": str(slope), "word": str(word)}
        if split:
            payload["factorization"] = [str(split[0]), str(split[1])]
        if label_seq:
            payload["labels"] = [str(l) for l in label_seq]
        click.echo(json.dumps(payload))
        return
    if not factorize and not labels and not draw:
        click.echo(str(word))
        return
    if draw:
        click.echo(_draw_path(slope))
        click.echo(str(word))
    if factorize:
        click.echo(f"({split[0]}, {split[1]})")
    if labels:
        click.echo(" ".join(str(l) for l in label_seq))


@main.command("tuple")
@click.argument("counts")
@click.option("--trace", "show_trace", is_flag=True, help="Print the reduction trace.")
@click.option("--word", "show_word", is_flag=True, help="Print the constructed and canonical words.")
@click.option("--split", "show_split", is_flag=True, help="Print the canonical two-factor split.")
@click.option("--alphabet", "symbols", default=None, help="Alphabet symbols, e.g. xyz.")
def tuple_cmd(counts: str, show_trace: bool, show_word: bool, show_split: bool, symbols: str | None) -> None:
    """Admissibility verdict for the occurrence tuple COUNTS (e.g. 1,2,4)."""
    from .epichristoffel import _construction, _trace_pieces, admissibility, split_construction

    p = OccurrenceTuple.parse(counts)
    alphabet = _alphabet_for(p.k, symbols)
    if alphabet.size < p.k:
        raise ValueError(f"alphabet size {alphabet.size} is smaller than tuple length {p.k}")
    trace = admissibility(p)
    if (show_word or show_split) and not trace.admissible:
        raise ValueError(f"{p} is not admissible: {trace.rejection}")
    if show_word or show_split:  # built from the verdict's trace before the first byte, so a refusal writes nothing
        result = _construction(trace, alphabet)
        split = split_construction(result) if show_split else None
    if show_trace:
        _write(chain(_trace_pieces(trace, alphabet.symbols), ["\n"]))
        click.echo("admissible" if trace.admissible else "rejected")
    if show_word:
        click.echo(f"c: {result.c_word} / epi: {result.epi_word}")
    if show_split:
        click.echo(f"({split.u}, {split.v})")
    if not (show_trace or show_word or show_split):
        click.echo("admissible" if trace.admissible else "rejected")
    if not trace.admissible:
        sys.exit(1)


@main.command("tree")
@click.argument("kind", type=click.Choice(["christoffel", "epi", "sb"]))
@click.option("--root", "root_counts", default=None, help="Root tuple for epi and sb trees.")
@click.option("--depth", type=int, default=3, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "dot"]), default="text")
@click.option("--alphabet", "symbols", default=None, help="Alphabet symbols, e.g. xyz.")
def tree_cmd(kind: str, root_counts: str | None, depth: int, fmt: str, symbols: str | None) -> None:
    """Emit a tree of the chosen KIND."""
    from .trees import _check_sb_levels, _check_word_tree, christoffel_tree, epichristoffel_tree, sb_level_stream

    if depth < 0:
        raise ValueError("depth must be non-negative")
    if kind == "sb":
        _check_sb_levels(depth)
        # Stern-Brocot: classical fractions, or the tuple tree of an epi root.
        _write(_sb_pieces(islice(sb_level_stream(_seed(root_counts, symbols)), depth), fmt))
        return
    if kind == "christoffel":
        if root_counts is not None:
            raise ValueError("christoffel trees take no --root")
        alphabet = _alphabet_for(2, symbols)
        root = christoffel_tree(alphabet)
    elif root_counts is None:
        raise ValueError("epi trees need --root")
    else:
        p = OccurrenceTuple.parse(root_counts)
        alphabet = _alphabet_for(p.k, symbols)
        root = epichristoffel_tree(p, alphabet)
    _check_word_tree(root, depth)
    _write(_word_tree_pieces(root, depth, fmt, alphabet))


@main.command("find")
@click.option("--root", "root_counts", required=True, help="Root tuple of the tree.")
@click.option("--target", "target_counts", required=True, help="Tuple to locate.")
@click.option("--alphabet", "symbols", default=None, help="Alphabet symbols, e.g. xyz.")
def find_cmd(root_counts: str, target_counts: str, symbols: str | None) -> None:
    """Path from the tree root to TARGET and the word found there."""
    from .trees import _walk_to_tuple

    p = OccurrenceTuple.parse(root_counts)
    target = OccurrenceTuple.parse(target_counts)
    path, node = _walk_to_tuple(p, target, _alphabet_for(p.k, symbols))
    click.echo(" ".join(path) if path else "(root)")
    click.echo(str(node.word))


@main.command("exists")
@click.option("--length", "n", type=int, required=True)
@click.option("--k", type=int, default=3, show_default=True)
@click.option("--all-letters", is_flag=True, help="Require every letter to occur.")
@click.option("--max", "limit", type=int, default=None, help="Print at most this many tuples.")
def exists_cmd(n: int, k: int, all_letters: bool, limit: int | None) -> None:
    """List admissible K-tuples whose entries sum to LENGTH."""
    from .epichristoffel import _listing

    if n < 1 or k < 2:
        raise ValueError("need --length >= 1 and --k >= 2")
    if limit is not None and limit < 0:
        raise ValueError("need --max >= 0")
    found = _listing(n, k, all_letters, limit)
    _write(",".join(map(str, counts)) + "\n" for counts in islice(found, limit))
    if not found:
        sys.exit(1)


@main.command("apply")
@click.argument("morphisms")
@click.argument("word")
@click.option("--alphabet", "symbols", default="xyz", show_default=True)
def apply_cmd(morphisms: str, word: str, symbols: str) -> None:
    """Apply a morphism sequence such as "psi_y psi_z psi_y" to WORD."""
    from .morphisms import apply as apply_morphisms
    from .morphisms import parse_morphisms

    alphabet = _alphabet_for(len(symbols), symbols)
    seq = parse_morphisms(morphisms, alphabet)
    click.echo(str(apply_morphisms(seq, alphabet.word(word))))


@main.command("diagonal")
@click.option("--side", type=click.Choice(["L", "R"]), required=True)
@click.option("--k", type=int, required=True)
@click.option("--count", type=int, default=5, show_default=True)
@click.option("--root", "root_counts", default=None, help="Tuple tree root; omit for fractions.")
@click.option("--alphabet", "symbols", default=None, help="Alphabet symbols, e.g. xyz.")
def diagonal_cmd(side: str, k: int, count: int, root_counts: str | None, symbols: str | None) -> None:
    """Stream diagonal entries of a Stern-Brocot tree, one per line.

    Each entry comes from Stern's diatomic sequence: O(log K + COUNT)
    integer steps in all, with no tree level built, whatever the size of K.
    """
    from .trees import diagonal, sb_level_stream

    if k < 1 or count < 1:
        raise ValueError("need --k >= 1 and --count >= 1")
    seed = _seed(root_counts, symbols)
    for entry in islice(diagonal(sb_level_stream(seed), side, k), count):
        click.echo(str(entry))


if __name__ == "__main__":
    main()
