"""Spans around the public functions of each epiword module, and the per-layer metrics.

``install`` replaces every public function of the layer modules with a
wrapper at every module binding that holds it, including the package
namespace and ``from .x import y`` re-bindings in ``trees`` and ``cli``.
``TreeNode.left``/``right`` are wrapped too, to count expanded nodes.
Generator functions get one span per ``next``.

Spans (name, start, end, parent) are kept in memory for one op, then
folded into per-name totals by ``Tracer.flush``: calls, self time (span
minus the part its child spans cover), counters read from arguments and
results, and counts of spans under a given ancestor.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import epiword
from epiword import christoffel, cli, epichristoffel, morphisms, trees, words

import reference

LAYERS = {
    "words": words,
    "christoffel": christoffel,
    "morphisms": morphisms,
    "epichristoffel": epichristoffel,
    "trees": trees,
    "cli": cli,
}
NAMESPACES = (epiword, *LAYERS.values())


_ENUMERATION = inspect.signature(epichristoffel.tuples_of_length)


def _enumeration_counts(args, kwargs, found) -> dict[str, int]:
    """Candidates, counted arithmetically from the arguments, and tuples accepted."""
    bound = _ENUMERATION.bind(*args, **kwargs)
    bound.apply_defaults()
    return {"candidates": reference.candidates(*bound.args), "accepted": len(found)}


# Counters read from (args, kwargs, result) when a span closes; a generator
# gets them for each item it yields.
COUNTERS = {
    "epichristoffel.admissibility": lambda a, kw, r: {"steps": len(r.steps)},
    "epichristoffel.construct": lambda a, kw, r: {"letters": len(r.c_word)},
    "epichristoffel.tuples_of_length": _enumeration_counts,
    "morphisms.apply": lambda a, kw, r: {"letters_out": len(r)},
    "morphisms.apply_atom": lambda a, kw, r: {"letters_out": len(r)},
    "words.least_rotation": lambda a, kw, r: {"letters": len(r[0])},
    "trees.path_to_tuple": lambda a, kw, r: {"path_steps": len(r)},
    "trees.diagonal": lambda a, kw, r: {"entries": 1},
}

# (ancestor, descendant) span pairs whose nesting is counted.
NESTED = (
    ("trees.diagonal", "trees.mediant"),
    ("trees.epichristoffel_tree", "epichristoffel.construct"),
    ("epichristoffel.is_epichristoffel_word", "epichristoffel.admissibility"),
)


class Tracer:
    """Span stack and per-name totals for one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent, counters]
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.nested: dict[tuple[str, str], int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI command."""
        self.calls[name] += 1
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def flush(self) -> None:
        """Fold the spans of the finished op into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, counters in spans:
            if parent >= 0:
                child[parent] += end - start
        names = [s[0] for s in spans]
        wanted = {d for _, d in NESTED}
        for i, (name, start, end, parent, counters) in enumerate(spans):
            self.self_s[name] += end - start - child[i]
            if counters:
                for key, value in counters.items():
                    self.counts[name, key] += value
            if name in wanted:
                ancestors = set()
                p = parent
                while p >= 0:
                    ancestors.add(names[p])
                    p = spans[p][3]
                for outer, inner in NESTED:
                    if inner == name and outer in ancestors:
                        self.nested[outer, inner] += 1
        spans.clear()


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            tracer.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                if counter:
                    tracer.spans[idx][4] = counter(args, kwargs, item)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.calls[name] += 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter:
            tracer.spans[idx][4] = counter(args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every public function at every binding; returns what ``uninstall`` restores."""
    undo = []
    for layer, module in LAYERS.items():
        public = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        for attr in public:
            fn = getattr(module, attr, None)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapped = _wrap(tracer, f"{layer}.{attr}", fn)
            for ns in NAMESPACES:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        undo.append((ns, key, value))
                        setattr(ns, key, wrapped)
    for side in ("left", "right"):
        original = getattr(trees.TreeNode, side)
        undo.append((trees.TreeNode, side, original))
        setattr(trees.TreeNode, side, _wrap(tracer, f"trees.node.{side}", original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


# Per-layer metrics: name -> (unit, better, value from (tracer, passes)).
# Calls, counts and self time are per pass over the workload's input set,
# so counts repeat exactly for a seed.


def _calls(name):
    return lambda t, n: t.calls.get(name, 0) / n


def _self_ms(name):
    return lambda t, n: 1e3 * t.self_s.get(name, 0.0) / n


def _count(name, key):
    return lambda t, n: t.counts.get((name, key), 0) / n


def _ratio(top, bottom):
    return lambda t, n: top(t, n) / bottom(t, n) if bottom(t, n) else 0.0


def _per_call(outer, inner):
    return lambda t, n: t.nested.get((outer, inner), 0) / t.calls[outer] if t.calls.get(outer) else 0.0


def _basic(name, *keys):
    out = {
        f"{name}.calls": ("1/pass", "lower", _calls(name)),
        f"{name}.self_ms": ("ms/pass", "lower", _self_ms(name)),
    }
    for key in keys:
        out[f"{name}.{key}"] = ("1/pass", "lower", _count(name, key))
    return out


def _expanded(t, n):
    return (t.calls.get("trees.node.left", 0) + t.calls.get("trees.node.right", 0)) / n


PER_LAYER = {
    **_basic("epichristoffel.admissibility", "steps"),
    **_basic("epichristoffel.format_trace"),
    **_basic("epichristoffel.tuples_of_length", "candidates", "accepted"),
    "epichristoffel.tuples_of_length.accept_ratio": (
        "ratio", "higher",
        _ratio(_count("epichristoffel.tuples_of_length", "accepted"),
               _count("epichristoffel.tuples_of_length", "candidates"))),
    **_basic("epichristoffel.construct", "letters"),
    **_basic("epichristoffel.canonical_split"),
    **_basic("epichristoffel.split_construction"),
    **_basic("epichristoffel.is_epichristoffel_word"),
    "epichristoffel.is_epichristoffel_word.reductions_per_call": (
        "ratio", "lower",
        _per_call("epichristoffel.is_epichristoffel_word", "epichristoffel.admissibility")),
    **_basic("morphisms.apply", "letters_out"),
    **_basic("morphisms.apply_atom", "letters_out"),
    **_basic("words.least_rotation", "letters"),
    **_basic("words.parikh"),
    **_basic("trees.mediant"),
    **_basic("trees.sb_level_stream"),
    **_basic("trees.stern_brocot_levels"),
    **_basic("trees.diagonal", "entries"),
    "trees.diagonal.useful_ratio": (
        "ratio", "higher",
        _ratio(_count("trees.diagonal", "entries"),
               lambda t, n: t.nested.get(("trees.diagonal", "trees.mediant"), 0) / n)),
    **_basic("trees.epichristoffel_tree"),
    "trees.epichristoffel_tree.constructs_per_call": (
        "ratio", "lower", _per_call("trees.epichristoffel_tree", "epichristoffel.construct")),
    **_basic("trees.path_to_tuple", "path_steps"),
    **_basic("trees.resolve_epichristoffel"),
    "trees.node.expanded": ("1/pass", "lower", _expanded),
    **_basic("christoffel.christoffel_word"),
    **_basic("christoffel.standard_factorization"),
    **_basic("christoffel.path_labels"),
    **_basic("christoffel.path_points"),
    **_basic("cli.command"),
}

# Per-layer metrics measured by the benchmark rather than read from spans.
MEASURED = {
    "cli.interpreter_ms": ("ms", "lower"),  # bare `python -c pass`
    "cli.import_ms": ("ms", "lower"),  # `import epiword.cli` above that floor
    "trace.throughput_ratio": ("ratio", "higher"),  # traced / untraced throughput
}
