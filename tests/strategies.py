"""Hypothesis strategies shared by the test modules."""

from hypothesis import assume
from hypothesis import strategies as st

from epiword import Alphabet, OccurrenceTuple

# 300 letters, so code points run past 255.
WIDE_ALPHABET = Alphabet("".join(map(chr, range(0x100, 0x100 + 300))))


@st.composite
def grown_tuples(draw, max_total=2000):
    """Admissible tuples grown from a unit vector by inverse reduction, in runs.

    A run (a, q) adds the sum of the other entries to entry a, q times, which
    gives a run of q equal atoms; entries never grown stay zero. Half the
    tuples have runs of at most 2, the others runs of up to 500.
    """
    k = draw(st.integers(2, 5))
    counts = [0] * k
    counts[draw(st.integers(0, k - 1))] = 1
    longest = draw(st.sampled_from((2, 500)))
    runs = st.tuples(st.integers(0, k - 1), st.integers(1, longest))
    for a, q in draw(st.lists(runs, min_size=1, max_size=20)):
        for _ in range(q):
            rest = sum(counts) - counts[a]
            if rest == 0 or sum(counts) + rest > max_total:
                break
            counts[a] += rest
    return OccurrenceTuple(tuple(counts))


@st.composite
def near_misses(draw, max_total=10_000):
    """A grown tuple with one entry moved by one, kept non-negative and nonzero."""
    counts = list(draw(grown_tuples(max_total)).counts)
    i = draw(st.integers(0, len(counts) - 1))
    counts[i] = max(0, counts[i] + draw(st.sampled_from((-1, 1))))
    assume(any(counts))
    return OccurrenceTuple(tuple(counts))
