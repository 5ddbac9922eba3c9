"""Smoke run of the benchmark at toy sizes, so the harness cannot rot silently.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from epiword import OccurrenceTuple, admissibility, least_rotation  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_toy_pass_is_correct(name):
    r = run.Run(workloads.build(name, 7, toy=True), workloads.OP_BOUND_S)
    r.passes(0, 2)  # the second pass compares against the first
    assert r.attempted == 2 * len(r.ops) > 0
    assert r.failed == 0, r.failures


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_toy_traced_run_reports_every_layer_metric(name):
    runs, metrics = run.per_layer(name, 7, 0, toy=True)
    assert all(r.failed == 0 for r in runs), [r.failures for r in runs]
    assert set(metrics) == set(tracing.PER_LAYER) | set(tracing.MEASURED)
    assert metrics["trace.throughput_ratio"] > 0


def test_traced_counts_match_known_structure():
    _, metrics = run.per_layer("words", 3, 0, toy=True)
    assert metrics["trees.epichristoffel_tree.constructs_per_call"] == 3
    assert metrics["epichristoffel.is_epichristoffel_word.reductions_per_call"] == 2
    assert metrics["trees.node.expanded"] > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.units(False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.units(True)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_full_size_workloads_have_enough_ops_for_p90(name):
    assert len(workloads.build(name, 1)) >= 100


def test_inputs_depend_only_on_the_seed():
    labels = [[op.label for op in workloads.build("verdict", seed)] for seed in (5, 5, 6)]
    assert labels[0] == labels[1] != labels[2]


def test_reference_reducer_matches_the_library():
    for k, top in ((2, 14), (3, 12), (4, 7)):
        for counts in itertools.product(range(top), repeat=k):
            if not any(counts):
                continue
            for policy in reference.POLICIES:
                trace = admissibility(OccurrenceTuple(counts), policy)
                want = reference.reduce_tuple(counts, policy)
                assert (trace.admissible, len(trace.steps), trace.terminal, trace.rejection) == (
                    want.admissible, want.steps, want.terminal, want.rejection), (counts, policy)


def test_reference_oracles_on_known_values():
    assert reference.christoffel(4, 7) == "".join(map(chr, (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1)))
    assert reference.christoffel_cut(4, 7) == 3 and reference.christoffel_cut(5, 1) == 5
    assert reference.diagonal_fractions("L", 3, 3) == [(3, 2), (3, 5), (3, 8)]
    assert reference.sb_path(5, 2) == "LLR"
    assert reference.letter_counts(reference.psi_word([(1, 1), (2, 2)], 0, 3), 3) == (1, 1, 4)
    word = reference.psi_word([(2, 2), (1, 1)], 0, 3)
    w = workloads.E.Word(tuple(map(ord, word)), workloads.E.default_alphabet(3))
    assert workloads.as_str(least_rotation(w)[0]) == reference.least_rotation(word)


def test_command_prints_result_last():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "verdict", "--seed", "1",
                          "--seconds", "0", "--trace", "0"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= run.MIN_PASSES * 100
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
