"""Print every end-to-end and per-layer metric of every workload, by name and unit.

    python3 bench/report.py --seed 1

Runs ``bench/run.py`` once untraced and once traced per workload, each for
the ``run_seconds`` of ``BENCHMARK.json``, and prints the Python version,
git commit, processor count, seed and run length above the numbers.
``trace.throughput_ratio`` is the tracing overhead: traced over untraced
throughput.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    print(f"python={platform.python_version()} commit={git_commit()} nproc={os.cpu_count()} "
          f"seed={args.seed} seconds={seconds}")
    for workload in WORKLOADS:
        results = {trace: run_one(workload, args.seed, seconds, trace) for trace in (0, 1)}
        plain = results[0]
        rate = plain["failed"] / plain["attempted"]
        print(f"\n[{workload}] error_rate {rate:.6g} ({plain['failed']} of {plain['attempted']} ops failed)")
        for trace in (0, 1):
            for key, metric in results[trace]["metrics"].items():
                print(f"{workload:8} {key:58} {metric['value']:>14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
