"""Run one benchmark workload against the epiword sources of this checkout.

    python3 bench/run.py --workload verdict --seed 1 --seconds 25 --trace 0

One caller runs the workload's ops in a closed loop, pass after pass over
its seeded input set, until ``--seconds`` have gone by and at least
``MIN_PASSES`` whole passes are done; the last pass may stop part way.
Every workload has at least 100 distinct ops, and the latency percentiles
are taken over the ops' best times.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones. With ``--trace 1`` untraced passes run for half
of the time and whole traced passes for the other half, and the metrics
are the per-layer ones from ``tracing``. The lines before it give the same
numbers for people, with the failed-op rate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verdict", "words", "sweep", "cli")
MIN_PASSES = 2
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_seconds(module: str) -> float:
    """Median time to import ``module`` in a fresh interpreter, timed inside it."""
    from workloads import cli_env

    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"

    def once() -> float:
        out = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                             text=True, check=True, timeout=60)
        return float(out.stdout)

    once()  # writes the bytecode caches
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def process_ms(code: str) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter, over 7 runs after a first."""
    from workloads import cli_env

    times = []
    for _ in range(8):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times[1:])


class Run:
    """Per-op best latency and the failures of one run.

    Each pass runs every op once. An op's latency is the least of its times
    over the run's passes: other tenants of a shared machine only ever add
    time, so the least is the steadiest estimate of what the op itself
    costs, and a first pass that pays for page faults does not count.
    Successive passes run on successive processors this process may use,
    so that a tenant slowing one processor for a while slows only some of
    the passes.
    """

    def __init__(self, ops, op_bound_s: float) -> None:
        self.ops = ops
        self.op_bound_s = op_bound_s
        self.first: dict[int, object] = {}
        self.best = [math.inf] * len(ops)
        self.done = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def passes(self, seconds: float, min_passes: int, tracer=None) -> None:
        """Run passes until ``seconds`` are up and ``min_passes`` whole passes are done.

        Once both hold, the run stops before the next op, even part way
        through a pass. Stopping only between passes would make the number
        of times each op runs, and so its best time, jump whenever the
        machine's speed moves a pass boundary across the deadline.
        """
        deadline = time.perf_counter() + seconds
        cpus = sorted(os.sched_getaffinity(0))
        try:
            while True:
                os.sched_setaffinity(0, {cpus[self.done % len(cpus)]})
                for i, op in enumerate(self.ops):
                    if self.done >= min_passes and time.perf_counter() >= deadline:
                        return
                    self._one(i, op, tracer)
                self.done += 1
        finally:
            os.sched_setaffinity(0, cpus)

    def throughput(self) -> float:
        """Ops per second of one caller running each op at its best time."""
        return len(self.ops) / sum(self.best)

    def _one(self, i: int, op, tracer) -> None:
        error = None
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed op is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.active = False
            tracer.flush()
        self.best[i] = min(self.best[i], elapsed)
        self.attempted += 1
        if error is None and elapsed > self.op_bound_s:
            error = f"took {elapsed:.1f} s"
        if error is None:
            error = self._verify(i, op, out)
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.label[:120]}: {error[:300]}")

    def _verify(self, i: int, op, out) -> str | None:
        try:
            if i in self.first:
                return None if op.digest(out) == self.first[i] else "output changed between passes"
            op.check(out)
            self.first[i] = op.digest(out)
        except Exception as exc:  # a wrong or malformed output is a failed op
            return f"{type(exc).__name__}: {exc}"
        return None


def end_to_end(run: Run, setup_s: float, children: bool) -> dict[str, float]:
    best = sorted(run.best)
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "throughput_ops_s": run.throughput(),
        "latency_p50_ms": 1e3 * statistics.median(best),
        "latency_p90_ms": 1e3 * statistics.quantiles(best, n=10)[-1],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def make_ops(name: str, seed: int, toy: bool = False, tracer=None):
    """The workload's ops; traced ``cli`` runs commands in-process, inside a span."""
    import workloads as W

    if name != "cli" or tracer is None:
        return W.build(name, seed, toy)

    def runner(argv):
        if not tracer.active:
            return W.run_cli_in_process(argv)
        with tracer.span("cli.command"):
            return W.run_cli_in_process(argv)

    return W.build(name, seed, toy, runner=runner)


def per_layer(name: str, seed: int, seconds: float, toy: bool = False) -> tuple[list[Run], dict[str, float]]:
    """Per-layer metrics from whole traced passes, after untraced ones for the overhead ratio."""
    import tracing
    import workloads as W

    tracer = tracing.Tracer()
    ops = make_ops(name, seed, toy, tracer)
    plain, traced = Run(ops, W.OP_BOUND_S), Run(ops, W.OP_BOUND_S)
    plain.passes(seconds / 2, 1)
    traced.first = plain.first
    deadline = time.perf_counter() + seconds / 2
    undo = tracing.install(tracer)
    try:
        # Only whole passes, so that the per-pass counters are exact.
        while traced.done == 0 or time.perf_counter() < deadline:
            traced.passes(0, traced.done + 1, tracer)
    finally:
        tracing.uninstall(undo)
    metrics = {key: fn(tracer, traced.done) for key, (_, _, fn) in tracing.PER_LAYER.items()}
    metrics["trace.throughput_ratio"] = traced.throughput() / plain.throughput()
    if name == "cli":
        floor = process_ms("pass")
        metrics["cli.interpreter_ms"] = floor
        metrics["cli.import_ms"] = process_ms("import epiword.cli") - floor
    else:
        metrics["cli.interpreter_ms"] = metrics["cli.import_ms"] = 0.0
    return [plain, traced], metrics


def units(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    import tracing

    out = {key: unit for key, (unit, _, _) in tracing.PER_LAYER.items()}
    out.update({key: unit for key, (unit, _) in tracing.MEASURED.items()})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "epiword" / "__init__.py").is_file():
        print(f"error: no epiword sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        runs, metrics = per_layer(args.workload, args.seed, args.seconds)
    else:
        from workloads import OP_BOUND_S

        setup_s = import_seconds("epiword.cli" if args.workload == "cli" else "epiword")
        runs = [Run(make_ops(args.workload, args.seed), OP_BOUND_S)]
        runs[0].passes(args.seconds, MIN_PASSES)
        metrics = end_to_end(runs[0], setup_s, children=args.workload == "cli")

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    names = units(bool(args.trace))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} ops/pass={len(runs[0].ops)} "
          f"passes={'+'.join(str(r.done) for r in runs)}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {names[key]}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    for failure in [f for r in runs for f in r.failures]:
        print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": names[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
