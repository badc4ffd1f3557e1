#!/usr/bin/env python3
"""Benchmark of the laakso library: distances, paths, the oracle and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  The
workloads are ``distance-pairs``, ``paths``, ``oracle-verify`` and ``cli``
(see ``bench/README.md``).  Ops run in this one process and thread, in
passes of a fixed make-up, each op timed on its own by the thread's CPU
clock and checked outside the timed region.  Set-up is timed in fresh
interpreters started one after the other, from before ``import laakso``
until the first op is ready.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` gives the per-layer metrics of a
traced run and writes its spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters whose set-up time gives the median ``setup_s``.
SETUP_PROBES = 9
#: A run ends after the first whole pass that finishes past the deadline,
#: but never with fewer passes than this.
MIN_PASSES = 3
#: Untraced and traced passes of a traced run.
TRACE_PASSES = 4
#: Failures printed in full to standard error.
SHOWN_FAILURES = 5


def probe_setup(name: str) -> None:
    """Child mode: time the imports and the workload's set-up."""
    start = time.perf_counter()
    import laakso  # noqa: F401  (the first import is part of set-up)
    import workloads

    workloads.WORKLOADS[name]().setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(name: str) -> float:
    """Set-up time of one fresh interpreter; this process waits meanwhile."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--probe-setup", name],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Tally:
    """Ops attempted and failed, with the first failures shown."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, item, out, problems) -> None:
        self.attempted += 1
        if isinstance(out, BaseException) or problems:
            self.failed += 1
            if self.failed <= SHOWN_FAILURES:
                print(f"op failed on {item!r}:", file=sys.stderr)
                if isinstance(out, BaseException):
                    traceback.print_exception(out, file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)


def timed_op(workload, item):
    """Run one op; its time is the CPU time of this thread.

    An op is single-threaded and never waits, so on a CPU of its own this is
    its wall time; it leaves out the time the host takes the virtual CPU
    away, which the guest kernel accounts as steal.
    """
    start = time.thread_time_ns()
    try:
        out = workload.op(item)
    except Exception as exc:  # an op that raises counts as failed
        out = exc
    return out, time.thread_time_ns() - start


def run_pass(workload, items, latencies, tally, tracer=None) -> float:
    """Time each op, check it untimed; return the pass throughput in ops/s."""
    gc.collect()
    busy_ns = 0
    for item in items:
        if tracer is None:
            out, elapsed = timed_op(workload, item)
        else:
            tracer.install()
            with tracer.span(tracer.OP):
                out, elapsed = timed_op(workload, item)
            tracer.uninstall()
        busy_ns += elapsed
        latencies.append(elapsed / 1e3)
        problems = [] if isinstance(out, Exception) else workload.check(item, out)
        tally.record(item, out, problems)
    return len(items) * 1e9 / busy_ns


def pass_rng(name: str, seed: int, index) -> random.Random:
    return random.Random(f"{name}/{seed}/{index}")


def warm_up(workload, seed: int, tally: Tally) -> None:
    """Prepare inputs and checks, then run a quarter pass untimed."""
    workload.prepare(seed)
    items = workload.inputs(pass_rng(workload.name, seed, "warmup"),
                            max(1, workload.units_per_pass // 4))
    run_pass(workload, items, array("d"), tally)


def end_to_end(workload, seed: int, seconds: float, tally: Tally) -> dict:
    workload.setup()
    warm_up(workload, seed, tally)
    units = workload.units_per_pass
    latencies = array("d")
    throughputs, pass_medians = [], []
    # set-up probes are spread over the run, so that a slow spell of the
    # machine does not catch all of them
    setups = []
    start = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() < start + seconds:
        if time.perf_counter() >= start + len(setups) * seconds / SETUP_PROBES:
            setups.append(measure_setup(workload.name))
        items = workload.inputs(pass_rng(workload.name, seed, index), units)
        if items is None:
            if index == 0:
                raise RuntimeError("not enough distinct inputs for one pass")
            break
        first = len(latencies)
        throughputs.append(run_pass(workload, items, latencies, tally))
        pass_medians.append(statistics.median(latencies[first:]))
        index += 1
    while len(setups) < SETUP_PROBES:
        setups.append(measure_setup(workload.name))
    wall = time.perf_counter() - start
    # the 98th percentile has ten samples beyond it from 500 ops per run
    tail = statistics.quantiles(latencies, n=50)[48]
    print(f"{workload.name}: {index} passes, {len(latencies)} timed ops in {wall:.1f} s, "
          f"{sum(latencies) / 1e6 / wall:.2f} of it op CPU time; pass throughputs "
          + " ".join(f"{t:.1f}" for t in throughputs), file=sys.stderr)
    # the slow tenth of the passes: the host lends spare speed in spells
    # whose share varies from run to run (README, Steadiness)
    slow_tenth = {"n": 10, "method": "inclusive"}
    return {
        "throughput_ops_s": (statistics.quantiles(throughputs, **slow_tenth)[0], "1/s"),
        "latency_p50_us": (statistics.quantiles(pass_medians, **slow_tenth)[8], "us"),
        "latency_p98_us": (tail, "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_run(workload, seed: int, tally: Tally) -> dict:
    """Per-layer metrics from TRACE_PASSES traced passes of fixed inputs.

    As many untraced passes over other inputs of the same make-up, run
    alternately with them, give the tracing overhead as a throughput ratio.
    """
    import laakso.cli  # noqa: F401  (every module is imported before wrapping)
    import laakso.oracle  # noqa: F401
    import spans

    tracer = spans.Tracer()
    tracer.install()
    with tracer.span(tracer.SETUP):
        workload.setup()
    tracer.uninstall()
    warm_up(workload, seed, tally)
    units = workload.units_per_pass
    plain, spanned = [], []
    for index in range(2 * TRACE_PASSES):  # alternate, so drifts in speed hit both
        items = workload.inputs(pass_rng(workload.name, seed, index), units)
        if index % 2:
            spanned.append(run_pass(workload, items, array("d"), tally, tracer))
        else:
            plain.append(run_pass(workload, items, array("d"), tally))
    metrics = tracer.per_layer()
    metrics["trace.throughput_ratio"] = (
        statistics.median(spanned) / statistics.median(plain), "ratio")
    out = BENCH / "out" / f"spans-{workload.name}-seed{seed}.csv.gz"
    tracer.write(out)
    print(f"{workload.name}: {len(tracer.name)} spans written to {out.relative_to(ROOT)}",
          file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "laakso" / "__init__.py").is_file():
        print(f"error: no laakso sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    tally = Tally()
    if args.trace:
        metrics = per_layer_run(workload, args.seed, tally)
    else:
        metrics = end_to_end(workload, args.seed, args.seconds, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
