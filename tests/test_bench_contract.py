"""The benchmark in ``bench/`` still runs against the library.

``bench/`` reaches the library by name: its tracer wraps the functions that
``spans.TARGETS`` lists, and each workload's op and check call library
functions directly.  A rename or removal in ``src/`` that the benchmark
relies on fails here rather than in a benchmark run.  These tests only read
``bench/``.
"""

import importlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_span_target_resolves():
    # the tracer also counts branching entries through MSequence._extend
    extend = ("wormhole.MSequence.entries", ("laakso.wormhole", "MSequence"), "_extend")
    missing = []
    for name, owner, attr in (*spans.TARGETS, extend):
        if isinstance(owner, tuple):
            target = vars(getattr(importlib.import_module(owner[0]), owner[1])).get(attr)
        else:
            target = getattr(importlib.import_module(owner), attr, None)
        if not callable(target):
            missing.append(f"{name}: {owner} {attr}")
    assert not missing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_four_ops(name):
    workload = workloads.WORKLOADS[name]()
    workload.setup()
    workload.prepare(1)
    items = workload.inputs(random.Random(f"{name}/contract"), 2)[:4]
    assert len(items) == 4
    for item in items:
        assert workload.check(item, workload.op(item)) == [], item
