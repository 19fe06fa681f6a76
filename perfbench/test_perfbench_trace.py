"""Trace integrity of the benchmark's traced run, on shortened workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench.workloads import WORKLOADS
from repro.models.base import Model

#: Rounds per workload: enough to reach every layer, small enough for
#: the test suite.
SHORT_ROUNDS = {"grid-quadratic": 2, "grid-mlp": 2, "league": 1, "gossip-ring": 2}


def _short(name):
    cls = WORKLOADS[name]
    return type(cls.__name__, (cls,), {"rounds": SHORT_ROUNDS[name]})()


def _traced(workload, seed=3):
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as patches:
        outcome = tracer.call(tracing.ROOT, workload.run_once, (seed,), {})
    return tracer, patches, outcome


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_byte_identical_and_unwrapped(name):
    workload = _short(name)
    untraced = workload.run_once(3)
    tracer, patches, traced = _traced(workload)
    assert workload.fingerprint(traced.result) == workload.fingerprint(
        untraced.result
    )
    assert patches and tracing.leftover_wrappers(patches) == []
    assert tracer.unknown_kernels() == []
    # Every second of the workload lands in exactly one span's self time.
    assert math.isclose(
        sum(tracer.self_time.values()), tracer.total[tracing.ROOT], rel_tol=1e-9
    )


def test_wrappers_are_removed_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()) as patches:
            raise RuntimeError("boom")
    assert tracing.leftover_wrappers(patches) == []


def test_a_missed_boundary_shows_as_unattributed(monkeypatch):
    # The attack-context full-data gradient is called straight from the
    # executor's round; without the Model wrappers it becomes executor
    # time, so the unattributed share must rise.
    workload = _short("grid-mlp")
    covered, _, _ = _traced(workload)
    every_target = tracing.targets
    monkeypatch.setattr(
        tracing,
        "targets",
        lambda: [
            target
            for target in every_target()
            if not (isinstance(target[0], type) and issubclass(target[0], Model))
        ],
    )
    missed, _, _ = _traced(workload)
    assert missed.unattributed_share() > covered.unattributed_share() + 0.05


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        tracing.per_layer_units()
    )
