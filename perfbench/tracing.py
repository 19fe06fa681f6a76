"""Per-layer tracing for the benchmark's traced run.

The program has no tracing of its own, so the benchmark records spans
from outside: :func:`installed` replaces each layer's public entry
points with a timing wrapper at class (or module) level, and puts the
originals back when the block exits, even on error.  A wrapper only
reads ``perf_counter`` and calls through, so the traced run computes
exactly what the untraced one does; the benchmark checks that its final
parameters are byte-identical.

Spans nest: a span's *self* time is its duration minus the time of the
spans it caused.  A call into a span of the same name as the innermost
open one (``super()`` chains, a composite attack crafting through its
parts, Kardam filtering through Krum) is folded into that span.
"""

from __future__ import annotations

import functools
import types
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import repro.engine.runner as engine_runner
import repro.tournament.runner as tournament_runner
from repro.attacks.base import Attack
from repro.core.aggregator import Aggregator
from repro.core.batched import BatchedAggregator, LoopBatchedAggregator
from repro.distributed.simulator import TrainingSimulation
from repro.engine.simulation import BatchedSimulation
from repro.gradients.minibatch import MinibatchEstimator
from repro.gradients.oracle import GaussianOracleEstimator
from repro.models.base import Model
from repro.models.quadratic import QuadraticBowl
from repro.servers.replication import ReplicatedServerGroup
from repro.topology.base import Topology
from repro.topology.gossip import GossipSimulation
from repro.tournament import TournamentRunner

from perfbench.workloads import NATIVE_RULES

ROOT = "bench.workload"

#: Executor spans: the code that sequences layer calls.  Their self time
#: is time no layer boundary claims — what ``trace.unattributed_share``
#: reports — so an unwrapped hot call shows up there.
ORCHESTRATION = (
    ROOT, "engine.grid", "engine.round", "topology.run", "tournament.run"
)

#: Ceiling on ``trace.unattributed_share`` per workload.  Measured
#: shares on a 2-CPU x86 host: grid-quadratic 0.12, grid-mlp 0.07,
#: league 0.18, gossip-ring 0.48 (the gossip event handlers are private
#: methods, so their own work stays executor time).
UNATTRIBUTED_CEILING = {
    "grid-quadratic": 0.25,
    "grid-mlp": 0.20,
    "league": 0.35,
    "gossip-ring": 0.65,
}


class Tracer:
    """Aggregates spans by name: calls, total time and self time."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, seconds of child spans]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.round_seconds: list[float] = []
        self.batches = 0
        self.batched_cells = 0
        self.native_cells = 0.0

    @property
    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        if self._stack and self._stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.calls[name] += 1
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
            if name == "engine.round":
                self.round_seconds.append(elapsed)

    def unattributed_share(self) -> float:
        executor = sum(self.self_time[name] for name in ORCHESTRATION)
        return executor / self.total[ROOT]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, every one present (0 when the
        workload never reached that layer)."""
        rounds_ms = np.asarray(self.round_seconds) * 1e3
        out: dict[str, float] = {
            "engine.round_ms.p50": _percentile(rounds_ms, 50),
            "engine.round_ms.p90": _percentile(rounds_ms, 90),
            "engine.round_samples": len(rounds_ms),
            "engine.self_s": self.self_time["engine.round"],
            "engine.build_s": self.total["engine.build"],
            "engine.build_calls": self.calls["engine.build"],
            "engine.batches": self.batches,
            "engine.cells_per_batch": (
                self.batched_cells / self.batches if self.batches else 0.0
            ),
        }
        for span in (
            "gradients.noise",
            "gradients.minibatch",
            "models.quadratic",
            "distributed.eval",
            "attacks.craft",
            "core.fallback",
            "core.rule",
            "servers.view",
            "topology.neighbors",
        ):
            out[f"{span}_calls"] = self.calls[span]
            out[f"{span}_s"] = self.total[span]
        for context in ("minibatch", "attack_context", "eval"):
            out[f"models.gradient_s.{context}"] = self.total[
                f"models.gradient.{context}"
            ]
        for rule in NATIVE_RULES:
            out[f"core.kernel_s.{rule}"] = self.total[f"core.kernel.{rule}"]
            out[f"core.kernel_calls.{rule}"] = self.calls[f"core.kernel.{rule}"]
        out["core.native_fraction"] = (
            self.native_cells / self.batched_cells if self.batched_cells else 0.0
        )
        out["topology.run_self_s"] = self.self_time["topology.run"]
        out["tournament.grids"] = self.calls["engine.grid"]
        return out

    def unknown_kernels(self) -> list[str]:
        """Kernel spans whose rule has no per-layer metric."""
        known = {f"core.kernel.{rule}" for rule in NATIVE_RULES}
        return sorted(
            name
            for name in self.calls
            if name.startswith("core.kernel.") and name not in known
        )


#: Per-layer metrics of the traced run as a whole, not of one span.
RUN_METRICS = (
    "tournament.failed_cells",
    "trace.overhead_ratio",
    "trace.unattributed_share",
)


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in output order."""
    return {name: _unit(name) for name in [*Tracer().metrics(), *RUN_METRICS]}


def _unit(name: str) -> str:
    if name.startswith("engine.round_ms"):
        return "ms"
    if name == "engine.cells_per_batch":
        return "cells"
    if name == "core.native_fraction" or name.startswith("trace."):
        return "ratio"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


# ----------------------------------------------------------------------
# Span names


def _kernel_span(tracer: Tracer, args: tuple) -> str:
    # A rule's name carries its parameters, e.g. "multi-krum(f=3,m=5)".
    return "core.kernel." + args[0].aggregator.name.split("(")[0]


def _model_span(tracer: Tracer, args: tuple) -> str:
    """Dataset-model work, split by the span that caused it."""
    parent = tracer.parent
    if parent == "gradients.minibatch":
        return "models.gradient.minibatch"
    if parent == "distributed.eval":
        return "models.gradient.eval"
    if parent is not None and parent.startswith("models.gradient."):
        return parent
    # The executor asks for the full-data gradient while building each
    # round's attack context.
    return "models.gradient.attack_context"


def _subclasses(base: type) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def _methods(base: type, attrs: tuple[str, ...], skip: type | None):
    """Every concrete definition of ``attrs`` in ``base``'s class tree."""
    for cls in _subclasses(base):
        if skip is not None and issubclass(cls, skip):
            continue
        for attr in attrs:
            fn = cls.__dict__.get(attr)
            if isinstance(fn, types.FunctionType) and not getattr(
                fn, "__isabstractmethod__", False
            ):
                yield cls, attr


#: Class trees whose every override of a method is a layer boundary:
#: (base, methods, span name or namer, subtree to leave out).
_TREES = (
    (Model, ("gradient", "loss", "loss_and_gradient"), _model_span, QuadraticBowl),
    (Attack, ("craft",), "attacks.craft", None),
    (
        Aggregator,
        ("aggregate", "aggregate_detailed", "aggregate_detailed_stale"),
        "core.rule",
        None,
    ),
    (BatchedAggregator, ("aggregate_batch",), _kernel_span, LoopBatchedAggregator),
    (Topology, ("neighbors",), "topology.neighbors", None),
)


def _count_batch(tracer: Tracer, batch: BatchedSimulation) -> None:
    tracer.batches += 1
    tracer.batched_cells += batch.batch_size
    tracer.native_cells += batch.native_fraction * batch.batch_size


def targets() -> list[tuple[object, str, str | Callable, Callable | None]]:
    """``(owner, attribute, span name or namer, after-hook)`` for every
    boundary; the hook gets the tracer and the call's first argument."""
    out: list[tuple[object, str, str | Callable, Callable | None]] = [
        (BatchedSimulation, "run_round", "engine.round", None),
        (BatchedSimulation, "__init__", "engine.build", _count_batch),
        (engine_runner, "build_scenario_simulation", "engine.build", None),
        (engine_runner, "build_gossip_simulation", "engine.build", None),
        (engine_runner, "make_workload", "engine.build", None),
        (tournament_runner, "run_grid", "engine.grid", None),
        (TournamentRunner, "run", "tournament.run", None),
        (GaussianOracleEstimator, "sample_about", "gradients.noise", None),
        (MinibatchEstimator, "gradient_at", "gradients.minibatch", None),
        (MinibatchEstimator, "draw_indices", "gradients.minibatch_draw", None),
        (QuadraticBowl, "exact_gradient", "models.quadratic", None),
        (QuadraticBowl, "value", "models.quadratic", None),
        (TrainingSimulation, "evaluate_record", "distributed.eval", None),
        (LoopBatchedAggregator, "aggregate_batch", "core.fallback", None),
        (ReplicatedServerGroup, "corrupted_view", "servers.view", None),
        (GossipSimulation, "run", "topology.run", None),
    ]
    for base, attrs, span, skip in _TREES:
        out += [
            (cls, attr, span, None) for cls, attr in _methods(base, attrs, skip)
        ]
    return out


def _wrap(
    tracer: Tracer,
    original: Callable,
    span: str | Callable,
    after: Callable | None,
) -> Callable:
    def wrapper(*args, **kwargs):
        name = span(tracer, args) if callable(span) else span
        result = tracer.call(name, original, args, kwargs)
        if after is not None:
            after(tracer, args[0])
        return result

    return functools.update_wrapper(wrapper, original)


@contextmanager
def installed(tracer: Tracer) -> Iterator[list[tuple[object, str, object]]]:
    """Wrap every boundary for the duration of the block.

    Yields the ``(owner, attribute, original)`` patch list; on exit each
    attribute is restored to the original object.
    """
    patches = []
    try:
        for owner, attr, span, after in targets():
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, original, span, after))
            patches.append((owner, attr, original))
        yield patches
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def leftover_wrappers(patches: list[tuple[object, str, object]]) -> list[str]:
    """Attributes that still hold something other than their original."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in patches
        if vars(owner).get(attr) is not original
    ]
