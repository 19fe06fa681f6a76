"""The benchmark's four workloads: input generators, measured quantities
and correctness checks.

Every workload turns ``--seed`` into its inputs here, on the benchmark
side; the program under test only receives the generated
:class:`~repro.engine.ScenarioGrid` or
:class:`~repro.tournament.TournamentRunner` and runs it through its
public entry point (``run_grid`` or ``TournamentRunner.run``).

The checks are qualitative on purpose (orderings and wide margins, not
pinned values), so they keep holding after a deliberate, versioned
re-pin of the program's random streams.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.attacks.registry import available_attacks
from repro.core.registry import available_aggregators
from repro.engine import GridResult, ScenarioGrid, run_grid
from repro.tournament import TournamentResult, TournamentRunner

#: The eight rules with a vectorized batched kernel, by registry name.
NATIVE_RULES = (
    "average",
    "bulyan",
    "closest-to-all",
    "coordinate-median",
    "geometric-median",
    "krum",
    "multi-krum",
    "trimmed-mean",
)

KRUM_FAMILY = ("krum", "multi-krum", "bulyan")


def _draws(seed: int, stream: int, count: int) -> tuple[int, ...]:
    """``count`` cell seeds for one workload, a pure function of the
    benchmark seed; ``stream`` keeps the workloads' draws independent."""
    rng = np.random.default_rng([seed, stream])
    return tuple(int(v) for v in rng.integers(0, 2**31 - 1, size=count))


@dataclass
class Outcome:
    """One repetition of a workload: its result and where its time went.

    ``setup_s`` runs from building the inputs to the first round (grid
    expansion, workload/dataset materialization, simulation build);
    ``run_s`` from there to the last result.  The league builds each
    pairing's simulations inside ``TournamentRunner.run``, so its
    ``run_s`` includes them.
    """

    inputs: object
    result: object
    setup_s: float
    run_s: float


class Workload:
    """Common interface; subclasses fill in the workload specifics."""

    name: str
    rounds: int

    def build(self, seed: int):
        raise NotImplementedError

    def execute(self, inputs) -> tuple[object, float, float]:
        """Run ``inputs``; returns ``(result, extra_setup_s, run_s)``."""
        raise NotImplementedError

    def run_once(self, seed: int) -> Outcome:
        start = perf_counter()
        inputs = self.build(seed)
        build_s = perf_counter() - start
        result, extra_setup_s, run_s = self.execute(inputs)
        return Outcome(inputs, result, build_s + extra_setup_s, run_s)

    # Quantities read off one outcome ---------------------------------

    def cells(self, inputs) -> int:
        raise NotImplementedError

    def proposals(self, inputs) -> int:
        """cells × rounds × n: the proposals one repetition computes."""
        raise NotImplementedError

    def failed_cells(self, result) -> int:
        return 0

    def relative_errors(self, result) -> list[float]:
        """Per-cell final error relative to a same-seed reference, so
        the median is comparable across seeds (non-finite is +inf)."""
        raise NotImplementedError

    def fingerprint(self, result) -> bytes:
        """Bytes that pin the result: final parameters (or, for the
        league, its deterministic payload)."""
        raise NotImplementedError

    def digest(self, inputs) -> str:
        raise NotImplementedError

    def check(self, outcome: Outcome, seed: int) -> list[str]:
        """Correctness failures of one outcome (empty when correct)."""
        raise NotImplementedError


def _final_error(history) -> float:
    """A cell's final error: ``dist_to_opt`` when the workload reports
    it, else the eval loss; non-finite counts as +inf."""
    record = history.records[-1]
    if record.extras and "dist_to_opt" in record.extras:
        value = record.extras["dist_to_opt"]
    else:
        value = record.loss
    if value is None or not math.isfinite(value):
        return math.inf
    return float(value)


def _first_error(history) -> float:
    record = next(r for r in history.records if r.extras or r.loss is not None)
    if record.extras and "dist_to_opt" in record.extras:
        return float(record.extras["dist_to_opt"])
    return float(record.loss)


def _same_trajectories(reference: GridResult, other: GridResult) -> list[str]:
    """Labels of ``other``'s cells whose final parameters or histories
    differ from ``reference`` (bit for bit)."""
    bad = []
    for label, params in other.final_params.items():
        if (
            params.tobytes() != reference.final_params[label].tobytes()
            or list(other.histories[label])
            != list(reference.histories[label])
        ):
            bad.append(label)
    return bad


class _GridWorkload(Workload):
    """A workload that is one batched ``run_grid`` call."""

    eval_every = 10

    def grid(self, seed: int, *, sample: bool = False) -> ScenarioGrid:
        """The workload grid; ``sample=True`` gives the fixed slice the
        correctness gate re-runs in loop mode."""
        raise NotImplementedError

    def build(self, seed: int) -> ScenarioGrid:
        return self.grid(seed)

    def execute(self, inputs):
        start = perf_counter()
        result = run_grid(inputs, mode="batched", eval_every=self.eval_every)
        total = perf_counter() - start
        return result, total - result.wall_time, result.wall_time

    def cells(self, inputs) -> int:
        return len(inputs.scenarios())

    def proposals(self, inputs) -> int:
        return self.cells(inputs) * inputs.num_rounds * inputs.num_workers

    def relative_errors(self, result: GridResult) -> list[float]:
        # Reference: the cell's first evaluated error (after round 0),
        # which cancels the seed's random initial distance.
        return [
            _final_error(h) / _first_error(h) for h in result.histories.values()
        ]

    def fingerprint(self, result: GridResult) -> bytes:
        return b"".join(
            result.final_params[spec.label].tobytes() for spec in result.specs
        )

    def digest(self, inputs: ScenarioGrid) -> str:
        text = "\n".join(repr(spec) for spec in inputs.scenarios())
        text += f"\nrounds={inputs.num_rounds} eval_every={self.eval_every}"
        return hashlib.sha256(text.encode()).hexdigest()

    def loop_sample_failures(self, outcome: Outcome, seed: int) -> list[str]:
        """Re-run the fixed sample in ``mode="loop"``; its final params
        and histories must equal the batched run's, bit for bit."""
        sample = run_grid(
            self.grid(seed, sample=True),
            mode="loop",
            eval_every=self.eval_every,
        )
        return [
            f"loop/batched mismatch: {label}"
            for label in _same_trajectories(outcome.result, sample)
        ]


class GridQuadratic(_GridWorkload):
    """The paper's setting: 64 batched quadratic cells (n=20, d=1000),
    where noise, curvature and the aggregation kernels all show."""

    name = "grid-quadratic"
    rounds = 20
    rules = (
        ("krum", {}),
        ("multi-krum", {"m": 5}),
        ("average", {}),
        ("closest-to-all", {}),
        ("coordinate-median", {}),
        ("trimmed-mean", {}),
        ("bulyan", {}),
        ("geometric-median", {}),
    )

    def grid(self, seed, *, sample=False):
        seeds = _draws(seed, 0, 2)
        rules = self.rules
        if sample:
            seeds = seeds[:1]
            rules = tuple(r for r in rules if r[0] in ("krum", "average", "bulyan"))
        return ScenarioGrid(
            seeds=seeds,
            attacks=(
                ("gaussian", {"sigma": 200.0}),
                ("omniscient", {"scale": 10.0}),
            ),
            aggregators=rules,
            f_values=(3, 4),  # bulyan needs n >= 4f + 3
            num_workers=20,
            dimension=1000,
            sigma=0.5,
            num_rounds=self.rounds,
            learning_rate=0.1,
            lr_timescale=100.0,
        )

    def check(self, outcome, seed):
        failures = self.loop_sample_failures(outcome, seed)
        result: GridResult = outcome.result
        # The paper's claim, per (seed, attack, f) arm: every Krum-family
        # rule stays bounded — it trains well below its first evaluated
        # error — while averaging is driven far above all of them.
        arms: dict[tuple, dict[str, object]] = {}
        for spec in result.specs:
            key = (spec.seed, spec.attack, spec.num_byzantine)
            arms.setdefault(key, {})[spec.aggregator] = result.histories[
                spec.label
            ]
        for key, histories in arms.items():
            robust = [_final_error(histories[r]) for r in KRUM_FAMILY]
            for rule in KRUM_FAMILY:
                history = histories[rule]
                if not _final_error(history) < 0.25 * _first_error(history):
                    failures.append(f"{rule} not bounded on arm {key}")
            if not _final_error(histories["average"]) > 4 * max(robust):
                failures.append(f"average did not diverge on arm {key}")
        return failures


class GridMlp(_GridWorkload):
    """The ``mlp-mnist`` minibatch path with a 3-replica server tier: it
    bypasses the Gaussian oracle and the quadratic bowl."""

    name = "grid-mlp"
    rounds = 10

    def grid(self, seed, *, sample=False):
        seeds = _draws(seed, 1, 3)
        cell_seeds, data_seed = seeds[:2], seeds[2]
        rules = (("krum", {}), ("coordinate-median", {}), ("average", {}))
        if sample:
            cell_seeds = cell_seeds[:1]
            rules = (("krum", {}), ("average", {}))
        return ScenarioGrid(
            seeds=cell_seeds,
            workload="mlp-mnist",
            workload_kwargs={"data_seed": data_seed},
            attacks=(("gaussian", {"sigma": 200.0}), ("sign-flip", {})),
            aggregators=rules,
            f_values=(3,),
            num_workers=15,
            num_rounds=self.rounds,
            learning_rate=0.05,
            lr_timescale=None,
            num_servers=3,
            byzantine_servers_values=(0, 1),
            server_attacks=(("sign-flip-broadcast", {}),),
        )

    def check(self, outcome, seed):
        failures = self.loop_sample_failures(outcome, seed)
        result: GridResult = outcome.result
        for spec in result.specs:
            if spec.aggregator != "average" and not math.isfinite(
                _final_error(result.histories[spec.label])
            ):
                failures.append(f"robust cell lost its eval loss: {spec.label}")
        return failures


class League(Workload):
    """Every attack against every defense: 352 one-cell ``run_grid``
    calls, per-scenario fallback rules and the only real cell failures."""

    name = "league"
    rounds = 5

    def build(self, seed: int) -> TournamentRunner:
        return TournamentRunner(seeds=_draws(seed, 2, 1), num_rounds=self.rounds)

    def execute(self, inputs: TournamentRunner):
        start = perf_counter()
        result = inputs.run()
        return result, 0.0, perf_counter() - start

    def cells(self, inputs: TournamentRunner) -> int:
        # Every pairing plus each defense's attack-free baseline.
        pairings = (len(inputs.attacks) + 1) * len(inputs.defenses)
        return pairings * inputs.cells_per_pair

    def proposals(self, inputs: TournamentRunner) -> int:
        return self.cells(inputs) * inputs.num_rounds * inputs.num_workers

    def failed_cells(self, result: TournamentResult) -> int:
        # A pairing that raised has no final error and records the
        # exception class; all of its cells count as failed.  Diverged
        # pairings ("non-finite error", "error ...x baseline") are
        # results, not failures.
        return sum(
            row.cells
            for row in result.rows
            if row.final_error is None
            and row.breakdown_reason not in (None, "non-finite error")
        )

    def relative_errors(self, result: TournamentResult) -> list[float]:
        # Per pairing: final error over the defense's attack-free
        # baseline on the same seed (the league's own error_ratio).
        return [
            math.inf if row.error_ratio is None else row.error_ratio
            for row in result.rows
        ]

    def fingerprint(self, result: TournamentResult) -> bytes:
        return json.dumps(result.to_payload(), sort_keys=True).encode()

    def digest(self, inputs: TournamentRunner) -> str:
        text = repr(sorted(vars(inputs).items()))
        return hashlib.sha256(text.encode()).hexdigest()

    def check(self, outcome, seed):
        result: TournamentResult = outcome.result
        failures = []
        if not result.covers_product():
            failures.append("league does not cover attack x defense")
        if set(result.attacks) != set(available_attacks()):
            failures.append("league attack slate is not every attack")
        if set(result.defenses) != set(available_aggregators()):
            failures.append("league defense slate is not every defense")
        return failures


class GossipRing(_GridWorkload):
    """Event-driven gossip on a 300-node degree-6 ring: measures the
    topology layer and per-node rules, bypasses the batched kernels."""

    name = "gossip-ring"
    rounds = 12

    def grid(self, seed, *, sample=False):
        return ScenarioGrid(
            seeds=_draws(seed, 3, 2),
            attacks=(("sign-flip", {}),),
            aggregators=(("coordinate-median", {}), ("krum", {})),
            f_values=(2,),
            num_workers=300,
            dimension=10,
            sigma=0.5,
            num_rounds=self.rounds,
            learning_rate=0.1,
            lr_timescale=None,
            topology="ring",
            degree=6,
        )

    def check(self, outcome, seed):
        failures = []
        result: GridResult = outcome.result
        for label, history in result.histories.items():
            # The history follows one honest node; every honest node is
            # within the final `disagreement` (largest honest pairwise
            # distance) of it, so this bounds all of them.
            final = history.records[-1]
            worst = final.extras["dist_to_opt"] + final.extras["disagreement"]
            if not worst < _first_error(history):
                failures.append(f"honest nodes did not train: {label}")
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (GridQuadratic, GridMlp, League, GossipRing)
}
