"""Benchmark entry point: one workload per invocation, one process.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid-quadratic --seed 0 --seconds 25 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` seconds and reports
the end-to-end metrics; ``--trace 1`` runs it twice untraced and once
with every layer boundary wrapped, and reports the per-layer metrics.
Either way the correctness gate runs afterwards, outside the timed
region.  Stdout carries a ``{"manifest": ...}`` line and, last, the
result object; the exit code is 0 only when every check passed.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("grid-quadratic", "grid-mlp", "league", "gossip-ring")
#: Seed held out from tuning, for confirming a claim made on other seeds.
HELD_OUT_SEED = 7919
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

#: What the reference computation takes on the host the bounds were set
#: on (2 vCPUs of a shared 2.1 GHz Xeon VM); see ``reference_s``.
REFERENCE_S = 0.1

#: Fresh interpreters whose library import time ``setup_s`` takes the
#: median of, and the modules they import (those the workloads use).
IMPORT_REPEATS = 5
IMPORT_CODE = """\
from time import perf_counter
start = perf_counter()
import numpy, repro.attacks.registry, repro.core.registry, repro.engine, repro.tournament
print(perf_counter() - start)
"""

#: (name, unit) of the end-to-end metrics, in output order.
END_TO_END = (
    ("proposals_per_ref_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "ratio"),
    ("final_error_ratio_p50", "ratio"),
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help=f"workload input seed (default 0; {HELD_OUT_SEED} is held out "
        f"for confirming claims)",
    )
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _pin_blas_threads() -> None:
    """Run BLAS on one thread.  On a shared 2-CPU host a second BLAS
    thread made repetition times noisier (coefficient of variation 6%
    against 4.4% on grid-mlp) and the league slower.  Must run before
    numpy is imported, which is when the pool is sized."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` without running git (a source
    checkout without history has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _manifest(args, workload, inputs) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "grid_digest": workload.digest(inputs),
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "executor": "single process, no worker pool",
    }


def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.normal(size=(7, 10)), rng.normal(size=(200, 1000))


def reference_s(inputs) -> float:
    """Seconds a fixed computation takes right now on this host.

    It never calls the program under test: small-array numpy calls
    driven from the interpreter (the mix the workloads' per-node and
    per-cell paths run) and a few BLAS products.  Its time moves with
    the speed this shared host gives the process, so a repetition's
    throughput scaled by it moves with the program alone.
    """
    import numpy as np

    small, wide = inputs
    start = perf_counter()
    acc = 0.0
    for _ in range(4800):
        acc += float(np.median(small, axis=0)[0])
        acc += float(np.sort(small, axis=0)[3, 2])
    for _ in range(24):
        acc += float((wide @ wide.T)[0, 0])
    return perf_counter() - start


@dataclass
class Run:
    """What one invocation measured and checked."""

    outcome: object | None  # the outcome whose inputs the manifest digests
    metrics: dict
    attempted: int
    failed: int
    failures: list[str]
    notes: dict = field(default_factory=dict)  # extra manifest entries


def _measure(workload, seed: int, seconds: int) -> dict:
    """Repeat the workload within ``seconds``: at least twice, and no
    new repetition once the last one would no longer fit.  The first
    repetition is the warm-up.  The reference computation runs before
    the first repetition and after each one, outside their timings.

    Keeps each repetition's timings and failed-cell count, but only the
    last outcome, so peak memory does not grow with the repetition
    count.  A raising repetition ends the loop.
    """
    samples, last, first_print, consistent, failed = [], None, None, True, 0
    reference_in = _reference_inputs()
    reference_s(reference_in)  # warm-up: its first call runs slower
    references = [reference_s(reference_in)]
    start = perf_counter()
    while True:
        last = None  # free the previous result before building the next
        # Start every repetition from a collected heap, so garbage the
        # previous one left is not collected on this one's clock.
        gc.collect()
        began = perf_counter()
        try:
            last = workload.run_once(seed)
        except Exception:  # reported as a failed operation, not a crash
            traceback.print_exc()
            failed += 1
            break
        samples.append(
            (last.setup_s, last.run_s, workload.failed_cells(last.result))
        )
        references.append(reference_s(reference_in))
        fingerprint = hashlib.sha256(workload.fingerprint(last.result)).digest()
        first_print = first_print or fingerprint
        consistent = consistent and fingerprint == first_print
        now = perf_counter()
        if len(samples) >= 2 and (now - start) + (now - began) > seconds:
            break
    return {
        "samples": samples,
        # Host speed around repetition i: the reference times before
        # and after it, averaged.
        "references": [
            (before + after) / 2
            for before, after in zip(references, references[1:])
        ],
        "last": last,
        "consistent": consistent,
        "failed": failed,
    }


def _with_units(values: dict, units) -> dict:
    """``{name: {"value", "unit"}}`` for each ``(name, unit)`` pair."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def _import_s() -> float:
    """Median time a fresh interpreter takes to import the library,
    numpy included.  The interpreters run one at a time, each waited
    for; the workload itself never leaves this process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def _run_untraced(args, workload) -> Run:
    import_s = _import_s()
    timed = _measure(workload, args.seed, args.seconds)
    samples, last, failed = timed["samples"], timed["last"], timed["failed"]
    references = timed["references"]
    attempted = len(samples) + failed
    if len(samples) < 2:
        return Run(None, {}, attempted, failed, ["no timed repetition completed"])
    proposals = workload.proposals(last.inputs)
    cells = workload.cells(last.inputs) * len(samples)
    # The warm-up repetition pays one-off costs (lazy imports, first
    # allocations); it counts for set-up but not for throughput.
    wall = [proposals / run_s for _, run_s, _ in samples[1:]]
    wall_setup_s = import_s + statistics.median(s for s, _, _ in samples)
    metrics = {
        # Wall throughput at the reference host speed: each repetition
        # scaled by how much slower than REFERENCE_S the host ran
        # around it.
        "proposals_per_ref_s": statistics.median(
            rate * ref / REFERENCE_S for rate, ref in zip(wall, references[1:])
        ),
        # Set-up at the reference host speed, from the run's median.
        "setup_s": wall_setup_s * REFERENCE_S / statistics.median(references),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_fraction": 1.0 - sum(f for _, _, f in samples) / cells,
        "final_error_ratio_p50": statistics.median(
            workload.relative_errors(last.result)
        ),
    }
    failures = [f"{failed} repetition(s) raised"] if failed else []
    failures += workload.check(last, args.seed)
    if not timed["consistent"]:
        failures.append("repetitions of one seed gave different results")
    if not math.isfinite(metrics["final_error_ratio_p50"]):
        failures.append("median final error is not finite")
    metrics = _with_units(metrics, END_TO_END)
    notes = {
        "repetitions": len(samples),
        "wall_setup_s": wall_setup_s,
        "wall_proposals_per_s": statistics.median(wall),
        "reference_s": statistics.median(references),
    }
    return Run(last, metrics, attempted, failed, failures, notes)


def _run_traced(args, workload) -> Run:
    from perfbench import tracing

    # The first repetition pays one-off warm-up costs; time the second
    # so the overhead ratio compares like with like.
    reference = workload.run_once(args.seed)
    start = perf_counter()
    workload.run_once(args.seed)
    untraced_s = perf_counter() - start
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as patches:
        traced = tracer.call(tracing.ROOT, workload.run_once, (args.seed,), {})
    metrics = tracer.metrics()
    metrics["tournament.failed_cells"] = workload.failed_cells(traced.result)
    metrics["trace.overhead_ratio"] = tracer.total[tracing.ROOT] / untraced_s
    metrics["trace.unattributed_share"] = tracer.unattributed_share()

    failures = workload.check(traced, args.seed)
    if workload.fingerprint(traced.result) != workload.fingerprint(
        reference.result
    ):
        failures.append("traced run differs from the untraced run")
    failures += [
        f"wrapper not removed: {name}"
        for name in tracing.leftover_wrappers(patches)
    ]
    failures += [
        f"kernel without a metric: {name}" for name in tracer.unknown_kernels()
    ]
    share = metrics["trace.unattributed_share"]
    ceiling = tracing.UNATTRIBUTED_CEILING[args.workload]
    if not share <= ceiling:
        failures.append(
            f"trace.unattributed_share {share:.3f} above its ceiling {ceiling}"
        )
    units = tracing.per_layer_units().items()
    return Run(traced, _with_units(metrics, units), 3, 0, failures)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    _pin_blas_threads()

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.trace:
        run = _run_traced(args, workload)
    else:
        run = _run_untraced(args, workload)
    if run.outcome is not None:
        manifest = _manifest(args, workload, run.outcome.inputs) | run.notes
        print(json.dumps({"manifest": manifest}))
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
