"""Same-host A/B of one ``perfbench`` workload across two git revisions.

Exports each revision with ``git archive`` into a temporary directory,
then runs ``perfbench/run.py`` against the two trees in pairs, the side
that runs first alternating (A B, B A, A B, ...) so slow drift of a
shared host hits both alike.  Prints min/quartiles/median/max and
spread of ``proposals_per_ref_s`` per tree, the B/A ratio of the
medians, in how many pairs B ran faster than A, and each tree's median
of every other end-to-end metric.

It also fingerprints one run of the workload in each tree: the final
parameters plus every history record of every cell (the league: its
full payload), with floats compared by their exact bits.  The exit code
is 0 only when the two fingerprints are byte-identical and every run's
correctness gate passed.

Every run lasts the ``run_seconds`` of ``BENCHMARK.json`` and there
are always ten pairs, the length and count the benchmark is judged by.

Usage::

    python3 benchmarks/ab_trees.py HEAD~1 HEAD --workload grid-quadratic --seed 0

A revision that names an existing directory is used as it is, so
``HEAD .`` compares the last commit with the uncommitted working tree.
Relative directories, like revisions, are taken from the repository
root, wherever the script is run from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRIC = "proposals_per_ref_s"
PAIRS = 10

#: Runs one workload repetition inside a tree (cwd) and prints the
#: SHA-256 of its fingerprint.  Uses only the tree's own ``perfbench``
#: and ``repro`` modules, so the two trees are fingerprinted by the same
#: code path they are benchmarked by.
FINGERPRINT_CODE = """\
import hashlib, sys
sys.path[:0] = ["src", "."]
import numpy as np
from dataclasses import astuple
from perfbench.workloads import WORKLOADS

def canon(value):
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return sorted((str(k), canon(v)) for k, v in value.items())
    if isinstance(value, np.ndarray):
        return [value.dtype.str, list(value.shape), value.tobytes().hex()]
    return repr(value)

workload = WORKLOADS[sys.argv[1]]()
result = workload.run_once(int(sys.argv[2])).result
digest = hashlib.sha256(workload.fingerprint(result))
for spec in getattr(result, "specs", ()):
    digest.update(spec.label.encode())
    for record in result.histories[spec.label]:
        digest.update(repr(canon(astuple(record))).encode())
print(digest.hexdigest())
"""


@dataclass(frozen=True)
class Summary:
    """Spread of one tree's throughput samples."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @property
    def spread(self) -> float:
        """(max − min) / median: the relative width of the samples."""
        return (self.maximum - self.minimum) / self.median


def summarize(values: list[float]) -> Summary:
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    q1, q3 = (
        statistics.quantiles(values, n=4)[::2]
        if len(values) > 1
        else (median, median)
    )
    return Summary(min(values), q1, median, q3, max(values))


def wins(pairs: list[tuple[float, float]]) -> int:
    """Pairs in which B's throughput beat A's (ties count for neither)."""
    return sum(b > a for a, b in pairs)


def compare(
    fingerprints: dict[str, str | None], correct: dict[str, list[bool]]
) -> list[str]:
    """Reasons the A/B fails: a fingerprint run that crashed (``None``),
    differing fingerprints or a failed gate (empty when the two trees
    agree and every run passed)."""
    failures = [
        f"{tree}: fingerprint run failed"
        for tree, fp in fingerprints.items()
        if fp is None
    ]
    if not failures and len(set(fingerprints.values())) != 1:
        failures.append(
            "fingerprints differ: "
            + ", ".join(f"{tree} {fp[:16]}" for tree, fp in fingerprints.items())
        )
    for tree, gates in correct.items():
        bad = gates.count(False)
        if bad:
            failures.append(f"{tree}: {bad} of {len(gates)} run(s) failed a check")
    return failures


def run_seconds() -> int:
    """The benchmark's run length, from ``BENCHMARK.json``."""
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def tree_dir(revision: str) -> Path | None:
    """``revision`` as a directory (relative ones from the repository
    root, where revisions are resolved too), or ``None`` if it is not
    one."""
    path = ROOT / revision
    return path.resolve() if path.is_dir() else None


def export_tree(revision: str, dest: Path) -> None:
    """Write the files of ``revision`` (no ``.git``) under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        capture_output=True,
        check=True,
    )
    subprocess.run(
        ["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True
    )


def _env() -> dict[str, str]:
    # The same single BLAS thread perfbench/run.py pins.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return env | {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced ``perfbench/run.py`` invocation; its result object."""
    child = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=tree,
        env=_env(),
        capture_output=True,
        text=True,
    )
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if "correct" not in result:  # the run crashed before its result line
        sys.stderr.write(child.stderr)
        return {"correct": False, "metrics": {}}
    return result


def fingerprint(tree: Path, workload: str, seed: int) -> str | None:
    """SHA-256 of one run's fingerprint, or ``None`` if the run failed."""
    child = subprocess.run(
        [sys.executable, "-c", FINGERPRINT_CODE, workload, str(seed)],
        cwd=tree,
        env=_env(),
        capture_output=True,
        text=True,
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        return None
    return child.stdout.strip()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", help="baseline revision or directory")
    parser.add_argument("rev_b", help="candidate revision or directory")
    parser.add_argument("--workload", default="grid-quadratic")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    seconds = run_seconds()
    with tempfile.TemporaryDirectory(prefix="ab_trees-") as scratch:
        trees = {}
        for label, revision in (("A", args.rev_a), ("B", args.rev_b)):
            directory = tree_dir(revision)
            if directory is not None:
                trees[label] = directory
                continue
            trees[label] = Path(scratch) / label
            trees[label].mkdir()
            export_tree(revision, trees[label])
        # metrics[tree][name]: that end-to-end metric's value per run.
        metrics: dict[str, dict[str, list[float]]] = {"A": {}, "B": {}}
        correct: dict[str, list[bool]] = {"A": [], "B": []}
        pairs: list[tuple[float, float]] = []
        for pair in range(PAIRS):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            values = {}
            for label in order:
                result = run_bench(trees[label], args.workload, args.seed, seconds)
                correct[label].append(bool(result["correct"]))
                for name, metric in result["metrics"].items():
                    metrics[label].setdefault(name, []).append(metric["value"])
                values[label] = result["metrics"].get(METRIC, {}).get("value")
                print(
                    f"pair {pair + 1} {label}: {METRIC} {values[label]}",
                    flush=True,
                )
            if None not in values.values():
                pairs.append((values["A"], values["B"]))
        fingerprints = {
            label: fingerprint(tree, args.workload, args.seed)
            for label, tree in trees.items()
        }

    revisions = {"A": args.rev_a, "B": args.rev_b}
    print(f"{args.workload} seed {args.seed}, {PAIRS} pairs of {seconds} s runs:")
    samples = {label: metrics[label].get(METRIC, []) for label in metrics}
    summaries = {}
    for label, values in samples.items():
        if not values:
            print(f"  {label} ({revisions[label]}): no samples")
            continue
        summaries[label] = s = summarize(values)
        print(
            f"  {label} ({revisions[label]}): min {s.minimum:.1f}  "
            f"q1 {s.q1:.1f}  median {s.median:.1f}  q3 {s.q3:.1f}  "
            f"max {s.maximum:.1f}  spread {s.spread:.1%}  "
            f"fingerprint {(fingerprints[label] or 'FAILED')[:16]}"
        )
    if len(summaries) == 2:
        ratio = summaries["B"].median / summaries["A"].median
        gain = summaries["B"].median - summaries["A"].median
        iqr = summaries["A"].q3 - summaries["A"].q1
        print(f"  B/A median {METRIC}: {ratio:.3f}x")
        print(f"  B - A median {gain:.1f} vs A's interquartile range {iqr:.1f}")
        print(f"  B faster in {wins(pairs)} of {len(pairs)} pair(s)")
    for name in sorted(metrics["A"].keys() & metrics["B"].keys() - {METRIC}):
        a, b = (statistics.median(metrics[t][name]) for t in ("A", "B"))
        print(f"  median {name}: A {a:.6g}  B {b:.6g}")
    failures = compare(fingerprints, correct)
    if any(not values for values in samples.values()):
        failures.append("a tree produced no throughput samples")
    for failure in failures:
        print(f"ab_trees: {failure}", file=sys.stderr)
    print("A/B FAILED" if failures else "A/B OK: fingerprints identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
