"""Tests for the A/B tree comparison script's summary, compare,
fingerprint and tree-resolution logic (no git, no benchmark runs)."""

from __future__ import annotations

import json
import textwrap

import pytest

from benchmarks.ab_trees import (
    ROOT,
    compare,
    fingerprint,
    run_seconds,
    summarize,
    tree_dir,
    wins,
)

#: A stand-in ``perfbench/workloads.py``: one grid-like workload whose
#: final parameters and history records come from the environment of
#: the test that writes it.
FAKE_WORKLOADS = """\
from dataclasses import dataclass, field
import numpy as np

@dataclass
class Record:
    round_index: int
    loss: float | None
    selected: tuple = ()
    extras: dict = field(default_factory=dict)

@dataclass
class Spec:
    label: str

class Result:
    specs = (Spec("cell"),)
    histories = {{"cell": [Record(0, {loss}), Record(1, None, (2,), {{"x": 1.5}})]}}
    final_params = {{"cell": np.array({params})}}

class Outcome:
    result = Result()

class Fake:
    def run_once(self, seed):
        return Outcome()

    def fingerprint(self, result):
        return result.final_params["cell"].tobytes()

WORKLOADS = {{"fake": Fake}}
"""


def _tree(tmp_path, name: str, *, loss: str, params: str):
    tree = tmp_path / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "src").mkdir()
    (tree / "perfbench" / "__init__.py").write_text("")
    (tree / "perfbench" / "workloads.py").write_text(
        textwrap.dedent(FAKE_WORKLOADS.format(loss=loss, params=params))
    )
    return tree


class TestSummarize:
    def test_min_quartiles_median_max_spread(self):
        summary = summarize([50.0, 10.0, 30.0, 20.0, 40.0])
        assert (
            summary.minimum,
            summary.q1,
            summary.median,
            summary.q3,
            summary.maximum,
        ) == (10.0, 15.0, 30.0, 45.0, 50.0)
        assert summary.spread == pytest.approx(40.0 / 30.0)

    def test_single_sample_has_zero_spread(self):
        summary = summarize([7.0])
        assert summary.spread == 0.0
        assert summary.q1 == summary.q3 == 7.0


class TestWins:
    def test_counts_pairs_where_b_beats_a(self):
        assert wins([(1.0, 2.0), (3.0, 2.0), (2.0, 2.5)]) == 2

    def test_ties_count_for_neither(self):
        assert wins([(2.0, 2.0)]) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCompare:
    def test_identical_and_correct_passes(self):
        assert compare({"A": "ab12", "B": "ab12"}, {"A": [True], "B": [True]}) == []

    def test_fingerprint_mismatch_fails(self):
        failures = compare({"A": "ab12", "B": "cd34"}, {"A": [True], "B": [True]})
        assert len(failures) == 1 and "fingerprints differ" in failures[0]

    def test_failed_gate_fails_even_when_identical(self):
        failures = compare(
            {"A": "ab12", "B": "ab12"}, {"A": [True, True], "B": [True, False]}
        )
        assert failures == ["B: 1 of 2 run(s) failed a check"]

    def test_crashed_fingerprint_run_fails(self):
        failures = compare({"A": None, "B": "ab12"}, {"A": [True], "B": [True]})
        assert failures == ["A: fingerprint run failed"]


class TestRunSettings:
    def test_run_length_is_the_benchmarks(self):
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert run_seconds() == benchmark["run_seconds"]

    def test_directories_resolve_from_the_repository_root(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert tree_dir(".") == ROOT
        assert tree_dir("src") == ROOT / "src"
        assert tree_dir(str(tmp_path)) == tmp_path.resolve()

    def test_revisions_are_not_directories(self):
        assert tree_dir("HEAD~1") is None


class TestFingerprint:
    def test_crashing_tree_gives_none(self, tmp_path):
        tree = _tree(tmp_path, "a", loss="0.25", params="[1.0, 2.0]")
        (tree / "perfbench" / "workloads.py").write_text("raise ImportError\n")
        assert fingerprint(tree, "fake", 0) is None

    def test_equal_results_fingerprint_equal(self, tmp_path):
        a = _tree(tmp_path, "a", loss="0.25", params="[1.0, 2.0]")
        b = _tree(tmp_path, "b", loss="0.25", params="[1.0, 2.0]")
        assert fingerprint(a, "fake", 0) == fingerprint(b, "fake", 0)

    @pytest.mark.parametrize(
        ("loss", "params"),
        [
            ("0.25000000000000006", "[1.0, 2.0]"),  # one ulp in a record
            ("-0.0", "[1.0, 2.0]"),  # signed zero vs +0.0 below
            ("0.25", "[1.0, float('nan')]"),  # final params
        ],
    )
    def test_any_bit_difference_changes_the_fingerprint(
        self, tmp_path, loss, params
    ):
        base = "0.0" if loss == "-0.0" else "0.25"
        a = _tree(tmp_path, "a", loss=base, params="[1.0, 2.0]")
        b = _tree(tmp_path, "b", loss=loss, params=params)
        assert fingerprint(a, "fake", 0) != fingerprint(b, "fake", 0)
