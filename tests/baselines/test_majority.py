"""Tests for the exponential minimal-diameter subset rule."""

from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines import majority
from repro.baselines.majority import MinimalDiameterSubset
from repro.exceptions import ByzantineToleranceError, ConfigurationError
from repro.utils.linalg import pairwise_sq_distances


def reference_select(vectors: np.ndarray, f: int) -> np.ndarray:
    """One subset per interpreter step, in ``combinations`` order: the
    first strictly smaller diameter wins, and an all-infinite stack
    resolves to the first subset."""
    n = vectors.shape[0]
    distances = pairwise_sq_distances(vectors, nonfinite_as_inf=True)
    best_subset = tuple(range(n - f))
    best_diameter = np.inf
    for subset in combinations(range(n), n - f):
        idx = np.asarray(subset)
        diameter = float(distances[np.ix_(idx, idx)].max())
        if diameter < best_diameter:
            best_diameter = diameter
            best_subset = subset
    return np.asarray(best_subset, dtype=np.int64)


@st.composite
def subset_cases(draw):
    """(vectors, f, block_entries): few distinct values so that equal
    rows and equal diameters (ties) are common, some rows poisoned with
    NaN or ±inf, and block sizes down to one subset per block."""
    n = draw(st.integers(2, 9))
    f = draw(st.integers(0, n - 2))
    d = draw(st.integers(1, 3))
    vectors = draw(
        hnp.arrays(
            np.float64,
            (n, d),
            elements=st.one_of(
                st.sampled_from([-1.0, 0.0, 0.5, 3.0]),
                st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            ),
        )
    )
    poisoned = draw(st.lists(st.integers(0, n - 1), max_size=n))
    for row in poisoned:
        column = draw(st.integers(0, d - 1))
        vectors[row, column] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    block_entries = draw(st.sampled_from([1, 7, 60, majority._BLOCK_ENTRIES]))
    return vectors, f, block_entries


def assert_matches_reference(vectors: np.ndarray, f: int) -> None:
    """Same indices and a byte-equal aggregate (inf - inf means are NaN)."""
    with np.errstate(invalid="ignore"):
        result = MinimalDiameterSubset(f=f).aggregate_detailed(vectors)
        expected = reference_select(vectors, f)
        reference_vector = vectors[expected].mean(axis=0)
    assert result.selected.dtype == expected.dtype
    np.testing.assert_array_equal(result.selected, expected)
    assert result.vector.tobytes() == reference_vector.tobytes()


class TestMinimalDiameterSubset:
    def test_picks_tight_cluster(self, rng):
        cluster = 0.01 * rng.standard_normal((6, 3))
        outliers = 50.0 + rng.standard_normal((2, 3))
        stack = np.vstack([cluster, outliers])
        result = MinimalDiameterSubset(f=2).aggregate_detailed(stack)
        np.testing.assert_array_equal(np.sort(result.selected), np.arange(6))

    def test_output_is_subset_mean(self, rng):
        vectors = rng.standard_normal((7, 4))
        rule = MinimalDiameterSubset(f=2)
        result = rule.aggregate_detailed(vectors)
        np.testing.assert_allclose(
            result.vector, vectors[result.selected].mean(axis=0)
        )

    def test_f_zero_keeps_everything(self, rng):
        vectors = rng.standard_normal((5, 2))
        result = MinimalDiameterSubset(f=0).aggregate_detailed(vectors)
        assert result.selected.size == 5
        np.testing.assert_allclose(result.vector, vectors.mean(axis=0))

    def test_robust_to_colluding_attack_that_beats_closest_to_all(self, rng):
        honest = np.zeros((6, 3)) + 0.01 * rng.standard_normal((6, 3))
        decoy = np.full(3, 1e4)
        n = 8
        trojan = (honest.sum(axis=0) + decoy) / (n - 1)
        stack = np.vstack([honest, decoy[None, :], trojan[None, :]])
        result = MinimalDiameterSubset(f=2).aggregate_detailed(stack)
        assert np.all(result.selected < 6)

    def test_needs_two_survivors(self):
        with pytest.raises(ByzantineToleranceError):
            MinimalDiameterSubset(f=3).aggregate(np.zeros((4, 2)))

    def test_subset_budget_guard(self):
        rule = MinimalDiameterSubset(f=10, max_subsets=100)
        with pytest.raises(ConfigurationError, match="exponential"):
            rule.aggregate(np.zeros((30, 2)))

    def test_deterministic_tie_break(self):
        vectors = np.zeros((5, 2))  # every subset has diameter 0
        result = MinimalDiameterSubset(f=1).aggregate_detailed(vectors)
        np.testing.assert_array_equal(result.selected, [0, 1, 2, 3])

    def test_more_than_f_nonfinite_rows_pick_first_subset(self, rng):
        # Every (n - f)-subset holds a NaN row, so every diameter is +inf:
        # the lexicographic tie-break selects the first subset instead of
        # failing.
        vectors = rng.standard_normal((15, 4))
        vectors[[2, 5, 9, 13], 1] = np.nan
        result = MinimalDiameterSubset(f=3).aggregate_detailed(vectors)
        np.testing.assert_array_equal(result.selected, np.arange(12))
        assert np.isnan(result.vector[1])


class TestBlockedEnumeration:
    """The blocked search returns what the per-subset loop returns."""

    @given(subset_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_subset_loop(self, case):
        vectors, f, block_entries = case
        with mock.patch.object(majority, "_BLOCK_ENTRIES", block_entries):
            assert_matches_reference(vectors, f)

    def test_enumeration_crossing_the_default_block(self, rng):
        n, f = 18, 5
        subsets_per_block = majority._BLOCK_ENTRIES // (n - f) ** 2
        assert comb(n, n - f) > subsets_per_block  # 8568 subsets, two blocks
        vectors = rng.standard_normal((n, 6))
        vectors[[3, 11]] = vectors[7]  # duplicate rows tie many subsets
        vectors[16, 0] = np.inf
        assert_matches_reference(vectors, f)

    @pytest.mark.parametrize("block_entries", [1, 50, 300])
    def test_minimum_found_in_a_later_block(self, rng, block_entries):
        # The tightest cluster sits in the last rows, so the minimal
        # subset is among the last ones enumerated.
        vectors = np.vstack(
            [50.0 * rng.standard_normal((3, 2)), 0.01 * rng.standard_normal((5, 2))]
        )
        with mock.patch.object(majority, "_BLOCK_ENTRIES", block_entries):
            result = MinimalDiameterSubset(f=3).aggregate_detailed(vectors)
            assert_matches_reference(vectors, 3)
        np.testing.assert_array_equal(result.selected, np.arange(3, 8))

    def test_f_zero_is_one_subset(self, rng):
        vectors = rng.standard_normal((6, 3))
        vectors[4] = np.nan
        assert_matches_reference(vectors, 0)
