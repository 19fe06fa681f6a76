"""Tests for the quadratic bowl model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.models.quadratic import QuadraticBowl
from tests.helpers import assert_gradients_close, numerical_gradient


class TestQuadraticBowl:
    def test_value_at_optimum_is_offset(self):
        bowl = QuadraticBowl(4, optimum=np.ones(4), offset=2.0)
        assert bowl.value(np.ones(4)) == pytest.approx(2.0)

    def test_gradient_zero_at_optimum(self):
        bowl = QuadraticBowl(5, optimum=np.arange(5.0))
        np.testing.assert_allclose(bowl.exact_gradient(np.arange(5.0)), np.zeros(5))

    def test_gradient_matches_numeric(self, rng):
        matrix = rng.standard_normal((4, 4))
        curvature = matrix @ matrix.T + 4 * np.eye(4)
        bowl = QuadraticBowl(4, curvature=curvature)
        x = rng.standard_normal(4)
        numeric = numerical_gradient(lambda p: bowl.value(p), x.copy())
        assert_gradients_close(bowl.exact_gradient(x), numeric, rtol=1e-5)

    def test_scalar_curvature(self):
        bowl = QuadraticBowl(3, curvature=2.0)
        np.testing.assert_allclose(
            bowl.exact_gradient(np.array([1.0, 0.0, 0.0])), [2.0, 0.0, 0.0]
        )

    def test_distance_to_optimum(self):
        bowl = QuadraticBowl(2, optimum=np.array([3.0, 4.0]))
        assert bowl.distance_to_optimum(np.zeros(2)) == pytest.approx(5.0)

    def test_model_interface_ignores_batch(self, rng):
        bowl = QuadraticBowl(3)
        x = rng.standard_normal(3)
        assert bowl.loss(x, np.zeros((5, 1)), np.zeros(5)) == bowl.value(x)
        np.testing.assert_array_equal(
            bowl.gradient(x, None, None), bowl.exact_gradient(x)
        )

    def test_estimator_is_unbiased(self, rng):
        bowl = QuadraticBowl(6)
        estimator = bowl.as_estimator(sigma=0.3)
        x = rng.standard_normal(6)
        samples = np.stack([estimator.estimate(x, rng) for _ in range(4000)])
        np.testing.assert_allclose(
            samples.mean(axis=0), bowl.exact_gradient(x), atol=0.05
        )

    def test_estimator_sigma_matches_definition(self, rng):
        # d sigma^2 = E||G - g||^2
        bowl = QuadraticBowl(10)
        estimator = bowl.as_estimator(sigma=0.5)
        x = np.zeros(10)
        measured = estimator.empirical_sigma(x, rng, num_samples=2000)
        assert measured == pytest.approx(0.5, rel=0.1)

    def test_rejects_non_psd_curvature(self):
        with pytest.raises(ConfigurationError, match="positive definite"):
            QuadraticBowl(2, curvature=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_asymmetric_curvature(self):
        with pytest.raises(ConfigurationError, match="symmetric"):
            QuadraticBowl(2, curvature=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_wrong_optimum_shape(self):
        with pytest.raises(ConfigurationError):
            QuadraticBowl(3, optimum=np.zeros(4))

    def test_rejects_negative_offset(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            QuadraticBowl(2, offset=-1.0)

    def test_init_params_far_from_optimum(self, rng):
        bowl = QuadraticBowl(8)
        x0 = bowl.init_params(rng)
        assert bowl.distance_to_optimum(x0) > 1.0


class TestScalarCurvature:
    """A scalar curvature ``c`` is stored as a float and evaluated in
    O(d); on finite inputs it must return the dense ``c·I`` bowl's bytes
    (the association of ``value`` is pinned here)."""

    @settings(max_examples=60, deadline=None)
    @given(
        curvature=st.sampled_from([0.1, 0.5, 1.0, 1.7, 3.0, 1e3]),
        dimension=st.integers(1, 64),
        scale=st.sampled_from([1e-3, 1.0, 5.0, 1e6]),
        offset=st.sampled_from([0.0, 0.25]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_byte_equal_to_dense_bowl(
        self, curvature, dimension, scale, offset, seed
    ):
        rng = np.random.default_rng(seed)
        optimum = rng.standard_normal(dimension)
        scalar = QuadraticBowl(
            dimension, optimum=optimum, curvature=curvature, offset=offset
        )
        dense = QuadraticBowl(
            dimension,
            optimum=optimum,
            curvature=curvature * np.eye(dimension),
            offset=offset,
        )
        assert isinstance(scalar.curvature, float)
        assert dense.curvature.shape == (dimension, dimension)
        for _ in range(3):
            x = optimum + scale * rng.standard_normal(dimension)
            assert scalar.exact_gradient(x).tobytes() == (
                dense.exact_gradient(x).tobytes()
            )
            assert np.float64(scalar.value(x)).tobytes() == (
                np.float64(dense.value(x)).tobytes()
            )

    def test_inf_coordinate_stays_local(self):
        """The dense product spreads one infinite coordinate to NaN on
        every other coordinate (``0·inf``); the scalar form keeps it
        local."""
        scalar = QuadraticBowl(4, curvature=2.0)
        dense = QuadraticBowl(4, curvature=2.0 * np.eye(4))
        x = np.array([1.0, np.inf, -3.0, 0.5])
        np.testing.assert_array_equal(
            scalar.exact_gradient(x), [2.0, np.inf, -6.0, 1.0]
        )
        assert scalar.value(x) == np.inf
        with np.errstate(invalid="ignore"):
            smeared = dense.exact_gradient(x)
            dense_value = dense.value(x)
        assert np.isnan(np.delete(smeared, 1)).all()
        assert np.isnan(dense_value)

    def test_nan_coordinate_stays_local(self):
        scalar = QuadraticBowl(3, curvature=0.5)
        grad = scalar.exact_gradient(np.array([np.nan, 2.0, -4.0]))
        assert np.isnan(grad[0])
        np.testing.assert_array_equal(grad[1:], [1.0, -2.0])
        assert np.isnan(scalar.value(np.array([np.nan, 2.0, -4.0])))

    def test_matrix_curvature_stays_dense(self, rng):
        matrix = rng.standard_normal((3, 3))
        curvature = matrix @ matrix.T + np.eye(3)
        bowl = QuadraticBowl(3, curvature=curvature)
        np.testing.assert_array_equal(bowl.curvature, curvature)
        x = rng.standard_normal(3)
        assert bowl.exact_gradient(x).tobytes() == (curvature @ x).tobytes()

    def test_rejects_non_positive_scalar(self):
        with pytest.raises(ConfigurationError, match="positive definite"):
            QuadraticBowl(3, curvature=0.0)
