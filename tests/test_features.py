import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from gbtwin.dataset import DataError
from gbtwin.features import (
    SELU_LAMBDA,
    RandomLayer,
    activate,
    enhanced_features,
    hidden_features,
    init_random_layer,
    layer_from_meta,
    layer_meta,
)

from _oracles import activate_reference, masked_selu_reference


class TestActivate:
    @pytest.mark.parametrize(
        "kind,x,expected",
        [
            (2, -1.0, 0.0),
            (2, 2.0, 2.0),
            (3, 0.0, 0.5),
            (6, 0.25, 0.75),
            (7, 0.0, 1.0),
            (1, 0.0, 0.0),
            (1, 1.0, SELU_LAMBDA),
            (4, math.pi / 2, 1.0),
            (5, 0.0, 1.0),  # hardlim convention at zero
            (8, 0.0, 0.0),  # sign convention at zero
            (9, -1.0, -0.01),
            (9, 2.0, 2.0),
        ],
    )
    def test_pinned_values(self, kind, x, expected):
        assert activate(kind, x) == pytest.approx(expected)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            activate(10, 0.0)
        with pytest.raises(ValueError):
            activate(0, 0.0)

    @given(
        st.integers(1, 9),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_total_and_finite(self, kind, x):
        out = activate(kind, x)
        assert np.isfinite(out)

    def test_vectorized(self):
        out = activate(2, np.array([-1.0, 0.5]))
        assert out.tolist() == [0.0, 0.5]


EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324])


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def sample_values():
    rng = np.random.default_rng(4)
    return np.concatenate([
        rng.normal(scale=3.0, size=20000),
        rng.uniform(-40.0, 40.0, size=20000),
        rng.uniform(-800.0, 800.0, size=2000),
        EDGES,
    ])


class TestActivateMatchesReference:
    """Each activation runs in place; only sigmoid may leave the earlier bits."""

    @pytest.mark.parametrize("kind", [1, 2, 4, 5, 6, 7, 8, 9])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bit_equal(self, kind):
        x = sample_values()
        grid = x[: 200 * 201].reshape(200, 201)
        for values in (x, grid, *EDGES):
            got, want = activate(kind, values), activate_reference(kind, values)
            assert np.array_equal(bits(got), bits(want)), values

    def test_selu_has_the_bits_of_the_masked_copy(self):
        # max(z, 0) + neg replaced copying neg under the mask ~(z > 0)
        rng = np.random.default_rng(7)
        edges = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]
        block = rng.normal(scale=2.0, size=(256, 103))
        block.flat[: len(edges)] = edges
        for values in (block, np.array(edges), rng.normal(size=1001)):
            assert np.array_equal(bits(activate(1, values)), bits(masked_selu_reference(values)))

    def test_sigmoid_within_8_ulp_of_expit(self):
        x = sample_values()
        got, want = activate(3, x), expit(x)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.all(np.abs(got[ok] - want[ok]) <= 8 * np.spacing(want[ok]))

    def test_sigmoid_exact_points_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert activate(3, 0.0) == 0.5
            assert activate(3, -1000.0) == 0.0
            assert activate(3, 1000.0) == 1.0
            out = activate(3, np.array([0.0, -1000.0, 1000.0]))
        assert out.tolist() == [0.5, 0.0, 1.0]

    @pytest.mark.parametrize("kind", range(1, 10))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_input_left_unchanged(self, kind):
        x = sample_values()
        before = x.copy()
        activate(kind, x)
        activate(kind, x[::3])
        assert np.array_equal(bits(x), bits(before))

    def test_hidden_sigmoid_saturates_to_zero_without_warning(self):
        layer = RandomLayer(weights=np.ones((2, 3)), bias=np.zeros(3), activation=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            Z = hidden_features(layer, [[-400.0, -400.0], [-356.0, -355.0]])
        assert np.array_equal(Z, np.zeros((2, 3)))


class TestRandomLayer:
    def test_shapes(self):
        layer = init_random_layer(3, 5, activation=2, seed=0)
        assert layer.weights.shape == (3, 5)
        assert layer.bias.shape == (5,)

    def test_deterministic(self):
        a = init_random_layer(4, 7, activation=1, seed=42)
        b = init_random_layer(4, 7, activation=1, seed=42)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_uniform_range(self):
        layer = init_random_layer(50, 50, activation=2, seed=3)
        assert layer.weights.min() >= -1.0 and layer.weights.max() <= 1.0
        assert layer.bias.min() >= -1.0 and layer.bias.max() <= 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            init_random_layer(0, 5, activation=2, seed=0)
        with pytest.raises(ValueError):
            init_random_layer(3, 5, activation=10, seed=0)


class TestHiddenFeatures:
    def test_sigmoid_of_zero_inputs(self):
        from gbtwin.features import RandomLayer

        weights = init_random_layer(3, 4, activation=3, seed=0).weights.copy()
        layer = RandomLayer(weights=weights, bias=np.zeros(4), activation=3, seed=0)
        Z = hidden_features(layer, np.zeros((2, 3)))
        assert np.allclose(Z, 0.5)

    def test_single_row(self):
        layer = init_random_layer(3, 5, activation=2, seed=1)
        assert hidden_features(layer, np.zeros((1, 3))).shape == (1, 5)

    def test_relu_non_negative(self):
        layer = init_random_layer(3, 6, activation=2, seed=2)
        X = np.random.default_rng(0).normal(size=(4, 3))
        assert np.all(hidden_features(layer, X) >= 0.0)

    def test_dimension_mismatch(self):
        layer = init_random_layer(3, 5, activation=2, seed=1)
        with pytest.raises(ValueError, match="expected 3"):
            hidden_features(layer, np.zeros((2, 4)))


class TestEnhancedFeatures:
    def test_shape(self):
        layer = init_random_layer(3, 5, activation=3, seed=0)
        H = enhanced_features(layer, np.ones((2, 3)))
        assert H.shape == (2, 8)

    def test_original_block_identity(self):
        layer = init_random_layer(4, 6, activation=1, seed=9)
        X = np.random.default_rng(1).normal(size=(5, 4))
        H = enhanced_features(layer, X)
        assert np.array_equal(H[:, 6:], X)  # bit-exact

    def test_grid_edge_width(self):
        layer = init_random_layer(3, 203, activation=2, seed=0)
        H = enhanced_features(layer, np.zeros((2, 3)))
        assert H.shape == (2, 206)


class TestNonFiniteRule:
    """Neither map returns a non-finite matrix, even from finite input."""

    @staticmethod
    def ones_layer(activation):
        return RandomLayer(weights=np.ones((2, 3)), bias=np.zeros(3),
                           activation=activation, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_hidden_overflow_rejected(self):
        layer = self.ones_layer(activation=2)
        with pytest.raises(DataError, match="feature matrix contains non-finite entries"):
            hidden_features(layer, [[1e308, 1e308]])

    def test_enhanced_rejects_non_finite_original_block(self):
        layer = self.ones_layer(activation=3)
        X = [[np.inf, 0.0]]
        assert np.all(np.isfinite(hidden_features(layer, X)))  # sigmoid(inf) = 1
        with pytest.raises(DataError, match="feature matrix contains non-finite entries"):
            enhanced_features(layer, X)

    def test_hidden_overflow_rejected_without_warning(self):
        layer = self.ones_layer(activation=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="feature matrix contains non-finite entries"):
                hidden_features(layer, [[1e308, 1e308]])
            with pytest.raises(DataError, match="feature matrix contains non-finite entries"):
                enhanced_features(layer, [[1e308, 1e308]])

    def test_radbas_square_overflow_is_zero(self):
        # |z| > 1.34e154 squares to inf, and exp(-inf) = 0 is the intended value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert activate(7, 1e200) == 0.0
            Z = hidden_features(init_random_layer(2, 3, 7, 0), [[1e200, 1e200]])
        assert Z.shape == (1, 3)
        assert np.all(Z == 0.0)


class TestLayerMeta:
    def test_roundtrip(self):
        layer = init_random_layer(5, 11, activation=4, seed=77)
        back = layer_from_meta(layer_meta(layer))
        assert np.array_equal(back.weights, layer.weights)
        assert np.array_equal(back.bias, layer.bias)

    def test_checksum_mismatch(self):
        meta = layer_meta(init_random_layer(5, 11, activation=4, seed=77))
        meta["checksum"] = "0" * 16
        with pytest.raises(ValueError, match="checksum"):
            layer_from_meta(meta)
