"""Unit tests for the Table-I function models."""

import numpy as np
import pytest

from repro.core.models import (
    ALL_MODELS,
    DEFAULT_MODELS,
    MODEL_REGISTRY,
    get_model,
    make_approximation,
)

TWO_PARAM = [name for name in ALL_MODELS if MODEL_REGISTRY[name].n_params == 2]
THREE_PARAM = [name for name in ALL_MODELS if MODEL_REGISTRY[name].n_params == 3]


class TestRegistry:
    def test_default_models_registered(self):
        for name in DEFAULT_MODELS:
            assert name in MODEL_REGISTRY

    def test_unknown_model_raises_with_hint(self):
        with pytest.raises(ValueError, match="known models"):
            get_model("sinusoid")

    def test_names_match_keys(self):
        for name, model in MODEL_REGISTRY.items():
            assert model.name == name

    def test_param_counts(self):
        assert set(THREE_PARAM) == {"anchored_quadratic", "gaussian"}
        for name in TWO_PARAM:
            assert MODEL_REGISTRY[name].n_params == 2


class TestScalarVectorConsistency:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_evaluate_at_matches_evaluate(self, name):
        model = get_model(name)
        params = (0.01, 1.5) if model.n_params == 2 else (1e-4, 0.03, 2.0)
        xs = np.array([1.0, 5.0, 40.0, 999.0])
        vec = model.evaluate(params, xs)
        for x, v in zip(xs, vec):
            assert model.evaluate_at(params, float(x)) == float(v)


class TestTransformInverse:
    @pytest.mark.parametrize("name", TWO_PARAM)
    def test_line_through_transform_is_eps_feasible(self, name):
        """params_from_line must invert the transform: if the fitted line
        satisfies the transformed inequalities, f must ε-approximate z."""
        model = get_model(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        eps = 4.0
        z = 500 + np.abs(np.cumsum(rng.normal(0, 2, 50)))
        fit = make_approximation(z, 0, model, eps)
        xs = np.arange(fit.start + 1, fit.end + 1, dtype=np.float64)
        approx = model.evaluate(fit.params, xs)
        assert np.max(np.abs(approx - z[fit.start:fit.end])) <= eps + 1e-6


class TestMakeApproximation:
    def test_covers_at_least_one_point(self):
        z = np.array([10.0, 5000.0, 10.0])
        for name in ALL_MODELS:
            fit = make_approximation(z, 0, get_model(name), 0.5)
            assert fit.end > fit.start

    def test_perfect_linear_data_single_fragment(self):
        z = 3.0 * np.arange(1, 101) + 17
        fit = make_approximation(z, 0, get_model("linear"), 0.0)
        assert fit.end == 100

    def test_perfect_exponential_data_single_fragment(self):
        xs = np.arange(1, 80, dtype=np.float64)
        z = 5.0 * np.exp(0.05 * xs)
        fit = make_approximation(z, 0, get_model("exponential"), 1.0)
        assert fit.end == 79

    def test_perfect_quadratic_data_single_fragment(self):
        xs = np.arange(1, 80, dtype=np.float64)
        z = 0.25 * xs * xs + 40
        fit = make_approximation(z, 0, get_model("quadratic"), 0.5)
        assert fit.end == 79

    def test_perfect_sqrt_data_single_fragment(self):
        xs = np.arange(1, 80, dtype=np.float64)
        z = 12.0 * np.sqrt(xs) + 3
        fit = make_approximation(z, 0, get_model("radical"), 0.5)
        assert fit.end == 79

    def test_anchored_quadratic_passes_through_anchor(self):
        rng = np.random.default_rng(0)
        z = 100 + np.cumsum(rng.normal(0, 1, 60))
        model = get_model("anchored_quadratic")
        fit = make_approximation(z, 0, model, 5.0)
        assert model.evaluate_at(fit.params, 1) == pytest.approx(z[0])

    def test_anchored_quadratic_respects_eps(self):
        rng = np.random.default_rng(1)
        z = 200 + np.cumsum(rng.normal(0, 0.5, 80))
        model = get_model("anchored_quadratic")
        eps = 3.0
        fit = make_approximation(z, 0, model, eps)
        xs = np.arange(1, fit.end + 1, dtype=np.float64)
        approx = model.evaluate(fit.params, xs)
        assert np.max(np.abs(approx - z[:fit.end])) <= eps + 1e-6

    def test_gaussian_respects_eps(self):
        xs = np.arange(1, 100, dtype=np.float64)
        z = 50 * np.exp(-((xs - 50) ** 2) / 400) + 10
        model = get_model("gaussian")
        eps = 2.0
        fit = make_approximation(z, 0, model, eps)
        out = model.evaluate(fit.params, np.arange(1, fit.end + 1, dtype=np.float64))
        assert np.max(np.abs(out - z[:fit.end])) <= eps + 1e-6
        assert fit.end > 5  # a gaussian should fit a gaussian well

    def test_start_offset(self):
        z = np.concatenate([[1e6], 2.0 * np.arange(1, 50) + 5])
        fit = make_approximation(z, 1, get_model("linear"), 0.1)
        assert fit.start == 1
        assert fit.end == 50

    def test_start_out_of_range(self):
        with pytest.raises(ValueError):
            make_approximation(np.array([1.0]), 1, get_model("linear"), 0.0)

    def test_max_end_caps_fragment(self):
        z = np.full(100, 7.0)
        fit = make_approximation(z, 0, get_model("linear"), 1.0, max_end=10)
        assert fit.end == 10

    def test_longer_eps_longer_fragment(self):
        rng = np.random.default_rng(2)
        z = 100 + np.cumsum(rng.normal(0, 2, 200))
        model = get_model("linear")
        short = make_approximation(z, 0, model, 1.0)
        long = make_approximation(z, 0, model, 20.0)
        assert long.end >= short.end


class TestEpsZero:
    @pytest.mark.parametrize("name", ["linear", "quadratic", "radical"])
    def test_eps_zero_exact_interpolation(self, name):
        """With ε=0 the function must pass within 1 unit of every point
        (float geometry can leave sub-unit slack; corrections absorb it)."""
        model = get_model(name)
        z = np.array([10.0, 12.0, 14.0, 16.0])
        fit = make_approximation(z, 0, model, 0.0)
        xs = np.arange(1, fit.end + 1, dtype=np.float64)
        assert np.max(np.abs(model.evaluate(fit.params, xs) - z[:fit.end])) < 1.0
