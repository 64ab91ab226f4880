"""Unit tests for the vectorised transform cache."""

import numpy as np
import pytest

from repro.core.convex import RangeLineFitter
from repro.core.models import (
    ALL_MODELS,
    MODEL_REGISTRY,
    FragmentFit,
    get_model,
    make_approximation,
)
from repro.core.transforms import precompute_transform


def longest_fragment(model, pre, start):
    """The longest fragment from ``start``, fitted through the cached arrays."""
    fitter = RangeLineFitter()
    end = fitter.extend(pre.t, pre.lo, pre.hi, start, len(pre.t))
    return FragmentFit(start, end, model.params_from_line(*fitter.line()))


class TestPrecompute:
    @pytest.mark.parametrize(
        "name", [n for n in ALL_MODELS if MODEL_REGISTRY[n].n_params == 2]
    )
    def test_cached_matches_scalar_path(self, name, rng):
        """The cached fitter must produce the same fragments as the scalar one."""
        model = get_model(name)
        z = 500 + np.cumsum(rng.normal(0, 3, 150))
        eps = 5.0
        pre = precompute_transform(model, eps, z)
        assert pre is not None
        start = 0
        while start < len(z):
            fast = longest_fragment(model, pre, start)
            slow = make_approximation(z, start, model, eps)
            assert fast.start == slow.start
            assert fast.end == slow.end
            assert fast.params == pytest.approx(slow.params)
            start = fast.end

    def test_anchored_models_not_cached(self):
        z = np.arange(1.0, 50.0)
        assert precompute_transform(get_model("anchored_quadratic"), 1.0, z) is None
        assert precompute_transform(get_model("gaussian"), 1.0, z) is None

    def test_cached_transform_arrays_match_scalar_transform(self, rng):
        z = 300 + rng.uniform(0, 100, 60)
        eps = 2.0
        for name in ("linear", "exponential", "power", "logarithmic",
                     "radical", "quadratic", "quadratic_linear",
                     "cubic_linear", "cubic_quadratic"):
            model = get_model(name)
            pre = precompute_transform(model, eps, z)
            for k in (0, 10, 59):
                t, lo, hi = model.transform(k + 1, float(z[k]), eps)
                assert pre.t[k] == pytest.approx(t)
                assert pre.lo[k] == pytest.approx(lo)
                assert pre.hi[k] == pytest.approx(hi)

    def test_fragment_feasibility(self, rng):
        z = 400 + np.cumsum(rng.normal(0, 2, 120))
        model = get_model("radical")
        pre = precompute_transform(model, 4.0, z)
        fit = longest_fragment(model, pre, 0)
        xs = np.arange(1, fit.end + 1, dtype=np.float64)
        assert np.max(np.abs(model.evaluate(fit.params, xs) - z[:fit.end])) <= 4.0 + 1e-6
