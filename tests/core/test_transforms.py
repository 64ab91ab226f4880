"""Unit tests for the vectorised transform cache."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.convex import RangeLineFitter
from repro.core.models import (
    ALL_MODELS,
    MODEL_REGISTRY,
    FragmentFit,
    get_model,
    make_approximation,
)
from repro.core.transforms import PairTransform, precompute_transform, two_point_starts


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


TWO_PARAM_KINDS = [n for n in ALL_MODELS if MODEL_REGISTRY[n].n_params == 2]


def _lists(pre):
    return pre.t.tolist(), pre.lo.tolist(), pre.hi.tolist()


def _extends_to(t, lo, hi, k):
    """Where a fresh fitter's ``extend`` from ``k`` stops, or None if it raises."""
    try:
        return RangeLineFitter().extend(t, lo, hi, k, len(t))
    except ValueError:
        return None


def _assert_marks_match_extend(pre):
    """``mark[k]`` iff a fresh ``extend`` from ``k`` returns ``k + 2``, and the
    last two starts are never marked."""
    mark = two_point_starts(pre).tolist()
    t, lo, hi = _lists(pre)
    n = len(t)
    assert len(mark) == n
    for k in range(n - 2):
        assert mark[k] == (_extends_to(t, lo, hi, k) == k + 2), k
    assert not any(mark[max(n - 2, 0):])


#: short integer series mixing noise, constant runs and collinear stretches
_piece = st.tuples(
    st.sampled_from(("noise", "constant", "line")),
    st.integers(1, 12),
    st.integers(-(10**5), 10**5),
    st.integers(-6, 6),
    st.lists(st.integers(-3, 3), min_size=12, max_size=12),
)


def _series(pieces):
    parts = []
    for kind, length, level, slope, noise in pieces:
        if kind == "noise":
            parts.append(level + np.array(noise[:length]))
        elif kind == "constant":
            parts.append(np.full(length, level))
        else:
            parts.append(level + slope * np.arange(length))
    return np.concatenate(parts).astype(np.int64)


class TestTwoPointStarts:
    """``two_point_starts`` marks exactly the starts where ``extend`` returns
    ``k + 2``: the partitioner skips ``extend`` there."""

    @pytest.mark.parametrize("name", TWO_PARAM_KINDS)
    @given(
        y=st.lists(_piece, min_size=1, max_size=8).map(_series),
        eps=st.sampled_from([0, 0, 1, 2, 7, 100]),
    )
    @example(y=np.array([5, 7, 9, 11, 11, 11, 4], dtype=np.int64), eps=0)
    @settings(max_examples=40, deadline=None)
    def test_marked_iff_extend_stops_after_two(self, name, y, eps):
        z = y.astype(np.float64) + (1 + eps - int(y.min()))
        _assert_marks_match_extend(precompute_transform(get_model(name), float(eps), z))

    def test_collinear_triple_at_eps_zero_is_a_tie(self):
        """Three collinear points with ε = 0 meet extend's test with equality:
        the fragment goes on, so the start is not marked."""
        z = np.array([10.0, 13.0, 16.0, 30.0])
        pre = precompute_transform(get_model("linear"), 0.0, z)
        assert two_point_starts(pre).tolist() == [False, True, False, False]
        t, lo, hi = _lists(pre)
        assert _extends_to(t, lo, hi, 0) == 3
        assert _extends_to(t, lo, hi, 1) == 3

    @given(
        ranges=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0]),
                st.sampled_from([-2.0, 0.0, 0.0, 1.0, 4.0]),
                st.sampled_from([-1.0, 0.0, 0.0, 1.0, 4.0]),
            ),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_starts_that_raise_are_not_marked(self, ranges):
        """On raw ranges (steps of 0, empty ranges, ties) a start is marked iff
        extend returns k + 2 without raising."""
        cols = np.array(ranges, dtype=np.float64).reshape(-1, 3)
        _assert_marks_match_extend(
            PairTransform(np.cumsum(cols[:, 0]), cols[:, 1], cols[:, 2])
        )
