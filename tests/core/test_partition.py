"""Unit tests for Algorithm 1 (optimal partitioning)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.convex import RangeLineFitter
from repro.core.models import ALL_MODELS, get_model, make_approximation
from repro.core.partition import (
    FRAGMENT_OVERHEAD_BITS,
    LAYOUT_FRAGMENT_BITS,
    PARAM_BITS,
    Fragment,
    PartitionResult,
    correction_bits,
    partition,
    partition_lossy,
)
from repro.core.transforms import precompute_transform


def kappa_of(model, lossy=False):
    """κ_f: the parameters, plus the frame's per-fragment metadata when
    lossless and the lossy codecs' flat overhead otherwise."""
    overhead = FRAGMENT_OVERHEAD_BITS if lossy else LAYOUT_FRAGMENT_BITS
    return model.n_params * PARAM_BITS + overhead


def brute_force_optimal_cost(z, models, eps_set, lossy=False):
    """Exact shortest path over the *explicit* fragment DAG (small n only)."""
    n = len(z)
    INF = float("inf")
    dist = [INF] * (n + 1)
    dist[0] = 0.0
    # For each start i and pair, the longest feasible end; every sub-fragment
    # [i, j) with j <= end is then an edge.
    for i in range(n):
        if dist[i] == INF:
            continue
        for m in models:
            model = get_model(m)
            kappa = kappa_of(model, lossy)
            for eps in eps_set:
                cbits = 0 if lossy else correction_bits(eps)
                end = make_approximation(z, i, model, eps).end
                for j in range(i + 1, end + 1):
                    w = (j - i) * cbits + kappa
                    if dist[i] + w < dist[j]:
                        dist[j] = dist[i] + w
    return dist[n]


class TestCorrectionBits:
    @pytest.mark.parametrize(
        "eps,bits", [(0, 0), (1, 2), (2, 3), (3, 3), (7, 4), (127, 8)]
    )
    def test_known_values(self, eps, bits):
        assert correction_bits(eps) == bits
        # Definition check: ceil(log2(2eps+1)).
        if eps > 0:
            assert bits == math.ceil(math.log2(2 * eps + 1))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            correction_bits(-1)


class TestPartitionBasics:
    def test_empty_series(self):
        result = partition(np.array([]), ["linear"], [1.0])
        assert result.fragments == []
        assert result.cost_bits == 0.0

    def test_requires_models_and_eps(self):
        with pytest.raises(ValueError):
            partition(np.array([1.0]), [], [1.0])
        with pytest.raises(ValueError):
            partition(np.array([1.0]), ["linear"], [])

    def test_fragments_cover_and_are_consecutive(self, rng):
        z = 1000 + np.cumsum(rng.normal(0, 5, 300))
        result = partition(z, ["linear", "quadratic"], [1.0, 7.0])
        frags = result.fragments
        assert frags[0].start == 0
        assert frags[-1].end == len(z)
        for a, b in zip(frags, frags[1:]):
            assert a.end == b.start

    def test_every_fragment_is_eps_feasible(self, rng):
        z = 1000 + np.cumsum(rng.normal(0, 5, 300))
        result = partition(z, ["linear", "exponential", "radical"], [1.0, 7.0, 31.0])
        for frag in result.fragments:
            model = get_model(frag.model_name)
            xs = np.arange(frag.start + 1, frag.end + 1, dtype=np.float64)
            err = np.max(np.abs(model.evaluate(frag.params, xs) - z[frag.start:frag.end]))
            assert err <= frag.eps + 1e-6, (frag.model_name, frag.eps, err)

    def test_constant_series_one_fragment(self):
        z = np.full(200, 55.0)
        result = partition(z, ["linear"], [0.0])
        assert len(result.fragments) == 1


class TestOptimality:
    def test_matches_brute_force_single_pair(self, rng):
        for trial in range(5):
            z = 100 + np.cumsum(rng.normal(0, 6, 40))
            got = partition(z, ["linear"], [3.0])
            want = brute_force_optimal_cost(z, ["linear"], [3.0])
            assert got.cost_bits == pytest.approx(want)

    def test_close_to_full_dag_optimum_multi_pair(self, rng):
        """Algorithm 1 optimises over the paper's graph G: maximal fragments
        plus their prefixes and suffixes.  The *full* DAG (fragments from
        every start position) is strictly larger, and with mixed ε-values its
        optimum can undercut G's by a boundary position or one extra κ; the
        paper's algorithm is defined on G, so we assert G's solution is never
        below the full optimum and within one fragment overhead of it."""
        kappa = kappa_of(get_model("linear"))
        for trial in range(4):
            z = 200 + np.cumsum(rng.normal(0, 8, 35))
            models = ["linear", "quadratic"]
            eps_set = [1.0, 7.0]
            got = partition(z, models, eps_set)
            want = brute_force_optimal_cost(z, models, eps_set)
            assert want - 1e-9 <= got.cost_bits <= want + kappa

    def test_matches_brute_force_lossy(self, rng):
        for trial in range(4):
            z = 150 + np.cumsum(rng.normal(0, 4, 40))
            got = partition_lossy(z, ["linear", "radical"], 5.0)
            want = brute_force_optimal_cost(z, ["linear", "radical"], [5.0], lossy=True)
            assert got.cost_bits == pytest.approx(want)

    def test_superset_models_never_worse(self, rng):
        z = 300 + np.cumsum(rng.normal(0, 5, 200))
        small = partition(z, ["linear"], [1.0, 7.0])
        large = partition(z, ["linear", "exponential", "quadratic"], [1.0, 7.0])
        assert large.cost_bits <= small.cost_bits + 1e-9

    def test_superset_eps_never_worse(self, rng):
        z = 300 + np.cumsum(rng.normal(0, 5, 200))
        small = partition(z, ["linear"], [7.0])
        large = partition(z, ["linear"], [1.0, 7.0, 31.0])
        assert large.cost_bits <= small.cost_bits + 1e-9

    def test_cost_equals_sum_of_fragment_weights(self, rng):
        z = 100 + np.cumsum(rng.normal(0, 5, 150))
        result = partition(z, ["linear", "quadratic"], [1.0, 7.0])
        total = 0.0
        for f in result.fragments:
            model = get_model(f.model_name)
            total += (f.end - f.start) * correction_bits(f.eps)
            total += kappa_of(model)
        assert result.cost_bits == pytest.approx(total)


class TestLossyMode:
    def test_lossy_prefers_fewer_fragments(self, rng):
        z = 100 + np.cumsum(rng.normal(0, 3, 300))
        lossy = partition_lossy(z, ["linear"], 10.0)
        lossless = partition(z, ["linear"], [10.0])
        # The lossy objective ignores per-point corrections, so its optimal
        # solution uses as few fragments as feasibility allows.
        assert len(lossy.fragments) <= len(lossless.fragments) + 1

    def test_lossy_respects_bound(self, rng):
        z = 100 + np.cumsum(rng.normal(0, 3, 200))
        eps = 8.0
        result = partition_lossy(z, ["linear", "exponential"], eps)
        for frag in result.fragments:
            model = get_model(frag.model_name)
            xs = np.arange(frag.start + 1, frag.end + 1, dtype=np.float64)
            err = np.max(np.abs(model.evaluate(frag.params, xs) - z[frag.start:frag.end]))
            assert err <= eps + 1e-6


# -- oracle: Algorithm 1 as it ran before the chains were stored ---------------


def _reference_partition(z, models, eps_set, lossy=False):
    """Algorithm 1 with every pair's transform held at once and each fragment
    fitted when the relaxation reaches its start (the implementation the
    chain-based one replaced), kept as a test oracle."""
    n = len(z)
    if n == 0:
        return PartitionResult([], 0.0)
    resolved = [get_model(m) if isinstance(m, str) else m for m in models]
    pairs, cached, cbits, kappa = [], [], [], []
    for model in resolved:
        kap = kappa_of(model, lossy)
        for eps in eps_set:
            pairs.append((model, eps))
            pre = precompute_transform(model, eps, z)
            cached.append(
                None if pre is None
                else (pre.t.tolist(), pre.lo.tolist(), pre.hi.tolist())
            )
            cbits.append(0 if lossy else correction_bits(eps))
            kappa.append(kap)
    n_pairs = len(pairs)
    starts = [0] * n_pairs
    ends = [0] * n_pairs
    fitter = RangeLineFitter()
    reset, extend = fitter.reset, fitter.extend

    def longest(p, k):
        pre = cached[p]
        if pre is None:
            model, eps = pairs[p]
            fit = make_approximation(z, k, model, eps)
            return fit.end, fit.params
        reset()
        end = extend(pre[0], pre[1], pre[2], k, n)
        if end == k:
            raise RuntimeError(f"model {pairs[p][0].name!r} cannot start at index {k}")
        return end, None

    INF = float("inf")
    distance = [INF] * (n + 1)
    distance[0] = 0.0
    previous = [None] * (n + 1)
    for k in range(n):
        dk = distance[k]
        for p in range(n_pairs):
            if ends[p] <= k:
                ends[p] = longest(p, k)[0]
                starts[p] = k
            else:
                i = starts[p]
                cand = distance[i] + ((k - i) * cbits[p] + kappa[p])
                if cand < dk:
                    distance[k] = dk = cand
                    previous[k] = (i, p, i)
        for p in range(n_pairs):
            j = ends[p]
            cand = dk + ((j - k) * cbits[p] + kappa[p])
            if cand < distance[j]:
                distance[j] = cand
                previous[j] = (k, p, starts[p])
    fragments = []
    v = n
    while v > 0:
        u, p, s = previous[v]
        _, params = longest(p, s)
        model, eps = pairs[p]
        if params is None:
            params = model.params_from_line(*fitter.line())
        fragments.append(Fragment(u, v, model.name, eps, params))
        v = u
    fragments.reverse()
    return PartitionResult(fragments, distance[n])


def _build_series(pieces):
    """Concatenate noise, constant and exactly collinear pieces, cut to 600."""
    parts = []
    for kind, length, level, slope, seed in pieces:
        if kind == "noise":
            rng = np.random.default_rng(seed)
            parts.append(level + rng.integers(-abs(slope), abs(slope) + 1, length))
        elif kind == "constant":
            parts.append(np.full(length, level))
        else:
            parts.append(level + slope * np.arange(length))
    return np.concatenate(parts).astype(np.int64)[:600]


#: integer series of 1-600 values with constant runs and collinear stretches
shaped_series = st.lists(
    st.tuples(
        st.sampled_from(("noise", "constant", "line")),
        st.integers(1, 150),
        st.integers(-(10**6), 10**6),
        st.integers(-40, 40),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=10,
).map(_build_series)


def _shifted(y, eps_set):
    """``z = y + shift`` with NeaTS's positivity shift (paper footnote 2)."""
    return y.astype(np.float64) + (1 + max(eps_set) - int(y.min()))


class TestAgainstReference:
    @given(
        y=shaped_series,
        models=st.lists(
            st.sampled_from(ALL_MODELS), min_size=1, max_size=4, unique=True
        ),
        eps=st.lists(st.integers(1, 2**12), max_size=3, unique=True),
        zero_at=st.integers(0, 3),
        lossy=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_fragments_and_cost(self, y, models, eps, zero_at, lossy):
        eps_set = [float(e) for e in eps]
        eps_set.insert(min(zero_at, len(eps_set)), 0.0)
        z = _shifted(y, eps_set)
        got = partition(z, models, eps_set, lossy=lossy)
        want = _reference_partition(z, models, eps_set, lossy=lossy)
        assert got.fragments == want.fragments
        assert got.cost_bits == want.cost_bits


class TestMemory:
    def test_one_pair_transform_at_a_time(self):
        """44 (f, ε) pairs over 1,024 values: holding every pair's transform
        as Python floats peaked at 4.2 MiB traced; one transform at a time
        plus the chain ends peaks near 0.4 MiB."""
        rng = np.random.default_rng(7)
        y = np.cumsum(rng.integers(-50, 51, 1024))
        eps_set = [0.0] + [float((1 << b) - 1) for b in range(1, 11)]
        z = _shifted(y, eps_set)
        models = ["linear", "exponential", "quadratic", "radical"]
        partition(z[:64], models, eps_set)  # warm up before tracing
        tracemalloc.start()
        try:
            result = partition(z, models, eps_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.fragments[-1].end == len(z)
        assert peak < 1.5 * 2**20

    def test_back_pointers_in_int64_columns(self):
        """One (f, ε) pair over 20,000 values of exactly linear pieces: with
        a tuple per node the back-pointers took the traced peak to 4.3 MiB;
        three int64 columns freed before the refit leave 2.9 MiB (3.4 MiB
        if they outlive it)."""
        rng = np.random.default_rng(5)
        slopes = rng.integers(-20, 21, 40)
        z = _shifted(np.cumsum(np.repeat(slopes, 500)), [0.0])
        partition(z[:64], ["linear"], [0.0])  # warm up before tracing
        tracemalloc.start()
        try:
            result = partition(z, ["linear"], [0.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.fragments[-1].end == len(z) == 20_000
        assert peak < 3.2 * 2**20
