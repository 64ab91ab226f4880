"""Unit tests for Algorithm 1 (optimal partitioning)."""

import importlib
import math
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.compressor import default_eps_set
from repro.core.convex import RangeLineFitter
from repro.core.models import ALL_MODELS, DEFAULT_MODELS, get_model, make_approximation
from repro.core.partition import (
    FRAGMENT_OVERHEAD_BITS,
    LAYOUT_FRAGMENT_BITS,
    PARAM_BITS,
    Fragment,
    PartitionResult,
    _live,
    _shortest_path,
    correction_bits,
    partition,
    partition_lossy,
)
from repro.core.transforms import precompute_transform
from repro.data import DATASETS

#: the module itself: ``repro.core.partition`` names the function
partition_module = importlib.import_module("repro.core.partition")


def kappa_of(model, lossy=False):
    """κ_f: the parameters, plus the frame's per-fragment metadata when
    lossless and the lossy codecs' flat overhead otherwise."""
    overhead = FRAGMENT_OVERHEAD_BITS if lossy else LAYOUT_FRAGMENT_BITS
    return model.n_params * PARAM_BITS + overhead


def fitted(z, eps, lossy=False):
    """The values and radius whose ``± radius`` fit is the range a fragment
    of ε is fitted to: ``z ± ε`` when lossy; when lossless, the f(x) whose
    floors the decoder stores in ε's width c, ``[z - 2^(c-1) + 1, z +
    2^(c-1) + 1)`` or ``[z, z + 1)`` at width 0, less ¼ on each side."""
    if lossy:
        return z, eps
    c = correction_bits(eps)
    if c == 0:
        return z + 0.5, 0.25
    return z + 1.0, 2 ** (c - 1) - 0.25


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
                zc, radius = fitted(z, eps, lossy)
                end = make_approximation(zc, i, model, radius).end
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
        """A lossless fragment of ε lies in the band of ε's width."""
        z = 1000 + np.cumsum(rng.normal(0, 5, 300))
        result = partition(z, ["linear", "exponential", "radical"], [1.0, 7.0, 31.0])
        for frag in result.fragments:
            model = get_model(frag.model_name)
            xs = np.arange(frag.start + 1, frag.end + 1, dtype=np.float64)
            zc, radius = fitted(z[frag.start:frag.end], frag.eps)
            err = np.max(np.abs(model.evaluate(frag.params, xs) - zc))
            assert err <= radius + 1e-6, (frag.model_name, frag.eps, err)

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
        # ε = 7's lossless band, [z - 6.75, z + 8.75], lies inside ±10.
        lossless = partition(z, ["linear"], [7.0])
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


class _FrozenFitter(RangeLineFitter):
    """``RangeLineFitter`` with a frozen copy of its one-fragment ``extend``
    (before the step became the loop that also walks whole chains), so that
    a change to the step cannot pass by changing the oracle with it."""

    def add(self, t, lo, hi):
        return self.extend((t,), (lo,), (hi,), 0, 1) == 1

    def extend(self, t, lo, hi, start: int, stop: int) -> int:
        """Add the ranges ``[lo[k], hi[k]]`` at ``t[k]`` for ``k`` in ``[start, stop)``.

        Returns the index of the first range rejected because no line can
        stab it together with every range accepted so far, or ``stop`` when
        all are accepted.  Abscissae must be strictly increasing.
        """
        upper, lower = self._upper, self._lower
        us, ls = self._upper_start, self._lower_start
        x0, y0, x1, y1, x2, y2, x3, y3 = self._rect
        count, last = self._count, self._last_t
        # Directions of the min-slope (corners 0-2) and max-slope (1-3) lines.
        min_dx, min_dy, max_dx, max_dy = x2 - x0, y2 - y0, x3 - x1, y3 - y1
        k = start
        try:
            while k < stop:
                tk = t[k]
                lk = lo[k]
                hk = hi[k]
                if lk > hk:
                    raise ValueError(f"empty range [{lk}, {hk}] at t={tk}")
                if count and tk <= last:
                    raise ValueError("abscissae must be strictly increasing")
                if count > 1:
                    # The new upper endpoint must lie above the min-slope
                    # line and the new lower endpoint below the max-slope
                    # line; otherwise the feasible polygon would be empty.
                    if (hk - y2) * min_dx < min_dy * (tk - x2) or (
                        max_dy * (tk - x3) < (lk - y3) * max_dx
                    ):
                        break
                    # Does the upper endpoint sharpen the max slope?  The
                    # lower-hull point that, paired with it, minimises the
                    # slope becomes the new max-slope support.
                    if (hk - y1) * max_dx < max_dy * (tk - x1):
                        best = ls
                        px, py = lower[best]
                        bx = px - tk
                        by = py - hk
                        for j in range(best + 1, len(lower)):
                            px, py = lower[j]
                            cx = px - tk
                            cy = py - hk
                            if by * cx < cy * bx:
                                break
                            bx, by = cx, cy
                            best = j
                        x1, y1 = lower[best]
                        x3, y3 = tk, hk
                        max_dx, max_dy = x3 - x1, y3 - y1
                        ls = best
                        end = len(upper)
                        while end >= us + 2:
                            ox, oy = upper[end - 2]
                            ax, ay = upper[end - 1]
                            if (ax - ox) * (hk - oy) - (ay - oy) * (tk - ox) <= 0:
                                end -= 1
                            else:
                                break
                        del upper[end:]
                        upper.append((tk, hk))
                    # Does the lower endpoint sharpen the min slope?
                    if min_dy * (tk - x0) < (lk - y0) * min_dx:
                        best = us
                        px, py = upper[best]
                        bx = px - tk
                        by = py - lk
                        for j in range(best + 1, len(upper)):
                            px, py = upper[j]
                            cx = px - tk
                            cy = py - lk
                            if cy * bx < by * cx:
                                break
                            bx, by = cx, cy
                            best = j
                        x0, y0 = upper[best]
                        x2, y2 = tk, lk
                        min_dx, min_dy = x2 - x0, y2 - y0
                        us = best
                        end = len(lower)
                        while end >= ls + 2:
                            ox, oy = lower[end - 2]
                            ax, ay = lower[end - 1]
                            if (ax - ox) * (lk - oy) - (ay - oy) * (tk - ox) >= 0:
                                end -= 1
                            else:
                                break
                        del lower[end:]
                        lower.append((tk, lk))
                elif count:
                    x2, y2, x3, y3 = tk, lk, tk, hk
                    min_dx, min_dy, max_dx, max_dy = x2 - x0, y2 - y0, x3 - x1, y3 - y1
                    upper.append((tk, hk))
                    lower.append((tk, lk))
                else:
                    x0, y0, x1, y1 = tk, hk, tk, lk
                    upper.append((tk, hk))
                    lower.append((tk, lk))
                    us = ls = 0
                count += 1
                last = tk
                k += 1
        finally:
            self._upper_start, self._lower_start = us, ls
            self._rect = (x0, y0, x1, y1, x2, y2, x3, y3)
            self._count, self._last_t = count, last
        return k


def _anchored_longest(z, start, model, eps):
    """MAKE-APPROXIMATION for an anchored kind, through the frozen fitter:
    the steps of ``models._AnchoredFitter``."""
    fitter = _FrozenFitter()
    anchor_x, anchor_z = start + 1, float(z[start])
    k = start + 1
    while k < len(z):
        t, lo, hi = model.transform_anchored(k + 1, float(z[k]), eps, anchor_x, anchor_z)
        if not (math.isfinite(t) and math.isfinite(lo) and math.isfinite(hi)):
            break
        if lo > hi or not fitter.add(t, lo, hi):
            break
        k += 1
    if fitter.count == 0:
        return k, model.params_from_anchor_only(anchor_x, anchor_z)
    m, b = fitter.line()
    return k, model.params_from_line_anchored(m, b, anchor_x, anchor_z)


def _reference_partition(z, models, eps_set, lossy=False):
    """Algorithm 1 with every pair's transform held at once and each fragment
    fitted when the relaxation reaches its start (the implementation the
    chain-based one replaced), kept as a test oracle."""
    n = len(z)
    if n == 0:
        return PartitionResult([], 0.0)
    resolved = [get_model(m) if isinstance(m, str) else m for m in models]
    pairs, ranges, cached, cbits, kappa = [], [], [], [], []
    for model in resolved:
        kap = kappa_of(model, lossy)
        for eps in eps_set:
            pairs.append((model, eps))
            zc, radius = fitted(z, eps, lossy)
            ranges.append((zc, radius))
            pre = precompute_transform(model, radius, zc)
            cached.append(
                None if pre is None
                else (pre.t.tolist(), pre.lo.tolist(), pre.hi.tolist())
            )
            cbits.append(0 if lossy else correction_bits(eps))
            kappa.append(kap)
    fitter = _FrozenFitter()
    reset, extend = fitter.reset, fitter.extend

    def longest(p, k):
        pre = cached[p]
        if pre is None:
            zc, radius = ranges[p]
            return _anchored_longest(zc, k, pairs[p][0], radius)
        reset()
        end = extend(pre[0], pre[1], pre[2], k, n)
        if end == k:
            raise RuntimeError(f"model {pairs[p][0].name!r} cannot start at index {k}")
        return end, None

    path, cost = _reference_relaxation(
        n, lambda p, k: longest(p, k)[0], cbits, kappa
    )
    fragments = []
    for u, v, p, s in path:
        _, params = longest(p, s)
        model, eps = pairs[p]
        if params is None:
            params = model.params_from_line(*fitter.line())
        fragments.append(Fragment(u, v, model.name, eps, params))
    return PartitionResult(fragments, cost)


def _reference_relaxation(n, open_at, cbits, kappa):
    """Lines 7-26 of Algorithm 1 as they ran before the relaxation made one
    pass per node and left duplicate chains out: per node k, one pass over
    every pair for the prefix edges into k, then one for the suffix edges out
    of k.  ``open_at(p, k)`` is the end of the fragment pair p opens at k.
    Returns the path as ``(u, v, p, s)`` steps, and its cost."""
    n_pairs = len(cbits)
    starts = [0] * n_pairs
    ends = [0] * n_pairs
    INF = float("inf")
    distance = [INF] * (n + 1)
    distance[0] = 0.0
    previous = [None] * (n + 1)
    for k in range(n):
        dk = distance[k]
        for p in range(n_pairs):
            if ends[p] <= k:
                ends[p] = open_at(p, k)
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
    path = []
    v = n
    while v > 0:
        u, p, s = previous[v]
        path.append((u, v, p, s))
        v = u
    path.reverse()
    return path, distance[n]


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
    """``z = y + shift`` with the positivity shift of paper footnote 2,
    ``z - max(E) >= 1``: NeaTS's for its default ``E``."""
    return y.astype(np.float64) + (1 + max(eps_set) - int(y.min()))


#: model lists in any order, repeats allowed: a three-parameter kind listed
#: before a two-parameter one gives a later pair the smaller κ, and a repeated
#: kind gives pairs whose chains, widths and κ are equal
model_lists = st.lists(st.sampled_from(ALL_MODELS), min_size=1, max_size=4)
#: error bounds, repeats likely: a repeated ε also gives equal pairs
eps_values = st.one_of(st.sampled_from([1, 3, 7, 100]), st.integers(1, 2**12))
_CONSTANT = np.full(40, 7, dtype=np.int64)


class TestAgainstReference:
    @given(
        y=shaped_series,
        models=model_lists,
        eps=st.lists(eps_values, max_size=3),
        zero_at=st.integers(0, 3),
        lossy=st.booleans(),
    )
    # Every kind fits a constant series in one fragment, so every pair's
    # chain is [40]: a later pair with the smaller κ (linear after the
    # anchored quadratic) or the smaller width (ε = 0 after 7) must stay in.
    @example(y=_CONSTANT, models=["anchored_quadratic", "linear"], eps=[],
             zero_at=0, lossy=False)
    @example(y=_CONSTANT, models=["linear"], eps=[7], zero_at=1, lossy=False)
    @settings(max_examples=80, deadline=None)
    def test_same_fragments_and_cost(self, y, models, eps, zero_at, lossy):
        eps_set = [float(e) for e in eps]
        eps_set.insert(min(zero_at, len(eps_set)), 0.0)
        z = _shifted(y, eps_set)
        got = partition(z, models, eps_set, lossy=lossy)
        want = _reference_partition(z, models, eps_set, lossy=lossy)
        assert got.fragments == want.fragments
        assert got.cost_bits == want.cost_bits

    @given(y=shaped_series, models=model_lists, eps=st.integers(0, 2**12))
    @example(y=_CONSTANT, models=["gaussian", "radical"], eps=0)
    @settings(max_examples=40, deadline=None)
    def test_partition_lossy(self, y, models, eps):
        z = _shifted(y, [eps])
        got = partition_lossy(z, models, float(eps))
        want = _reference_partition(z, models, [float(eps)], lossy=True)
        assert got.fragments == want.fragments
        assert got.cost_bits == want.cost_bits


@st.composite
def chain_sets(draw):
    """Chains of up to 6 pairs over 1-40 nodes with widths 0-3 and κ 0-6, so
    that ties are frequent; a pair may repeat an earlier pair's chain."""
    n = draw(st.integers(1, 40))
    chains, cbits, kappa = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        if chains and draw(st.booleans()):
            chain = draw(st.sampled_from(chains))
        else:
            inner = draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n - 1))
            chain = array("q", sorted(e for e in inner if e < n) + [n])
        chains.append(chain)
        cbits.append(draw(st.integers(0, 3)))
        kappa.append(draw(st.integers(0, 6)))
    return n, chains, cbits, kappa


class TestShortestPathAgainstReference:
    """The one-pass relaxation over distinct chains against the two-pass one
    over every pair, on crafted chains: the same path, back-pointers and
    cost, ties included."""

    @given(chain_sets())
    # Node 1 ties at 6 between pair 1's suffix edge (0, 1) and pair 0's
    # prefix edge (0, 1): the suffix edge wins, and the path 0 -> 1 -> 3 uses
    # it, though pair 0 comes first.
    @example((3, [array("q", [2, 3]), array("q", [1, 3])], [3, 1], [3, 5]))
    # Node 1 ties at 2 between the prefix edges (0, 1) of pairs 0 and 2: the
    # lower pair wins, and the path 0 -> 1 -> 4 uses it.
    @example((4, [array("q", [4]), array("q", [1, 4]), array("q", [2, 4])],
              [2, 0, 2], [0, 4, 0]))
    @settings(max_examples=300, deadline=None)
    def test_same_path_and_cost(self, case):
        n, chains, cbits, kappa = case
        iters = [iter(chain) for chain in chains]
        want = _reference_relaxation(
            n, lambda p, k: next(iters[p]), cbits, kappa
        )
        assert _shortest_path(n, chains, cbits, kappa) == want


class TestDominance:
    """A pair is left out of the relaxation when another pair has the same
    chain, a width and κ both no larger, and one of them smaller or both
    equal and comes first; the dominated pair may come first."""

    # Pair 0 repeats pair 1's chain with the larger width and the same κ;
    # pair 2 repeats it with the same width and the larger κ.  Only pair 1
    # and pair 3, whose chain differs, stay.
    CASE = (
        3,
        [array("q", [1, 3]), array("q", [1, 3]), array("q", [1, 3]), array("q", [3])],
        [2, 1, 1, 0],
        [3, 3, 4, 9],
    )

    def test_dominated_pairs_are_left_out(self):
        _, chains, cbits, kappa = self.CASE
        assert [p for p, _ in _live(chains, cbits, kappa)] == [1, 3]

    def test_equal_pairs_keep_the_first(self):
        chains = [array("q", [2, 4])] * 3
        assert [p for p, _ in _live(chains, [1, 1, 1], [2, 2, 2])] == [0]

    def test_incomparable_pairs_both_stay(self):
        # narrower but dearer, and wider but cheaper: neither dominates
        chains = [array("q", [2, 4])] * 2
        assert [p for p, _ in _live(chains, [1, 2], [5, 3])] == [0, 1]

    def test_same_path_as_every_pair(self):
        n, chains, cbits, kappa = self.CASE
        iters = [iter(chain) for chain in chains]
        want = _reference_relaxation(n, lambda p, k: next(iters[p]), cbits, kappa)
        assert _shortest_path(n, chains, cbits, kappa) == want


def _certify(case, width):
    """The certifying pass over the pairs of ``case`` no wider than
    ``width``, bounded by the narrowest width and the smallest κ of the
    rest."""
    n, chains, cbits, kappa = case
    rest = [p for p, c in enumerate(cbits) if c > width]
    walked = [None if p in rest else chain for p, chain in enumerate(chains)]
    bound = (min(cbits[p] for p in rest), min(kappa[p] for p in rest))
    return _shortest_path(n, walked, cbits, kappa, bound)


class TestCertifyingPass:
    """When the pass over the narrower pairs certifies, its path and cost are
    the relaxation's over every pair, ties included."""

    # Node 1 ties at 1 between the wider pair 0, which comes first and wins
    # with every pair, and the walked pair 1: a bound edge (0, 1) of cost 1
    # ties too, so the pass must not certify.
    TIE_AT_END = ((1, [array("q", [1]), array("q", [1])], [1, 0], [0, 1]), 0)
    # The same tie at node 1 of the path 0 -> 1 -> 3, inside the path.
    TIE_INSIDE = ((3, [array("q", [1, 3]), array("q", [1, 3])], [2, 0], [0, 2]), 0)
    # The wider pair 2 reaches node 1 for 1, under the walked pairs' 2, and
    # the path 0 -> 1 -> 4 over it costs 3; the pass's own path to node 4
    # runs through node 1, whose back-pointer the bound edge left stale.
    CHEAPER_INSIDE = (
        (4, [array("q", [1, 4]), array("q", [1, 4]), array("q", [4])], [0, 0, 1], [2, 2, 0]),
        0,
    )

    @given(chain_sets(), st.integers(0, 2))
    @example(*TIE_AT_END)
    @example(*TIE_INSIDE)
    @example(*CHEAPER_INSIDE)
    @settings(max_examples=400, deadline=None)
    def test_certified_path_is_every_pairs(self, case, width):
        _, _, cbits, _ = case
        assume(min(cbits) <= width < max(cbits))
        got = _certify(case, width)
        if got is not None:
            n, chains, cbits, kappa = case
            assert got == _shortest_path(n, chains, cbits, kappa)

    def test_ties_and_cheaper_nodes_do_not_certify(self):
        assert _certify(*self.TIE_AT_END) is None
        assert _certify(*self.TIE_INSIDE) is None
        assert _certify(*self.CHEAPER_INSIDE) is None

    def test_certifies_when_narrow_pairs_are_cheap(self):
        # One width-0 fragment covers all ten points for κ 1; any path
        # through the width-3 pair costs at least 10 * 3 + 1.
        case = (10, [array("q", [10]), array("q", [2, 10])], [0, 3], [1, 1])
        assert _certify(case, 0) == ([(0, 10, 0, 0)], 1.0)


_SPIKED_LINE = 5 * np.arange(290) + np.isin(np.arange(290), [96, 193])


class TestCertifiedAgainstReference:
    """``partition`` with a pass attempted after every width but the last
    (the attempt rule decides only when) against the oracle."""

    @given(
        y=shaped_series,
        models=st.lists(st.sampled_from(ALL_MODELS), min_size=1, max_size=11),
        eps=st.lists(eps_values, min_size=1, max_size=4),
    )
    @example(y=_CONSTANT, models=list(ALL_MODELS), eps=[7, 7, 3])
    @example(y=np.arange(300) % 17, models=["linear", "quadratic"], eps=[1, 3, 3, 255])
    # ε = 1's linear fragment is cheaper than ε = 0's two: bounding the
    # unwalked pairs by the anchored kind's larger κ would certify ε = 0.
    @example(y=np.array([0, 1, 0]), models=["linear", "anchored_quadratic"], eps=[1])
    # Two unit spikes on a line: ε = 1 (width 2) beats ε = 0's five
    # fragments, which a bound at ε = 3's width 3 would certify.
    @example(y=_SPIKED_LINE, models=["linear"], eps=[1, 3])
    @settings(max_examples=60, deadline=None)
    def test_same_fragments_and_cost(self, y, models, eps):
        eps_set = [0.0] + [float(e) for e in eps]
        z = _shifted(y, eps_set)
        with mock.patch.object(
            partition_module, "_worth_attempting", lambda *args: True
        ):
            got = partition(z, models, eps_set)
        want = _reference_partition(z, models, eps_set)
        assert got.fragments == want.fragments
        assert got.cost_bits == want.cost_bits
        assert got.pairs_walked <= len(models) * len(eps_set)


def _generator_case(name, n=1024):
    """A generator's series at its default seed, shifted, with NeaTS's
    default ``E``."""
    y = DATASETS[name].generate(n)
    eps = default_eps_set(y)
    return _shifted(y, eps), [float(e) for e in eps]


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_same_as_reference(self, name):
        z, eps_set = _generator_case(name)
        got = partition(z, list(DEFAULT_MODELS), eps_set)
        want = _reference_partition(z, list(DEFAULT_MODELS), eps_set)
        assert got.fragments == want.fragments
        assert got.cost_bits == want.cost_bits
        assert got.pairs_walked <= len(DEFAULT_MODELS) * len(eps_set)

    def test_most_generators_walk_fewer_pairs(self):
        fewer = []
        for name in sorted(DATASETS):
            z, eps_set = _generator_case(name)
            result = partition(z, list(DEFAULT_MODELS), eps_set)
            if result.pairs_walked < len(DEFAULT_MODELS) * len(eps_set):
                fewer.append(name)
        assert len(fewer) >= len(DATASETS) // 2, fewer


class TestPairsWalked:
    def test_every_pair_of_a_single_width(self, rng):
        z = 1000 + np.cumsum(rng.normal(0, 5, 300))
        models = ["linear", "quadratic", "radical"]
        assert partition(z, models, [3.0, 2.0]).pairs_walked == 6
        assert partition_lossy(z, models, 7.0).pairs_walked == 3

    def test_no_attempt_walks_every_pair(self, rng):
        z = 1000 + np.cumsum(rng.normal(0, 5, 300))
        eps_set = [0.0, 1.0, 3.0, 7.0]
        with mock.patch.object(
            partition_module, "_worth_attempting", lambda *args: False
        ):
            result = partition(z, ["linear", "exponential"], eps_set)
        assert result.pairs_walked == 8

    def test_certified_constant_series_walks_the_narrowest_width(self):
        # Every kind fits the constant series exactly at ε = 0.
        z = _shifted(np.full(500, 3, dtype=np.int64), [0.0, 1.0, 3.0, 7.0])
        result = partition(z, ["linear", "exponential"], [0.0, 1.0, 3.0, 7.0])
        assert result.pairs_walked == 2
        assert [f.eps for f in result.fragments] == [0.0]


class TestMemory:
    def test_one_pair_transform_at_a_time(self):
        """44 (f, ε) pairs over 1,024 values: holding every pair's transform
        as Python floats peaked at 4.2 MiB traced; each abscissa list once,
        one ε's bound lists at a time and the chain ends peak near 0.34 MiB."""
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
        three int64 columns freed before the refit left 2.9 MiB with the
        distances kept through it, and 2.3 MiB with both freed."""
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
