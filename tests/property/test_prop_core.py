"""Property-based tests for the NeaTS core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.bits.eliasfano import encoded_bits
from repro.core import NeaTS, NeaTSLossy
from repro.core.convex import RangeLineFitter
from repro.core.models import ALL_MODELS, DEFAULT_MODELS, get_model, make_approximation
from repro.core.partition import (
    LAYOUT_FRAGMENT_BITS,
    PARAM_BITS,
    START_BITS,
    correction_bits,
)
from repro.core.piecewise import piecewise_approximation
from repro.core.transforms import PairTransform, two_point_starts

SETTINGS = dict(max_examples=40, deadline=None)

int_series = st.lists(
    st.integers(-(10**9), 10**9), min_size=1, max_size=300
).map(lambda v: np.array(v, dtype=np.int64))

small_series = st.lists(
    st.integers(-(10**4), 10**4), min_size=1, max_size=150
).map(lambda v: np.array(v, dtype=np.int64))


class TestLosslessInvariant:
    @given(y=int_series)
    @settings(**SETTINGS)
    def test_roundtrip_any_input(self, y):
        """THE invariant: decompress(compress(y)) == y, for any int series."""
        c = NeaTS().compress(y)
        assert np.array_equal(c.decompress(), y)

    @given(y=small_series, data=st.data())
    @settings(**SETTINGS)
    def test_access_agrees_with_decompress(self, y, data):
        c = NeaTS().compress(y)
        k = data.draw(st.integers(0, len(y) - 1))
        assert c.access(k) == y[k]

    @given(y=small_series, data=st.data())
    @settings(**SETTINGS)
    def test_range_agrees_with_slice(self, y, data):
        c = NeaTS().compress(y)
        lo = data.draw(st.integers(0, len(y)))
        hi = data.draw(st.integers(lo, len(y)))
        assert np.array_equal(c.decompress_range(lo, hi), y[lo:hi])

    @given(y=small_series)
    @settings(**SETTINGS)
    def test_serialisation_preserves_content(self, y):
        from repro.core.storage import NeaTSStorage

        c = NeaTS().compress(y)
        st2 = NeaTSStorage.from_bytes(c.storage.to_bytes())
        assert np.array_equal(st2.decompress(), y)


class TestAccessEveryPosition:
    """``access(k) == decompress()[k]`` at *every* position, not a sample:
    random access must round each model value exactly as decoding does."""

    @given(y=small_series, name=st.sampled_from(ALL_MODELS), lossy=st.booleans())
    @settings(**SETTINGS)
    def test_every_model_kind(self, y, name, lossy):
        codec = NeaTSLossy(2.5, models=(name,)) if lossy else NeaTS(models=(name,))
        c = codec.compress(y)
        assert [c.access(k) for k in range(len(y))] == c.decompress().tolist()

    @given(
        y=small_series,
        codec=st.sampled_from(["neats", "leats", "sneats", "neats_l", "pla"]),
    )
    @settings(**SETTINGS)
    def test_every_codec(self, y, codec):
        params = {"eps": 2.5} if codec in ("neats_l", "pla") else {}
        c = repro.compress(y, codec=codec, **params)
        assert [c.access(k) for k in range(len(y))] == c.decompress().tolist()


class TestLossyInvariant:
    @given(
        y=small_series,
        eps=st.floats(0.5, 1000.0, allow_nan=False),
    )
    @settings(**SETTINGS)
    def test_linf_error_bound(self, y, eps):
        series = NeaTSLossy(eps).compress(y)
        assert series.max_error(y) <= eps + 1e-6

    @given(y=small_series, eps=st.floats(1.0, 100.0))
    @settings(**SETTINGS)
    def test_size_positive_and_fragments_cover(self, y, eps):
        series = NeaTSLossy(eps).compress(y)
        assert series.size_bits() > 0
        assert series.fragments[0].start == 0
        assert series.fragments[-1].end == len(y)


class TestFitterInvariants:
    @given(
        ranges=st.lists(
            st.tuples(st.floats(-100, 100), st.floats(0.1, 20)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(**SETTINGS)
    def test_accepted_prefix_always_feasible(self, ranges):
        """Whatever prefix the fitter accepts, the returned line stabs it."""
        fitter = RangeLineFitter()
        accepted = []
        t = 0.0
        for mid, half in ranges:
            t += 1.0
            if not fitter.add(t, mid - half, mid + half):
                break
            accepted.append((t, mid - half, mid + half))
        m, q = fitter.line()
        for t_, lo, hi in accepted:
            assert lo - 1e-6 <= m * t_ + q <= hi + 1e-6

    @given(
        ranges=st.lists(
            st.tuples(st.floats(-100, 100), st.floats(0.1, 20)),
            min_size=1,
            max_size=60,
        ),
        start=st.integers(0, 10),
    )
    @settings(**SETTINGS)
    def test_extend_equals_adds_and_reset_forgets(self, ranges, start):
        """One ``extend`` accepts exactly what successive ``add`` calls do,
        and a reset fitter fits like a fresh one, bit for bit."""
        t = [float(k + 1) for k in range(len(ranges))]
        lo = [mid - half for mid, half in ranges]
        hi = [mid + half for mid, half in ranges]
        start = min(start, len(t) - 1)
        fresh = RangeLineFitter()
        end = start
        while end < len(t) and fresh.add(t[end], lo[end], hi[end]):
            end += 1
        reused = RangeLineFitter()
        reused.extend(t, hi, [h + 1.0 for h in hi], 0, len(t))  # other state
        reused.reset()
        assert reused.extend(t, lo, hi, start, len(t)) == end
        assert reused.count == fresh.count == end - start
        assert reused.line() == fresh.line()

    @given(
        ranges=st.lists(
            st.tuples(
                st.one_of(st.floats(-100, 100), st.integers(-3, 3)),
                st.one_of(st.floats(0, 20), st.sampled_from([0, 1])),
            ),
            min_size=1,
            max_size=80,
        )
    )
    @settings(**SETTINGS)
    def test_chain_equals_extend_from_each_start(self, ranges):
        """``chain`` ends every fragment where ``reset`` plus ``extend`` from
        its start does, with or without the two-point marks."""
        t = [float(k + 1) for k in range(len(ranges))]
        lo = [mid - half for mid, half in ranges]
        hi = [mid + half for mid, half in ranges]
        fitter = RangeLineFitter()
        want, k = [], 0
        while k < len(t):
            fitter.reset()
            k = fitter.extend(t, lo, hi, k, len(t))
            want.append(k)
        two = two_point_starts(PairTransform(*map(np.array, (t, lo, hi))))
        assert fitter.chain(t, lo, hi, two.tolist()).tolist() == want
        assert fitter.chain(t, lo, hi, [False] * len(t)).tolist() == want


class TestPiecewiseInvariants:
    @given(
        y=st.lists(st.integers(0, 10**5), min_size=1, max_size=200),
        eps=st.floats(0, 50),
    )
    @settings(**SETTINGS)
    def test_fragments_partition_domain(self, y, eps):
        z = np.array(y, dtype=np.float64) + 100.0
        frags = piecewise_approximation(z, "linear", eps)
        assert frags[0].start == 0
        assert frags[-1].end == len(z)
        assert all(a.end == b.start for a, b in zip(frags, frags[1:]))

    @given(
        y=st.lists(st.integers(0, 10**4), min_size=2, max_size=100),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_fragment_error_bounded_every_model(self, y, data):
        model_name = data.draw(
            st.sampled_from(["linear", "exponential", "quadratic", "radical"])
        )
        eps = data.draw(st.floats(0.5, 100))
        z = np.array(y, dtype=np.float64) + eps + 1.0
        model = get_model(model_name)
        fit = make_approximation(z, 0, model, eps)
        xs = np.arange(1, fit.end + 1, dtype=np.float64)
        err = np.max(np.abs(model.evaluate(fit.params, xs) - z[: fit.end]))
        assert err <= eps + 1e-6


# -- NeaTS never loses to LeaTS beyond a derived slack -------------------------

#: header and magic of a NeaTS102 frame, in bits
_HEAD_BITS = 8 * 40
#: rounding of the S/B/K bit string to bytes (< 8) plus of C to words (< 64)
_ROUNDING_BITS = 7 + 63

smooth_series = st.tuples(
    st.integers(2, 400),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 0.02),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
).map(
    lambda a: (
        1000 * np.exp(a[1] * np.linspace(0, 1, a[0]))
        + a[2] * np.arange(a[0]) ** 2
        + np.random.default_rng(a[4]).integers(-a[3], a[3] + 1, a[0])
    ).astype(np.int64)
)


def _accounting(compressed) -> tuple[int, int, int]:
    """Algorithm 1's cost of the fragments, their widened bits, and ``D``.

    ``cost`` is ``Σ (len · ceil(log2(2ε+1)) + κ_f)``; a fragment stored wider
    than its ε needs adds ``len · (width - base)`` widened bits; ``D`` is
    what ``S`` costs beyond the ``START_BITS`` per fragment that Algorithm 1
    charges for the starts.
    """
    st_ = compressed.storage
    cost = widened = 0
    for frag, width in zip(compressed.fragments, st_._widths_list):
        base = correction_bits(frag.eps)
        n_params = get_model(frag.model_name).n_params
        cost += frag.length * base + n_params * PARAM_BITS + LAYOUT_FRAGMENT_BITS
        widened += frag.length * (width - base)
    return cost, widened, encoded_bits(st_.m, st_.n) - START_BITS * st_.m


class TestFrameAgainstLeaTS:
    """A NeaTS102 frame costs Algorithm 1's weight, within fixed rounding.

    Writing ``frame`` for ``size_bits()``, ``W`` for the widened bits and
    ``D`` for the start estimate's error (see :func:`_accounting`)::

        cost + W + D + 320 <= frame <= cost + W + D + 320 + 70

    Every lossless fragment is fitted inside the band its width decodes,
    so ``W`` is 0.  NeaTS's function set contains LeaTS's, and both see the
    same shifted series and ε set, so NeaTS's shortest path costs no more
    than LeaTS's.  Subtracting the two brackets::

        frame(neats) <= frame(leats) + 70 + D_neats - D_leats
    """

    @given(y=st.one_of(smooth_series, small_series))
    @settings(max_examples=30, deadline=None)
    def test_frame_is_weight_within_rounding(self, y):
        c = NeaTS().compress(y)
        cost, widened, d = _accounting(c)
        assert widened == 0
        frame = c.size_bits()
        assert frame == 8 * len(c.to_payload())
        low = cost + d + _HEAD_BITS
        assert low <= frame <= low + _ROUNDING_BITS

    @given(y=st.one_of(smooth_series, small_series))
    @settings(max_examples=30, deadline=None)
    def test_neats_frame_bounded_by_leats(self, y):
        neats = NeaTS().compress(y)
        leats = NeaTS.linear_only().compress(y)
        _, widened_neats, d_neats = _accounting(neats)
        _, widened_leats, d_leats = _accounting(leats)
        assert widened_neats == widened_leats == 0
        slack = _ROUNDING_BITS + d_neats - d_leats
        assert neats.size_bits() <= leats.size_bits() + slack


class TestFragmentsFitTheirWidth:
    """Each default kind's lossless fragments need no more than their ε's
    width: the fit stays inside the band the decoder stores in it."""

    @given(
        y=st.one_of(smooth_series, small_series, int_series),
        kind=st.sampled_from(DEFAULT_MODELS),
    )
    @settings(max_examples=60, deadline=None)
    def test_corrections_fit_base_width(self, y, kind):
        c = NeaTS(models=(kind,)).compress(y)
        widths = c.storage._widths_list
        assert widths == [correction_bits(frag.eps) for frag in c.fragments]
        assert np.array_equal(c.decompress(), y)
