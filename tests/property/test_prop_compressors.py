"""Property-based round-trip tests across every lossless compressor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import lossless_codecs, make_codec
from repro.bench.render import display_name

SETTINGS = dict(max_examples=25, deadline=None)

# Fast codecs get the full hypothesis treatment; the NeaTS family is
# covered separately in test_prop_core (its compression is slower).
FAST = [c for c in lossless_codecs() if c not in ("neats", "leats", "sneats")]

int_series = st.lists(
    st.integers(-(2**50), 2**50), min_size=1, max_size=250
).map(lambda v: np.array(v, dtype=np.int64))


@pytest.mark.parametrize("codec_id", FAST, ids=display_name)
class TestRoundTripProperty:
    @given(y=int_series)
    @settings(**SETTINGS)
    def test_decompress_inverse_of_compress(self, codec_id, y):
        comp = make_codec(codec_id, digits=2)
        c = comp.compress(y)
        assert np.array_equal(c.decompress(), y)

    @given(y=int_series, data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_access_matches(self, codec_id, y, data):
        comp = make_codec(codec_id, digits=2)
        c = comp.compress(y)
        k = data.draw(st.integers(0, len(y) - 1))
        assert c.access(k) == y[k]


class TestEdgeSeries:
    @pytest.mark.parametrize("codec_id", FAST, ids=display_name)
    def test_alternating_extremes(self, codec_id):
        y = np.array([0, 2**50, 0, -(2**50), 1, -1] * 30, dtype=np.int64)
        c = make_codec(codec_id, digits=0).compress(y)
        assert np.array_equal(c.decompress(), y)

    @pytest.mark.parametrize("codec_id", FAST, ids=display_name)
    def test_all_equal(self, codec_id):
        y = np.full(200, -123456, dtype=np.int64)
        c = make_codec(codec_id, digits=1).compress(y)
        assert np.array_equal(c.decompress(), y)

    @pytest.mark.parametrize("codec_id", FAST, ids=display_name)
    def test_strictly_increasing(self, codec_id):
        y = np.arange(0, 5000, 7, dtype=np.int64)
        c = make_codec(codec_id, digits=0).compress(y)
        assert np.array_equal(c.decompress(), y)

    @pytest.mark.parametrize("codec_id", FAST, ids=display_name)
    def test_single_value(self, codec_id):
        y = np.array([42], dtype=np.int64)
        c = make_codec(codec_id, digits=0).compress(y)
        assert np.array_equal(c.decompress(), y)
        assert c.access(0) == 42
