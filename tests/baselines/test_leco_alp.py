"""Unit tests for LeCo and ALP."""

import numpy as np
import pytest

from repro.baselines import AlpCompressor, LeCoCompressor
from repro.baselines.base import Compressed
from repro.baselines.leco import _fit_block
from repro.bits import EliasFano
from repro.codecs import get_codec
from repro.data import DATASETS


class TestLeCoRegression:
    def test_fit_exact_line(self):
        values = (5 * np.arange(50) + 3).astype(np.int64)
        slope, intercept, resid = _fit_block(values)
        assert slope == pytest.approx(5.0)
        assert np.all(np.abs(resid) <= 1)

    def test_fit_single_value(self):
        slope, intercept, resid = _fit_block(np.array([7], dtype=np.int64))
        assert slope == 0.0
        assert resid.tolist() == [0]


class TestLeCo:
    def test_roundtrip(self, walk_series, rng):
        c = LeCoCompressor().compress(walk_series)
        assert np.array_equal(c.decompress(), walk_series)
        for k in rng.integers(0, len(walk_series), 60).tolist():
            assert c.access(k) == walk_series[k]

    def test_linear_data_near_free(self):
        y = (9 * np.arange(4000) + 100).astype(np.int64)
        c = LeCoCompressor().compress(y)
        assert c.size_bits() / len(y) < 3  # residuals ~0 bits + block headers

    def test_merging_reduces_blocks(self):
        y = (2 * np.arange(4000)).astype(np.int64)
        few = LeCoCompressor(initial_block=128, merge_passes=3).compress(y)
        none = LeCoCompressor(initial_block=128, merge_passes=0).compress(y)
        assert len(few._blocks) <= len(none._blocks)

    def test_range_query(self, walk_series):
        c = LeCoCompressor().compress(walk_series)
        assert np.array_equal(c.decompress_range(77, 1234), walk_series[77:1234])

    def test_negative_values(self, rng):
        y = rng.integers(-(10**9), 0, 600).astype(np.int64)
        c = LeCoCompressor().compress(y)
        assert np.array_equal(c.decompress(), y)

    def test_short_series(self):
        y = np.array([5, -3, 8], dtype=np.int64)
        c = LeCoCompressor().compress(y)
        assert np.array_equal(c.decompress(), y)


class TestLeCoBlockStarts:
    """Lookups bisect the block starts; only size_bits() builds Elias-Fano."""

    #: size_bits() of 4,096 generated values, as charged when every load
    #: built the Elias-Fano sequence
    SIZE_BITS = {"IT": 27497, "CT": 34455, "BT": 141280, "US": 29535}

    @pytest.mark.parametrize("name", sorted(SIZE_BITS))
    def test_size_bits_is_unchanged(self, name):
        c = get_codec("leco").compress(DATASETS[name].generate(4096))
        assert c.size_bits() == self.SIZE_BITS[name]
        assert Compressed.from_bytes(c.to_bytes()).size_bits() == c.size_bits()

    def test_bisect_agrees_with_elias_fano_rank(self, walk_series):
        c = LeCoCompressor(initial_block=16, merge_passes=1).compress(walk_series)
        starts = [b.start for b in c._blocks]
        ef = EliasFano(starts, universe=len(walk_series))
        assert len(starts) > 20
        for k in range(len(walk_series)):
            assert c._block_of(k) == ef.rank(k) - 1

    def test_load_and_query_build_no_elias_fano(self, walk_series, monkeypatch):
        blob = get_codec("leco").compress(walk_series).to_bytes()
        built = []
        init = EliasFano.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(EliasFano, "__init__", counting)
        loaded = Compressed.from_bytes(blob)
        assert loaded.access(777) == walk_series[777]
        assert np.array_equal(loaded.decompress_range(100, 1400), walk_series[100:1400])
        assert built == []
        loaded.size_bits()
        assert built == [1]


class TestAlp:
    def test_roundtrip_two_digits(self, rng):
        y = rng.integers(-(10**6), 10**6, 3000).astype(np.int64)
        c = AlpCompressor(digits=2).compress(y)
        assert np.array_equal(c.decompress(), y)

    @pytest.mark.parametrize("digits", [0, 1, 3, 5, 7])
    def test_roundtrip_various_digits(self, digits, rng):
        y = rng.integers(-(10**7), 10**7, 1200).astype(np.int64)
        c = AlpCompressor(digits=digits).compress(y)
        assert np.array_equal(c.decompress(), y)

    def test_access_decodes_block(self, rng):
        y = rng.integers(0, 10**5, 2500).astype(np.int64)
        c = AlpCompressor(digits=2).compress(y)
        for k in rng.integers(0, 2500, 50).tolist():
            assert c.access(k) == y[k]

    def test_range_query(self, rng):
        y = rng.integers(0, 10**5, 3000).astype(np.int64)
        c = AlpCompressor(digits=3).compress(y)
        assert np.array_equal(c.decompress_range(900, 2100), y[900:2100])

    def test_low_precision_beats_raw(self, rng):
        # 2-digit decimals: ALP packs the small pseudodecimal integers.
        y = rng.integers(0, 10**4, 4096).astype(np.int64)
        c = AlpCompressor(digits=2).compress(y)
        assert c.size_bits() < 64 * len(y) * 0.5

    def test_negative_digits_raises(self):
        with pytest.raises(ValueError):
            AlpCompressor(digits=-1)

    def test_irregular_values_become_exceptions(self, rng):
        # Values with 9 fractional digits at digits=2 scaling still round-trip
        # (handled by the exception path).
        y = rng.integers(0, 2**55, 1100).astype(np.int64)
        c = AlpCompressor(digits=2).compress(y)
        assert np.array_equal(c.decompress(), y)
