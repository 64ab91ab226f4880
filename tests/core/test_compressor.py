"""Unit tests for the public NeaTS API (lossless, LeaTS, SNeaTS)."""

import numpy as np
import pytest

from repro.core import NeaTS, default_eps_set
from repro.data import DATASETS, dataset_names


class TestDefaultEpsSet:
    def test_always_contains_zero(self, rng):
        y = rng.integers(0, 1000, 100)
        assert 0 in default_eps_set(y)

    def test_exact_width_values(self, rng):
        y = rng.integers(0, 1 << 20, 100)
        eps_set = default_eps_set(y, stride=1)
        for eps in eps_set[1:]:
            assert (eps + 1) & eps == 0  # eps = 2^b - 1

    def test_stride_reduces_size(self, rng):
        y = rng.integers(0, 1 << 20, 100)
        assert len(default_eps_set(y, stride=2)) <= len(default_eps_set(y, stride=1))

    def test_empty_input(self):
        assert default_eps_set(np.array([])) == [0]

    def test_constant_input(self):
        assert 0 in default_eps_set(np.full(10, 7))


class TestCompressDecompress:
    def test_roundtrip(self, smooth_series):
        c = NeaTS().compress(smooth_series)
        assert np.array_equal(c.decompress(), smooth_series)

    def test_roundtrip_walk(self, walk_series):
        c = NeaTS().compress(walk_series)
        assert np.array_equal(c.decompress(), walk_series)

    def test_roundtrip_spiky(self, spiky_series):
        c = NeaTS().compress(spiky_series)
        assert np.array_equal(c.decompress(), spiky_series)

    def test_roundtrip_constant(self, constant_series):
        c = NeaTS().compress(constant_series)
        assert np.array_equal(c.decompress(), constant_series)
        assert c.compression_ratio() < 0.1

    def test_extreme_values(self):
        y = np.array(
            [0, 1, -1, 2**40, -(2**40), 17, 2**40 + 3], dtype=np.int64
        )
        c = NeaTS().compress(y)
        assert np.array_equal(c.decompress(), y)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            NeaTS().compress(np.array([], dtype=np.int64))

    def test_2d_raises(self):
        with pytest.raises(ValueError):
            NeaTS().compress(np.zeros((3, 3)))

    def test_unknown_model_raises_at_construction(self):
        with pytest.raises(ValueError):
            NeaTS(models=("linear", "wavelet"))

    def test_explicit_eps_set(self, smooth_series):
        c = NeaTS(eps_set=[0, 15]).compress(smooth_series)
        assert np.array_equal(c.decompress(), smooth_series)


class TestAccess:
    def test_access_all_sampled(self, smooth_series, rng):
        c = NeaTS().compress(smooth_series)
        for k in rng.integers(0, len(smooth_series), 200).tolist():
            assert c.access(k) == smooth_series[k]

    def test_range_query(self, smooth_series):
        c = NeaTS().compress(smooth_series)
        assert np.array_equal(c.decompress_range(17, 1500), smooth_series[17:1500])

    def test_len(self, smooth_series):
        c = NeaTS().compress(smooth_series)
        assert len(c) == len(smooth_series)


class TestCompressionQuality:
    def test_compresses_structured_data(self, smooth_series):
        c = NeaTS().compress(smooth_series)
        assert c.compression_ratio() < 0.5

    def test_num_fragments_positive(self, smooth_series):
        c = NeaTS().compress(smooth_series)
        assert 1 <= c.num_fragments < len(smooth_series)

    def test_linear_data_tiny(self):
        y = (7 * np.arange(3000) + 11).astype(np.int64)
        c = NeaTS().compress(y)
        assert c.num_fragments <= 2
        assert c.compression_ratio() < 0.02


class TestVariants:
    def test_leats_linear_only(self, smooth_series):
        c = NeaTS.linear_only().compress(smooth_series)
        assert np.array_equal(c.decompress(), smooth_series)
        assert all(f.model_name == "linear" for f in c.fragments)

    def test_sneats_roundtrip(self, smooth_series):
        c = NeaTS.with_model_selection().compress(smooth_series)
        assert np.array_equal(c.decompress(), smooth_series)

    def test_sneats_restricts_pairs(self, smooth_series):
        comp = NeaTS.with_model_selection(top_k=2)
        c = comp.compress(smooth_series)
        used = {(f.model_name, f.eps) for f in c.fragments}
        assert len({name for name, _ in used}) <= 2

    def test_sneats_invalid_fraction(self):
        with pytest.raises(ValueError):
            NeaTS.with_model_selection(sample_fraction=0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_neats_frames_below_leats_on_archive_fleet(self, seed):
        """perfbench's ``archive`` fleet: one 4,096-value series per
        generator, seeded from ``SeedSequence([seed, 1])``.  The nonlinear
        kinds must pay for themselves over the fleet."""
        names = dataset_names()
        seeds = np.random.SeedSequence([seed, 1]).generate_state(len(names))
        total = {"neats": 0, "leats": 0}
        for name, series_seed in zip(names, seeds.tolist()):
            y = DATASETS[name].generate(4096, seed=series_seed)
            total["neats"] += NeaTS().compress(y).size_bytes()
            total["leats"] += NeaTS.linear_only().compress(y).size_bytes()
        assert total["neats"] < total["leats"]


class TestDeterminism:
    def test_same_input_same_output(self, smooth_series):
        a = NeaTS().compress(smooth_series)
        b = NeaTS().compress(smooth_series)
        assert a.size_bits() == b.size_bits()
        assert a.storage.to_bytes() == b.storage.to_bytes()
