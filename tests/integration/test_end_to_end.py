"""Integration tests: the full pipeline over realistic dataset generators."""

import numpy as np
import pytest

from repro import NeaTS, NeaTSLossy, load
from repro.bench import lossless_codecs, make_codec
from repro.data import DATASETS


class TestNeaTSOnDatasets:
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_lossless_roundtrip_every_dataset(self, name):
        y = load(name, n=1500)
        c = NeaTS().compress(y)
        assert np.array_equal(c.decompress(), y)

    @pytest.mark.parametrize("name", ["IT", "US", "ECG", "BT"])
    def test_access_and_range_on_datasets(self, name, rng):
        y = load(name, n=1500)
        c = NeaTS().compress(y)
        for k in rng.integers(0, 1500, 30).tolist():
            assert c.access(k) == y[k]
        assert np.array_equal(c.decompress_range(300, 900), y[300:900])

    @pytest.mark.parametrize("name", ["IT", "AP", "DU"])
    def test_lossy_bound_on_datasets(self, name):
        y = load(name, n=1500)
        eps = 0.01 * (int(y.max()) - int(y.min()))
        series = NeaTSLossy(eps).compress(y)
        assert series.max_error(y) <= eps + 1e-6

    def test_neats_compresses_every_dataset_below_80pct(self):
        for name in DATASETS:
            y = load(name, n=1500)
            c = NeaTS().compress(y)
            assert c.compression_ratio() < 0.95, name


class TestCrossCompressorAgreement:
    def test_every_lossless_codec_agrees(self, rng):
        """Every lossless codec in the registry (LeaTS and SNeaTS included)
        reproduces the series and answers random access identically."""
        y = load("CT", n=1300)
        digits = DATASETS["CT"].digits
        positions = rng.integers(0, len(y), 15).tolist()
        for name in lossless_codecs():
            c = make_codec(name, digits=digits).compress(y)
            assert np.array_equal(c.decompress(), y), name
            for k in positions:
                assert c.access(k) == y[k], (name, k)

    def test_range_queries_agree(self, rng):
        y = load("DU", n=1200)
        digits = DATASETS["DU"].digits
        for name in ("zstd", "dac", "leco", "alp", "neats"):
            c = make_codec(name, digits=digits).compress(y)
            for lo, hi in [(0, 50), (500, 1100), (1195, 1200)]:
                assert np.array_equal(c.decompress_range(lo, hi), y[lo:hi]), name


class TestPaperShapeClaims:
    """The qualitative results of the paper, checked at reproduction scale."""

    def test_neats_best_special_purpose_ratio_on_most_datasets(self):
        special = ["chimp128", "chimp", "tsxor", "dac", "gorilla", "leco", "alp"]
        wins = 0
        names = ["IT", "US", "AP", "DP", "DU", "BM"]
        for ds in names:
            y = load(ds, n=3000)
            digits = DATASETS[ds].digits
            neats_bits = make_codec("neats").compress(y).size_bits()
            best_other = min(
                make_codec(c, digits=digits).compress(y).size_bits()
                for c in special
            )
            if neats_bits <= best_other:
                wins += 1
        assert wins >= len(names) - 1  # paper: best on 14/16

    def test_neats_l_beats_pla_on_nonlinear_data(self):
        from repro.baselines import PlaCompressor

        for ds in ("IT", "AP", "DU"):
            y = load(ds, n=2000)
            eps = 0.01 * (int(y.max()) - int(y.min()))
            nl = NeaTSLossy(eps).compress(y)
            pla = PlaCompressor(eps).compress(y)
            assert nl.size_bits() <= pla.size_bits(), ds

    def test_neats_random_access_faster_than_blockwise(self, rng):
        import time

        y = load("CT", n=3000)
        neats = make_codec("neats").compress(y)
        xz = make_codec("xz").compress(y)
        ks = rng.integers(0, len(y), 100).tolist()

        t0 = time.perf_counter()
        for k in ks:
            neats.access(k)
        t_neats = time.perf_counter() - t0

        t0 = time.perf_counter()
        for k in ks:
            xz.access(k)
        t_xz = time.perf_counter() - t0
        assert t_neats < t_xz  # paper: orders of magnitude

    def test_gorilla_weak_ratio_fast_family(self):
        y = load("US", n=2000)
        gorilla = make_codec("gorilla").compress(y)
        neats = make_codec("neats").compress(y)
        assert gorilla.size_bits() > neats.size_bits()
