"""Unit tests for the benchmark harness (measurement and rendering)."""

import time

import numpy as np
import pytest

from repro.bench import (
    calibrate_eps,
    lossless_codecs,
    make_codec,
    measure_lossless,
    measure_random_access,
    measure_range_throughput,
)
from repro.bench.evaluation import TABLE3_ORDER
from repro.bench.measure import CompressorStats
from repro.bench.render import display_name, render_scatter, render_table
from repro.codecs.adapters import (
    LeaTSCompressor,
    NeaTSCompressor,
    SNeaTSCompressor,
)


class TestRegistry:
    def test_lineup_matches_table3(self):
        """Table III's column order names every lossless registry id."""
        ids = lossless_codecs()
        assert ids == list(TABLE3_ORDER)
        assert [display_name(c) for c in ids[:5]] == [
            "Xz", "Brotli*", "Zstd*", "Lz4*", "Snappy*"
        ]
        assert ids[-3:] == ["neats", "leats", "sneats"]

    @pytest.mark.parametrize(
        "codec_id", ["xz", "dac", "neats", "leats", "sneats"], ids=display_name
    )
    def test_factories_work(self, codec_id, walk_series):
        c = make_codec(codec_id, digits=2).compress(walk_series)
        assert np.array_equal(c.decompress(), walk_series)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown codec 'gzip'"):
            make_codec("gzip")

    def test_neats_adapters_expose_names(self):
        assert NeaTSCompressor().name == "NeaTS"
        assert LeaTSCompressor().name == "LeaTS"
        assert SNeaTSCompressor().name == "SNeaTS"


class TestMeasurement:
    def test_measure_lossless_stats(self, walk_series):
        comp = make_codec("dac")
        stats = measure_lossless(comp, walk_series, dataset="T")
        assert stats.name == "DAC"
        assert 0 < stats.ratio < 2
        assert stats.ratio_pct == pytest.approx(100 * stats.ratio)
        assert stats.compress_mb_s > 0
        assert stats.decompress_mb_s > 0

    def test_measure_lossless_catches_corruption(self, walk_series):
        class Broken:
            name = "broken"

            def compress(self, values):
                class C:
                    def size_bits(self_inner):
                        return 1

                    def decompress(self_inner):
                        return values + 1

                    def access(self_inner, k):
                        return int(values[k]) + 1

                return C()

        with pytest.raises(AssertionError):
            measure_lossless(Broken(), walk_series)

    def test_one_time_set_up_is_not_timed(self, walk_series):
        """A codec whose first decompress pays a 50 ms set-up pays it in the
        untimed warm-up, not on the dataset being measured."""

        class SlowFirstDecompress:
            name = "slow-first"
            set_up = False

            def compress(self, values):
                codec = self

                class C:
                    def size_bits(self_inner):
                        return 64 * len(values)

                    def decompress(self_inner):
                        if not codec.set_up:
                            codec.set_up = True
                            time.sleep(0.05)
                        return values.copy()

                    def access(self_inner, k):
                        return int(values[k])

                return C()

        stats = measure_lossless(SlowFirstDecompress(), walk_series)
        assert stats.decompress_seconds < 0.05

    def test_random_access_measurement(self, walk_series):
        comp = make_codec("dac")
        c = comp.compress(walk_series)
        spq = measure_random_access(c, walk_series, queries=50)
        assert spq > 0

    def test_random_access_detects_mismatch(self, walk_series):
        class Lying:
            def access(self, k):
                return -999999999

        with pytest.raises(AssertionError):
            measure_random_access(Lying(), walk_series, queries=5)

    def test_range_throughput(self, walk_series):
        comp = make_codec("dac")
        c = comp.compress(walk_series)
        qps = measure_range_throughput(c, walk_series, range_size=64, queries=5)
        assert qps > 0

    def test_stats_speed_units(self):
        stats = CompressorStats(
            name="x", dataset="d", n=1_000_000, compressed_bits=64,
            compress_seconds=1.0, decompress_seconds=2.0,
            access_seconds_per_query=8e-6,
        )
        assert stats.compress_mb_s == pytest.approx(8.0)
        assert stats.decompress_mb_s == pytest.approx(4.0)
        assert stats.access_mb_s == pytest.approx(1.0)


class TestCalibration:
    def test_quick_calibration_positive(self, smooth_series):
        eps = calibrate_eps(smooth_series, quick=True)
        assert eps >= 1.0

    def test_full_calibration_makes_lossy_smaller(self, smooth_series):
        from repro.core import NeaTS, NeaTSLossy

        eps = calibrate_eps(smooth_series, quick=False)
        lossy = NeaTSLossy(eps).compress(smooth_series)
        lossless = NeaTS().compress(smooth_series)
        assert lossy.size_bits() < lossless.size_bits()


class TestRendering:
    def test_render_table_alignment(self):
        out = render_table(["A", "Bee"], [["1", "2"], ["333", "4"]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "A" in lines[1] and "Bee" in lines[1]
        assert len({len(l) for l in lines[2:]}) == 1  # aligned rows

    def test_render_table_highlight(self):
        out = render_table(["A"], [["7"]], highlight={(0, 0): "*"})
        assert "7*" in out

    def test_render_scatter_contains_labels(self):
        out = render_scatter(
            {"NeaTS": (10.0, 5.0), "Xz": (12.0, 0.1)},
            xlabel="ratio", ylabel="speed",
        )
        assert "NeaTS" in out and "Xz" in out

    def test_render_scatter_log_scale(self):
        out = render_scatter(
            {"a": (1.0, 0.001), "b": (2.0, 1000.0)},
            xlabel="x", ylabel="y", log_y=True,
        )
        assert "10^" in out

    def test_render_scatter_empty(self):
        assert render_scatter({}, "x", "y") == "(no points)"
