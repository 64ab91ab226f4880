"""Unit tests for dataset I/O helpers."""

import numpy as np

from repro.data import read_csv, scale_to_int, unscale_to_float, write_csv


class TestScaling:
    def test_scale_two_digits(self):
        values = np.array([1.23, -4.56])
        assert scale_to_int(values, 2).tolist() == [123, -456]

    def test_unscale_inverse(self):
        ints = np.array([123, -456], dtype=np.int64)
        assert unscale_to_float(ints, 2).tolist() == [1.23, -4.56]

    def test_zero_digits(self):
        assert scale_to_int(np.array([5.0]), 0).tolist() == [5]

    def test_roundtrip_random(self, rng):
        for digits in (0, 1, 3, 5):
            ints = rng.integers(-(10**8), 10**8, 200)
            floats = unscale_to_float(ints, digits)
            assert np.array_equal(scale_to_int(floats, digits), ints)


class TestCsv:
    def test_roundtrip(self, tmp_path, rng):
        values = rng.integers(-(10**6), 10**6, 300).astype(np.int64)
        path = tmp_path / "series.csv"
        write_csv(path, values, digits=3)
        assert np.array_equal(read_csv(path, digits=3), values)

    def test_format_has_fixed_precision(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, np.array([12345], dtype=np.int64), digits=2)
        assert path.read_text().strip() == "123.45"

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.5\n\n2.5\n")
        assert read_csv(path, digits=1).tolist() == [15, 25]

