"""Unit tests for Elias-Fano monotone sequences."""

import bisect

import numpy as np
import pytest

from repro.bits import EliasFano
from repro.bits.eliasfano import decode_bits, encode_bits, encoded_bits, low_width


class TestConstruction:
    def test_empty(self):
        ef = EliasFano([])
        assert len(ef) == 0
        assert ef.rank(100) == 0
        assert ef.to_list() == []

    def test_single_element(self):
        ef = EliasFano([5])
        assert ef[0] == 5
        assert ef.rank(4) == 0
        assert ef.rank(5) == 1

    def test_decreasing_raises(self):
        with pytest.raises(ValueError):
            EliasFano([3, 2])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            EliasFano([-1, 2])

    def test_universe_too_small_raises(self):
        with pytest.raises(ValueError):
            EliasFano([1, 5], universe=5)

    def test_duplicates_allowed(self):
        ef = EliasFano([2, 2, 2, 7])
        assert list(ef) == [2, 2, 2, 7]
        assert ef.rank(2) == 3


class TestAccess:
    def test_access_matches(self):
        values = [0, 1, 4, 9, 100, 101, 5000]
        ef = EliasFano(values)
        assert [ef[i] for i in range(len(values))] == values

    def test_negative_index(self):
        ef = EliasFano([1, 2, 3])
        assert ef[-1] == 3

    def test_out_of_range(self):
        ef = EliasFano([1])
        with pytest.raises(IndexError):
            ef[1]

    def test_random_sequences(self):
        rng = np.random.default_rng(8)
        for universe in (100, 10_000, 10**9):
            values = sorted(int(v) for v in rng.integers(0, universe, 500))
            ef = EliasFano(values)
            assert ef.to_list() == values
            for i in rng.integers(0, 500, 60).tolist():
                assert ef[i] == values[i]

    def test_dense_sequence(self):
        values = list(range(1000))
        ef = EliasFano(values)
        assert ef.to_list() == values


class TestRank:
    def test_rank_matches_bisect(self):
        rng = np.random.default_rng(9)
        values = sorted(int(v) for v in rng.integers(0, 100_000, 800))
        ef = EliasFano(values)
        probes = list(rng.integers(0, 100_000, 200)) + [0, 99_999, values[0], values[-1]]
        for x in probes:
            assert ef.rank(int(x)) == bisect.bisect_right(values, int(x)), x

    def test_rank_below_min(self):
        ef = EliasFano([10, 20])
        assert ef.rank(9) == 0
        assert ef.rank(-1) == 0

    def test_rank_at_or_above_max(self):
        ef = EliasFano([10, 20], universe=1000)
        assert ef.rank(20) == 2
        assert ef.rank(999) == 2
        assert ef.rank(10**9) == 2


class TestPredecessorSuccessor:
    def test_predecessor(self):
        ef = EliasFano([3, 7, 7, 15])
        assert ef.predecessor(7) == 7
        assert ef.predecessor(14) == 7
        assert ef.predecessor(100) == 15
        with pytest.raises(ValueError):
            ef.predecessor(2)

    def test_successor(self):
        ef = EliasFano([3, 7, 15])
        assert ef.successor(0) == 3
        assert ef.successor(8) == 15
        assert ef.successor(15) == 15
        with pytest.raises(ValueError):
            ef.successor(16)


class TestSpace:
    def test_compressed_below_plain(self):
        # A million-universe sparse sequence should be far below 64 bits/elem.
        rng = np.random.default_rng(10)
        values = sorted(int(v) for v in rng.integers(0, 1_000_000, 2000))
        ef = EliasFano(values)
        bits_per_elem = ef.size_bits() / len(values)
        assert bits_per_elem < 32


class TestBitArrayCode:
    """The numpy code the NeaTS102 frame stores its starts in."""

    @pytest.mark.parametrize("m,universe", [(1, 1), (1, 4096), (7, 8), (30, 4096), (500, 600)])
    def test_round_trip_and_length(self, m, universe):
        rng = np.random.default_rng(m + universe)
        values = np.sort(rng.integers(0, universe, m))
        values[0] = 0
        bits = encode_bits(values, universe)
        assert len(bits) == encoded_bits(m, universe)
        assert set(np.unique(bits).tolist()) <= {0, 1}
        assert np.array_equal(decode_bits(bits, m, universe), values)

    def test_same_low_width_as_the_class(self):
        for m, universe in [(1, 1), (3, 100), (100, 3), (20, 4096), (1000, 10**6)]:
            values = list(range(0, universe, max(1, universe // m)))[:m]
            assert low_width(len(values), universe) == EliasFano(
                values, universe=universe
            )._low_bits

    def test_empty(self):
        assert encoded_bits(0, 10) == 0
        assert len(encode_bits(np.zeros(0, dtype=np.int64), 10)) == 0
        assert decode_bits(np.zeros(0, dtype=np.uint8), 0, 10).size == 0

    @pytest.mark.parametrize("flip", ["drop", "add"])
    def test_high_part_with_other_than_m_ones_refused(self, flip):
        values = np.array([0, 5, 9, 40, 41], dtype=np.int64)
        bits = encode_bits(values, 64)
        high = len(values) * low_width(len(values), 64)
        ones = high + np.flatnonzero(bits[high:])
        if flip == "drop":
            bits[ones[-1]] = 0
        else:
            bits[len(bits) - 1] = 1
        with pytest.raises(ValueError, match=r"holds [46] ones for 5 values"):
            decode_bits(bits, len(values), 64)
