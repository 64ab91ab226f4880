"""Unit tests for the wavelet tree."""

import numpy as np
import pytest

from repro.bits import WaveletTree


def naive_rank(symbols, s, i):
    return sum(1 for x in symbols[:i] if x == s)


class TestConstruction:
    def test_empty(self):
        wt = WaveletTree([])
        assert len(wt) == 0
        assert wt.to_list() == []

    def test_single_symbol_alphabet(self):
        wt = WaveletTree([0, 0, 0], sigma=1)
        assert wt.to_list() == [0, 0, 0]
        assert wt.rank(0, 3) == 3

    def test_symbol_out_of_range_raises(self):
        with pytest.raises(ValueError):
            WaveletTree([0, 5], sigma=4)

    def test_sigma_inferred(self):
        wt = WaveletTree([0, 3, 1])
        assert wt.sigma == 4


class TestAccess:
    def test_access_small(self):
        symbols = [2, 0, 1, 3, 2, 2, 0]
        wt = WaveletTree(symbols)
        assert wt.to_list() == symbols

    def test_access_negative_index(self):
        wt = WaveletTree([1, 2, 3])
        assert wt[-1] == 3

    def test_access_out_of_range(self):
        wt = WaveletTree([0])
        with pytest.raises(IndexError):
            wt[1]

    @pytest.mark.parametrize("sigma", [2, 3, 4, 5, 8, 11])
    def test_access_random(self, sigma):
        rng = np.random.default_rng(sigma)
        symbols = rng.integers(0, sigma, 600).tolist()
        wt = WaveletTree(symbols, sigma=sigma)
        assert wt.to_list() == symbols


class TestRank:
    @pytest.mark.parametrize("sigma", [2, 4, 7])
    def test_rank_matches_naive(self, sigma):
        rng = np.random.default_rng(100 + sigma)
        symbols = rng.integers(0, sigma, 400).tolist()
        wt = WaveletTree(symbols, sigma=sigma)
        for s in range(sigma):
            for i in range(0, 401, 37):
                assert wt.rank(s, i) == naive_rank(symbols, s, i)

    def test_rank_clamps(self):
        wt = WaveletTree([0, 1, 0])
        assert wt.rank(0, 100) == 2
        assert wt.rank(0, -5) == 0

    def test_rank_invalid_symbol(self):
        wt = WaveletTree([0, 1])
        with pytest.raises(ValueError):
            wt.rank(5, 1)

    def test_count(self):
        symbols = [0, 1, 1, 2, 1]
        wt = WaveletTree(symbols)
        assert wt.count(1) == 3
        assert wt.count(0) == 1
        assert wt.count(2) == 1

    def test_rank_of_absent_symbol(self):
        wt = WaveletTree([0, 0, 2, 2], sigma=4)
        assert wt.rank(1, 4) == 0
        assert wt.rank(3, 4) == 0


class TestRankAccessConsistency:
    def test_param_indexing_pattern(self):
        # Algorithm 3 uses rank(symbol, i) as the index of fragment i's
        # parameters inside the per-kind array; verify the identity.
        rng = np.random.default_rng(11)
        symbols = rng.integers(0, 4, 300).tolist()
        wt = WaveletTree(symbols, sigma=4)
        counters = [0, 0, 0, 0]
        for i, s in enumerate(symbols):
            assert wt.rank(s, i) == counters[s]
            counters[s] += 1

    def test_size_bits_positive(self):
        assert WaveletTree([0, 1, 2]).size_bits() > 0
