"""Ablation benchmarks: design choices inside NeaTS.

Covers two design choices:

* the E-grid density (stride) for Algorithm 1;
* micro-benchmarks of the rank/select primitives behind DAC, LeCo and the
  timestamp codec, and of the wavelet tree the paper stores NeaTS's kinds
  ``K`` in (the ``NeaTS102`` frame packs them as 4-bit ids instead).
"""

import numpy as np
import pytest

from repro.bits import BitVector, EliasFano, WaveletTree
from repro.core import NeaTS


@pytest.mark.parametrize("stride", [1, 2, 4])
def test_eps_grid_stride(benchmark, bench_series, stride):
    comp = NeaTS(eps_stride=stride)
    compressed = benchmark.pedantic(
        lambda: comp.compress(bench_series), rounds=1, iterations=1
    )
    benchmark.extra_info["ratio_pct"] = round(
        100 * compressed.compression_ratio(), 2
    )


class TestPrimitives:
    @pytest.fixture(scope="class")
    def bv(self):
        rng = np.random.default_rng(2)
        return BitVector(rng.integers(0, 2, 100_000).tolist())

    @pytest.fixture(scope="class")
    def ef(self):
        rng = np.random.default_rng(3)
        return EliasFano(sorted(int(v) for v in rng.integers(0, 10**7, 20_000)))

    def test_bitvector_rank(self, benchmark, bv):
        positions = list(range(0, 100_000, 997))
        benchmark(lambda: [bv.rank1(i) for i in positions])

    def test_bitvector_select(self, benchmark, bv):
        ks = list(range(0, bv.count_ones, 499))
        benchmark(lambda: [bv.select1(k) for k in ks])

    def test_eliasfano_access(self, benchmark, ef):
        idxs = list(range(0, len(ef), 199))
        benchmark(lambda: [ef[i] for i in idxs])

    def test_eliasfano_rank(self, benchmark, ef):
        probes = list(range(0, 10**7, 99_991))
        benchmark(lambda: [ef.rank(x) for x in probes])

    def test_wavelet_rank(self, benchmark):
        rng = np.random.default_rng(4)
        wt = WaveletTree(rng.integers(0, 4, 50_000).tolist(), sigma=4)
        idxs = list(range(0, 50_000, 499))
        benchmark(lambda: [wt.rank(2, i) for i in idxs])
