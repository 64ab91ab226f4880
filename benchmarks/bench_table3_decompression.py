"""Table III (middle) benchmark: decompression speed.

The paper's claim: NeaTS decompression is the fastest or near-fastest thanks
to per-fragment vectorised evaluation; the stdlib C codecs (Xz/Zstd* rows)
have an unfair compiled-code advantage here.  The full-scale table comes
from ``python -m repro.bench --experiment table3``.
"""

import numpy as np
import pytest


@pytest.mark.parametrize(
    "name", ["Xz", "Zstd*", "Lz4*", "DAC", "LeCo", "ALP", "NeaTS"]
)
def test_decompression(benchmark, compressed_by_name, bench_series, name):
    compressed = compressed_by_name[name]
    out = benchmark(compressed.decompress)
    assert np.array_equal(out, bench_series)
