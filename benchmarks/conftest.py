"""Shared fixtures for the pytest-benchmark suite.

Benchmarks run on small slices of the synthetic datasets (pure-Python
compression is the slow part); the full paper-scale tables come from
``python -m repro.bench`` instead (``--experiment table3`` and friends).
"""

import numpy as np
import pytest

from repro.data import DATASETS

BENCH_N = 2000


@pytest.fixture(scope="session")
def bench_datasets():
    """Three representative datasets at benchmark scale."""
    return {
        name: DATASETS[name].generate(BENCH_N)
        for name in ("IT", "US", "CT")
    }


@pytest.fixture(scope="session")
def bench_series(bench_datasets):
    """A single default series for micro-benchmarks."""
    return bench_datasets["IT"]


@pytest.fixture(scope="session")
def compressed_by_name(bench_datasets):
    """Pre-compressed representations for query benchmarks."""
    from repro.bench.registry import make_compressor

    out = {}
    for name in ("Xz", "Zstd*", "Lz4*", "DAC", "LeCo", "ALP", "NeaTS"):
        comp = make_compressor(name, digits=DATASETS["IT"].digits)
        out[name] = comp.compress(bench_datasets["IT"])
    return out
