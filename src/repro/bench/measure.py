"""Measurement primitives shared by all table/figure reproductions.

Speeds follow the paper's units: MB/s where a "byte" is a byte of the
*uncompressed* representation (8 per value), and random access speed counts
8 bytes per accessed value (Table III bottom).  Absolute numbers are
interpreter-bound: every codec here is Python and numpy, where the paper's
are C++, so the harness is about *relative* shapes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CompressorStats", "measure_lossless", "measure_random_access",
           "measure_range_throughput"]


@dataclass
class CompressorStats:
    """Everything Table III reports for one (compressor, dataset) pair."""

    name: str
    dataset: str
    n: int
    compressed_bits: int
    compress_seconds: float
    decompress_seconds: float
    access_seconds_per_query: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Compressed size / original size (paper: 'compression ratio (%)')."""
        return self.compressed_bits / (64 * self.n)

    @property
    def ratio_pct(self) -> float:
        """The same ratio expressed as a percentage."""
        return 100.0 * self.ratio

    @property
    def compress_mb_s(self) -> float:
        """Compression speed over the uncompressed byte count."""
        return self._mb(self.compress_seconds)

    @property
    def decompress_mb_s(self) -> float:
        """Decompression speed over the uncompressed byte count."""
        return self._mb(self.decompress_seconds)

    @property
    def access_mb_s(self) -> float:
        """Random access speed: 8 bytes per query / seconds per query."""
        if self.access_seconds_per_query <= 0:
            return 0.0
        return 8.0 / self.access_seconds_per_query / 1e6

    def _mb(self, seconds: float) -> float:
        if seconds <= 0:
            return float("inf")
        return (8.0 * self.n) / seconds / 1e6


def measure_lossless(
    compressor, values: np.ndarray, dataset: str = "?", repeats: int = 1
) -> CompressorStats:
    """Compress, verify the round-trip, and time both directions."""
    best_c = float("inf")
    compressed = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        compressed = compressor.compress(values)
        best_c = min(best_c, time.perf_counter() - t0)
    best_d = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = compressed.decompress()
        best_d = min(best_d, time.perf_counter() - t0)
    if not np.array_equal(out, values):
        raise AssertionError(
            f"{compressor.name} failed the lossless round-trip on {dataset}"
        )
    stats = CompressorStats(
        name=compressor.name,
        dataset=dataset,
        n=len(values),
        compressed_bits=compressed.size_bits(),
        compress_seconds=best_c,
        decompress_seconds=best_d,
    )
    stats.extras["compressed"] = compressed
    return stats


def measure_random_access(
    compressed, values: np.ndarray, queries: int = 1000, seed: int = 0
) -> float:
    """Seconds per random access query, verified against the original."""
    rng = np.random.default_rng(seed)
    positions = rng.integers(0, len(values), queries)
    t0 = time.perf_counter()
    acc = 0
    for k in positions.tolist():
        acc ^= compressed.access(k)
    elapsed = time.perf_counter() - t0
    # Verify a sample (outside the timed region).
    for k in positions[:32].tolist():
        got = compressed.access(k)
        if got != int(values[k]):
            raise AssertionError(f"random access mismatch at {k}: {got} != {values[k]}")
    return elapsed / queries


def measure_range_throughput(
    compressed,
    values: np.ndarray,
    range_size: int,
    queries: int = 50,
    seed: int = 0,
) -> float:
    """Range queries per second for a fixed range size (Figure 4)."""
    n = len(values)
    range_size = min(range_size, n)
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, max(n - range_size, 1), queries)
    t0 = time.perf_counter()
    for s in starts.tolist():
        compressed.decompress_range(s, s + range_size)
    elapsed = time.perf_counter() - t0
    # Spot-check correctness outside the timed region.
    s = int(starts[0])
    got = compressed.decompress_range(s, s + range_size)
    if not np.array_equal(got, values[s : s + range_size]):
        raise AssertionError("range query returned wrong values")
    return queries / elapsed if elapsed > 0 else float("inf")
