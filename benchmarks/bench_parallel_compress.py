"""Parallel compression benchmark: ``compress_many`` vs serial, plus SeriesDB.

Measures the claim of the store's process pool: fanning NeaTS
compression (what the program fans out: archives and compaction) over a
4-worker pool is >= 2x faster than serial ``repro.compress`` on 8 series
of 5k values each (given >= 4 cores — the pool cannot beat serial on a
single-core box, and the pytest speedup check skips itself there).  The
hot codec needs no pool: Gorilla encodes a whole ingest batch in one
vectorised pass.  Also verifies, at benchmark scale, that a ``SeriesDB``
snapshot survives a save/load/query round-trip with byte-identical shard
frames.

Run the full-scale numbers as a script::

    PYTHONPATH=src python benchmarks/bench_parallel_compress.py
    PYTHONPATH=src python benchmarks/bench_parallel_compress.py \
        --series 8 --n 5000 --workers 4 --codec neats

or through pytest (explicit path; bench_* files are not swept by tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_compress.py -v
"""

import argparse
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.store import SeriesDB, compress_many_frames, default_workers

N_SERIES = 8
N_VALUES = 5_000  # NeaTS compresses ~10k values/s: a few seconds serial
WORKERS = 4
CODEC = "neats"  # native payload: pooled frames decode without recompression


def make_fleet(n_series: int, n: int) -> dict:
    """Synthetic sensor fleet: distinct smooth-plus-walk series per id."""
    rng = np.random.default_rng(7)
    fleet = {}
    for i in range(n_series):
        smooth = 1000 * np.sin(np.arange(n) / (30 + 7 * i))
        walk = np.cumsum(rng.integers(-3, 4, n))
        fleet[f"series-{i:02d}"] = (smooth + walk).astype(np.int64)
    return fleet


def run_compress(n_series: int, n: int, workers: int, codec: str):
    """Time serial vs pooled compression; returns (t_serial, t_pool, frames)."""
    fleet = make_fleet(n_series, n)

    t0 = time.perf_counter()
    serial = {k: repro.compress(v, codec=codec).to_bytes()
              for k, v in fleet.items()}
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = compress_many_frames(fleet, codec=codec, workers=workers)
    t_pool = time.perf_counter() - t0

    assert pooled == serial, "pooled frames must be byte-identical to serial"
    return t_serial, t_pool, pooled


def run_seriesdb_roundtrip(n_series: int, n: int, codec: str):
    """Flush a SeriesDB, reopen it, and compare shard bytes and answers."""
    fleet = make_fleet(n_series, n)
    root = Path(tempfile.mkdtemp(prefix="repro-bench-db-"))
    try:
        db = SeriesDB(root, seal_threshold=4096, hot_codec="gorilla",
                      cold_codec=codec)
        db.ingest_many(fleet)
        db.flush()
        shards = {
            sid: (root / db.info()["series"][sid]["shard"]).read_bytes()
            for sid in db.series_ids()
        }

        reopened = SeriesDB.open(root)
        for sid, values in fleet.items():
            assert reopened.access(sid, n // 2) == values[n // 2]
            assert np.array_equal(reopened.range(sid, 10, 400), values[10:400])
        reopened.mark_dirty(next(iter(fleet)))  # force one rewrite
        reopened.flush()
        for sid, blob in shards.items():
            path = root / reopened.info()["series"][sid]["shard"]
            assert path.read_bytes() == blob, (
                f"shard {sid} changed bytes across a load/flush cycle"
            )
        return sum(len(b) for b in shards.values())
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- pytest entry points -------------------------------------------------------


def test_pooled_frames_match_serial_small():
    """Determinism at small scale — runs everywhere, fast."""
    run_compress(n_series=4, n=1_000, workers=2, codec=CODEC)


def test_seriesdb_snapshot_roundtrip_small():
    run_seriesdb_roundtrip(n_series=3, n=9_000, codec=CODEC)


@pytest.mark.skipif(default_workers() < 4,
                    reason="pool speedup needs >= 4 schedulable cores")
def test_pool_speedup_full_scale():
    """The acceptance bar: 4 workers >= 2x serial on 8 x 5k NeaTS values."""
    t_serial, t_pool, _ = run_compress(N_SERIES, N_VALUES, WORKERS, CODEC)
    assert t_serial / t_pool >= 2.0, (
        f"serial {t_serial:.2f}s vs pooled {t_pool:.2f}s "
        f"({t_serial / t_pool:.2f}x)"
    )


# -- script entry point --------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--series", type=int, default=N_SERIES)
    parser.add_argument("--n", type=int, default=N_VALUES)
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument("--codec", default=CODEC)
    args = parser.parse_args()

    print(f"fleet: {args.series} series x {args.n:,} values, "
          f"codec={args.codec}, cores available={default_workers()}")
    t_serial, t_pool, frames = run_compress(args.series, args.n,
                                            args.workers, args.codec)
    total = args.series * args.n
    print(f"serial : {t_serial:7.2f}s  {total / t_serial / 1e6:6.2f} Mvalues/s")
    print(f"pooled : {t_pool:7.2f}s  {total / t_pool / 1e6:6.2f} Mvalues/s "
          f"({args.workers} workers)")
    print(f"speedup: {t_serial / t_pool:.2f}x "
          f"(frames byte-identical to serial: yes)")

    shard_bytes = run_seriesdb_roundtrip(args.series, args.n, args.codec)
    print(f"SeriesDB round-trip: byte-identical shards after reopen+reflush "
          f"({shard_bytes:,} shard bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
