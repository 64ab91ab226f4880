"""A fleet of series in one store: SeriesDB + parallel batch compression.

The paper's deployment sketch (§IV-C1) scaled out: instead of one
``TieredStore``, a :class:`repro.SeriesDB` keeps a whole fleet of series
— one tiered shard per series id, a JSON manifest, and a background
compaction policy.  Batch ingest encodes the hot-tier pieces of every
series in one vectorised Gorilla pass, in the calling process, which is
how a multi-tenant ingest node keeps up with many streams;
:func:`repro.compress_many` fans whole series out over a process pool.

Run with::

    python examples/series_db.py
"""

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import SeriesDB, compress_many
from repro.data import DATASETS


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro-seriesdb-"))
    try:
        demo(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def demo(root: Path) -> None:
    # A fleet of tenants: eight synthetic sensors from the paper's datasets.
    names = ["IT", "US", "CT", "DP"]
    fleet = {
        f"{name.lower()}-{replica}": DATASETS[name].generate(6_000)
        for name in names
        for replica in (0, 1)
    }

    # --- parallel batch compression, no store involved -------------------------
    t0 = time.perf_counter()
    compressed = compress_many(fleet, codec="gorilla", workers=4)
    elapsed = time.perf_counter() - t0
    total = sum(len(v) for v in fleet.values())
    print(f"compress_many: {total:,} values / {len(fleet)} series "
          f"in {elapsed:.2f}s (gorilla, 4 workers)")
    worst = max(compressed, key=lambda k: compressed[k].compression_ratio())
    print(f"worst ratio: {worst} at "
          f"{100 * compressed[worst].compression_ratio():.1f}% of raw")

    # --- the durable store: ingest the same fleet -------------------------------
    db = SeriesDB(root, seal_threshold=1024, hot_codec="gorilla",
                  cold_codec="neats")
    db.ingest_many(fleet)
    db.flush()
    print(f"\ningested into {db.root} "
          f"({len(db)} shards, manifest + one .tier file per series)")

    # Queries hit exactly one shard; opening the DB reads only the manifest.
    db = SeriesDB.open(root)
    sid = "it-0"
    assert db.access(sid, 4_321) == fleet[sid][4_321]
    window = db.range(sid, 2_000, 2_010)
    print(f"{sid}[2000:2010] = {window.tolist()}")

    # --- background recompression across the fleet ------------------------------
    before = sum(db.store(s).size_bits() for s in db.series_ids())
    compacted = db.compact(hot_threshold=0)  # every shard with sealed hot data
    after = sum(db.store(s).size_bits() for s in db.series_ids())
    print(f"\ncompacted {len(compacted)} shards: "
          f"{before / 8 / 1024:.0f} KiB -> {after / 8 / 1024:.0f} KiB "
          f"(NeaTS cold tier)")

    # Everything survives a reopen, bit-exactly.
    db = SeriesDB.open(root)
    for sid, values in fleet.items():
        assert np.array_equal(db.decompress(sid), values)
    print("reopened and verified every series bit-exactly")


if __name__ == "__main__":
    main()
