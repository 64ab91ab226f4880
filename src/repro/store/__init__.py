"""The store subsystem: parallel batch compression and a multi-series DB.

Three layers grown out of the ROADMAP items unlocked by the codec
registry and the framed ``Compressed`` serialisation:

* :func:`compress_many` / :func:`compress_many_frames` — fan compression
  of many series out over a process pool; workers exchange framed bytes,
  so results are byte-identical to serial ``repro.compress``;
* :class:`SeriesDB` — a durable shard-per-series store (one
  :class:`~repro.core.tiered.TieredStore` snapshot per series id plus a
  JSON manifest and one group log), with in-process batch ingest (one
  compression pass per batch), per-series ``access`` / ``range``, and a
  cross-shard :meth:`~SeriesDB.compact` policy;
* :class:`PartitionedSeriesDB` — N independent ``SeriesDB`` partition
  directories behind one façade: hash-placed series, per-partition
  locks/logs/manifests, in-process batch ingest (one fsync per partition
  per batch), process fan-out for compaction, and multi-series reads in
  the calling thread.

Both store kinds implement the :class:`SeriesStore` protocol
(:mod:`repro.store.interface`); :func:`open_store` opens a directory as
whichever kind its manifest declares.  Re-exported at top level:
``repro.compress_many``, ``repro.SeriesDB``, ``repro.PartitionedSeriesDB``,
``repro.open_store``.
"""

from .interface import SeriesStore
from .parallel import (
    compress_many,
    compress_many_frames,
    default_workers,
    process_map,
)
from .partitioned import PartitionedSeriesDB, open_store
from .seriesdb import SeriesDB

__all__ = [
    "compress_many",
    "compress_many_frames",
    "default_workers",
    "process_map",
    "SeriesDB",
    "SeriesStore",
    "PartitionedSeriesDB",
    "open_store",
]
