"""PartitionedSeriesDB: N independent SeriesDB partitions, one façade.

The ROADMAP's horizontal-partitioning step: a single
:class:`~repro.store.seriesdb.SeriesDB` directory is one manifest, one
fsync domain, and one lock domain — correct, but serial.  A
:class:`PartitionedSeriesDB` shards the *keyspace* instead of the values:
series ids are placed onto N fully independent SeriesDB directories, each
with its own manifest, write-ahead log, shard cache, and lock, behind one
façade implementing the same :class:`~repro.store.interface.SeriesStore`
protocol::

    db-root/
      MANIFEST.json          # RPPD0001: partition count + series -> partition
      p0000/
        MANIFEST.json        # a complete, self-contained SeriesDB (RPDB0001)
        shards/...
      p0001/
        ...

Because partitions share nothing, the façade can split work up where
that pays:

* ``ingest_many`` splits the batch by partition and ingests each
  sub-batch in this process, partition by partition.  Each partition
  compresses its sub-batch in one pass and lands it in its own group log,
  so one batch costs one write and one fsync *per partition*, not one per
  series.
* ``compact`` runs partitions concurrently in worker processes
  (:func:`repro.store.parallel.process_map`): NeaTS compaction is
  CPU-bound, so real CPU parallelism pays there.
* Multi-series reads (:meth:`PartitionedSeriesDB.access_many` /
  :meth:`~PartitionedSeriesDB.range_many`) check every id, then answer
  each query in the calling thread, in query order: the reads are
  Python work under the GIL, so threads would overlap nothing.

**Partition map.**  The root manifest pins every series to its partition
explicitly (``"series": {"cpu": 0, "mem": 3, ...}``, in global ingestion
order).  New series are placed by ``zlib.crc32(series_id) % N`` — a
stable, process-independent hash (Python's ``hash`` is salted per
process) — but the *map* is authoritative on every read, so explicit or
historical placements keep working.  The map is committed to disk before
any data lands in a partition under a new id; conversely each partition
directory remains a valid standalone SeriesDB, so recovery (and
``repro fsck``) can always reconcile the two: sids a partition knows but
the map lost are adopted, sids the map claims but no partition knows are
dropped, and one sid in two partitions is corruption and refuses to open.

**Consistency.**  Every façade method takes the façade lock, then the
partition's lock — a fixed lock order, so no inversions.  A cross-
partition ``ingest_many`` is atomic *per partition* (each partition
validates its sub-batch before mutating), not across partitions; a
failure leaves completed partitions ingested and reports the error.

>>> import numpy as np, tempfile
>>> from repro.store import PartitionedSeriesDB
>>> root = tempfile.mkdtemp()
>>> db = PartitionedSeriesDB(root, partitions=2, seal_threshold=256)
>>> _ = db.ingest_many({"a": np.arange(500), "b": np.arange(300) * 2})
>>> int(db.access("b", 10)), sorted(db.series_ids())
(20, ['a', 'b'])
>>> db.flush(); db2 = PartitionedSeriesDB.open(root)
>>> int(db2.count("a"))
500
"""

from __future__ import annotations

import json
import shutil
import threading
import zlib
from pathlib import Path

import numpy as np

from ..codecs.container import check_log_fields
from ..codecs.container import write_atomic as _write_atomic
from .parallel import default_workers, process_map
from .seriesdb import (
    DEFAULT_CACHE_CAPACITY,
    LEGACY_MANIFEST_KEYS,
    MANIFEST_NAME,
    SeriesDB,
    read_manifest,
)

__all__ = ["PARTITION_MANIFEST_FORMAT", "PartitionedSeriesDB", "open_store"]

PARTITION_MANIFEST_FORMAT = "RPPD0001"
_PART_DIR = "p{:04d}"


def _partition_dirs(root: Path, partitions: int) -> list[Path]:
    return [root / _PART_DIR.format(i) for i in range(partitions)]


def _compact_partition_job(task) -> list[str]:
    """Pool worker: compact one partition, report the compacted ids."""
    part_dir, hot_threshold = task
    db = SeriesDB.open(part_dir)
    try:
        return db.compact(hot_threshold)
    finally:
        db.close()


class PartitionedSeriesDB:
    """N independent :class:`SeriesDB` partitions behind one façade.

    Implements the same :class:`~repro.store.interface.SeriesStore`
    protocol as ``SeriesDB`` — the equivalence suite holds the two to
    identical answers — plus the partition-aware extras: the multi-series
    reads :meth:`access_many` and :meth:`range_many`, which run in the
    calling thread, :meth:`partition_of` and :meth:`migrate`.

    Parameters
    ----------
    root:
        Database directory.  Created (with ``partitions`` fresh SeriesDB
        partition directories) when it holds no manifest; opening an
        existing partitioned database ignores the configuration arguments
        in favour of the persisted root manifest, exactly like
        ``SeriesDB``.  A directory holding a *single-dir* SeriesDB
        manifest is refused — convert it with :meth:`migrate`.
    partitions:
        Partition count, fixed at creation time (re-partitioning is a
        :meth:`migrate` of a future PR).
    seal_threshold / hot_codec / cold_codec / hot_params / cold_params /
    allow_lossy / cache_capacity / lazy:
        As on :class:`~repro.store.seriesdb.SeriesDB`; the tier
        configuration is recorded in the root manifest and applied to
        every partition, the cache options are per-partition runtime
        options.
    """

    def __init__(
        self,
        root,
        *,
        partitions: int = 4,
        seal_threshold: int = 4096,
        hot_codec: str = "gorilla",
        cold_codec: str = "neats",
        hot_params: dict | None = None,
        cold_params: dict | None = None,
        allow_lossy: bool = False,
        cache_capacity: int | None = DEFAULT_CACHE_CAPACITY,
        lazy: bool = False,
        _manifest: dict | None = None,
    ) -> None:
        # Created before any shared state, same discipline as SeriesDB:
        # every public method runs under this re-entrant lock, and the
        # façade lock is always taken BEFORE any partition lock.
        self._lock = threading.RLock()
        self._closed = False
        self._root = Path(root)
        self._cache_capacity = cache_capacity
        self._lazy = bool(lazy)
        self._series_map: dict[str, int] = {}
        self._handles: dict[int, SeriesDB] = {}
        # ``_manifest`` is the root manifest ``open_store`` already parsed.
        manifest_path = self._root / MANIFEST_NAME
        manifest = _manifest
        if manifest is None and manifest_path.exists():
            manifest = read_manifest(manifest_path)
        if manifest is not None:
            if manifest.get("format") != PARTITION_MANIFEST_FORMAT:
                raise ValueError(
                    f"{manifest_path}: not a partitioned SeriesDB manifest "
                    f"(format {manifest.get('format')!r}); use "
                    "PartitionedSeriesDB.migrate to convert a single-dir "
                    "SeriesDB in place"
                )
            self._partitions = int(manifest["partitions"])
            self._placement = str(manifest.get("placement", "crc32"))
            self._config = {
                key: manifest[key]
                for key in (
                    "seal_threshold",
                    "hot_codec",
                    "hot_params",
                    "cold_codec",
                    "cold_params",
                )
            }
            self._config["allow_lossy"] = bool(manifest.get("allow_lossy", False))
            self._series_map = {
                sid: int(part) for sid, part in manifest["series"].items()
            }
            self._open_partitions()
            self._reconcile()
        else:
            if int(partitions) < 1:
                raise ValueError("partitions must be positive")
            self._partitions = int(partitions)
            self._placement = "crc32"
            self._config = {
                "seal_threshold": int(seal_threshold),
                "hot_codec": hot_codec,
                "hot_params": dict(hot_params or {}),
                "cold_codec": cold_codec,
                "cold_params": dict(cold_params or {}),
                "allow_lossy": bool(allow_lossy),
            }
            # Partitions first, root manifest last: a crash mid-creation
            # leaves partition dirs a re-run adopts, never a root manifest
            # pointing at partitions that do not exist.
            for path in _partition_dirs(self._root, self._partitions):
                handle = SeriesDB(
                    path,
                    cache_capacity=cache_capacity,
                    lazy=lazy,
                    **self._config,
                )
                self._handles[len(self._handles)] = handle
            self._write_root_manifest()

    def _open_partitions(self) -> None:
        """Open every partition eagerly (running each one's WAL recovery)."""
        for part, path in enumerate(_partition_dirs(self._root, self._partitions)):
            if not (path / MANIFEST_NAME).exists():
                raise ValueError(
                    f"{self._root}: partition directory {path.name} is missing "
                    f"its SeriesDB manifest (root manifest declares "
                    f"{self._partitions} partitions)"
                )
            self._handles[part] = SeriesDB.open(
                path, cache_capacity=self._cache_capacity, lazy=self._lazy
            )

    def _reconcile(self) -> None:
        """Re-derive the partition map where partitions know better.

        Partition manifests commit independently of the root map, so a
        crash can leave either side ahead: a series a partition recovered
        (e.g. from its group log) but the map never learned is adopted; a
        series the map claims but its partition does not know was never
        ingested and is dropped.  One series in two partitions has no
        single true owner — that is corruption, and opening refuses.
        """
        changed = False
        owners: dict[str, int] = {}
        for part in range(self._partitions):
            for sid in self._handles[part].series_ids():
                if sid in owners:
                    raise ValueError(
                        f"{self._root}: series {sid!r} exists in partitions "
                        f"{owners[sid]} and {part}; the partition map cannot "
                        "be reconciled (run repro fsck)"
                    )
                owners[sid] = part
                if self._series_map.get(sid) != part:
                    self._series_map[sid] = part
                    changed = True
        for sid in list(self._series_map):
            if sid not in owners:
                del self._series_map[sid]
                changed = True
        if changed:
            self._write_root_manifest()

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        root,
        *,
        cache_capacity: int | None = DEFAULT_CACHE_CAPACITY,
        lazy: bool = False,
    ) -> "PartitionedSeriesDB":
        """Open an existing partitioned database; raises when ``root`` holds none."""
        root = Path(root)
        if not (root / MANIFEST_NAME).exists():
            raise ValueError(f"{root}: no partitioned SeriesDB manifest found")
        return cls(root, cache_capacity=cache_capacity, lazy=lazy)

    @classmethod
    def migrate(
        cls,
        src_dir,
        *,
        partitions: int = 4,
        cache_capacity: int | None = DEFAULT_CACHE_CAPACITY,
        lazy: bool = False,
    ) -> "PartitionedSeriesDB":
        """Convert a single-dir SeriesDB into a partitioned one, in place.

        Shard files are **copied verbatim** into their partition
        directories — byte-identical payloads, every crc and count carried
        over — and each partition gets a manifest holding exactly its
        slice of the source's series table.  The commit point is the
        atomic rewrite of the root ``MANIFEST.json`` from ``RPDB0001`` to
        ``RPPD0001``: a crash before it leaves the source database intact
        (plus partition dirs a re-run replaces); after it, the partitioned
        database is live and the old ``shards/`` tree is deleted as
        post-commit cleanup.  The source is flushed first, so no log
        carries live values across the conversion.

        Returns the open :class:`PartitionedSeriesDB`.
        """
        src_dir = Path(src_dir)
        src = SeriesDB.open(src_dir)  # replays any surviving logs
        try:
            src.flush()
        finally:
            src.close()
        manifest = read_manifest(src_dir / MANIFEST_NAME)
        if int(partitions) < 1:
            raise ValueError("partitions must be positive")
        partitions = int(partitions)
        config = {
            key: manifest[key]
            for key in (
                "seal_threshold",
                "hot_codec",
                "hot_params",
                "cold_codec",
                "cold_params",
            )
        }
        config["allow_lossy"] = bool(manifest.get("allow_lossy", False))
        series_map = {
            sid: zlib.crc32(sid.encode("utf-8")) % partitions
            for sid in manifest["series"]
        }
        for part, path in enumerate(_partition_dirs(src_dir, partitions)):
            if path.exists():  # re-run after a crash: replace the partial dir
                shutil.rmtree(path)
            (path / "shards").mkdir(parents=True)
            part_series = {}
            for sid, owner in series_map.items():
                if owner != part:
                    continue
                entry = dict(manifest["series"][sid])
                shard = entry["shard"]
                if (src_dir / shard).exists():
                    shutil.copyfile(src_dir / shard, path / shard)
                part_series[sid] = entry
            part_manifest = {
                "format": manifest["format"],
                **config,
                **LEGACY_MANIFEST_KEYS,
                "next_shard": int(manifest["next_shard"]),
                "series": part_series,
            }
            blob = json.dumps(part_manifest, indent=2).encode("utf-8")
            _write_atomic(path / MANIFEST_NAME, blob + b"\n")
        root_manifest = {
            "format": PARTITION_MANIFEST_FORMAT,
            "partitions": partitions,
            "placement": "crc32",
            **config,
            **LEGACY_MANIFEST_KEYS,
            "series": series_map,
        }
        blob = json.dumps(root_manifest, indent=2).encode("utf-8")
        _write_atomic(src_dir / MANIFEST_NAME, blob + b"\n")  # the commit point
        shutil.rmtree(src_dir / "shards", ignore_errors=True)
        return cls.open(src_dir, cache_capacity=cache_capacity, lazy=lazy)

    def __enter__(self) -> "PartitionedSeriesDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    def close(self) -> None:
        """Close every partition (flushing each), then poison the façade.

        Idempotent, same contract as :meth:`SeriesDB.close`: after the
        first close every public call raises ``ValueError``.
        """
        with self._lock:
            if self._closed:
                return
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()
            self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the handle is then unusable)."""
        return self._closed

    def _check_open(self) -> None:
        """Called (under the lock) by every public method: dead means dead."""
        if self._closed:
            raise ValueError(
                f"PartitionedSeriesDB at {self._root} is closed; reopen with "
                "PartitionedSeriesDB.open() for a fresh handle"
            )

    # -- introspection --------------------------------------------------------

    @property
    def root(self) -> Path:
        """The database directory."""
        return self._root

    @property
    def partitions(self) -> int:
        """The partition count, fixed at creation time."""
        return self._partitions

    def series_ids(self) -> list[str]:
        """Every series id, in global ingestion order."""
        with self._lock:
            self._check_open()
            return list(self._series_map)

    def __contains__(self, series_id: str) -> bool:
        with self._lock:
            self._check_open()
            return series_id in self._series_map

    def __len__(self) -> int:
        with self._lock:
            self._check_open()
            return len(self._series_map)

    def partition_of(self, series_id: str) -> int:
        """The partition index holding ``series_id``."""
        with self._lock:
            self._check_open()
            return self._partition_of(series_id)

    def count(self, series_id: str) -> int:
        """Number of values in ``series_id``."""
        with self._lock:
            self._check_open()
            return self._handles[self._partition_of(series_id)].count(series_id)

    def digits(self, series_id: str) -> int:
        """Decimal scaling recorded for ``series_id`` at ingest time."""
        with self._lock:
            self._check_open()
            return self._handles[self._partition_of(series_id)].digits(series_id)

    def info(self) -> dict:
        """Configuration plus a per-series summary, tagged with partitions."""
        with self._lock:
            self._check_open()
            per_part = {
                part: handle.info()["series"]
                for part, handle in self._handles.items()
            }
            series = {}
            for sid, part in self._series_map.items():
                entry = dict(per_part[part].get(sid, {}))
                entry["partition"] = part
                series[sid] = entry
            return {
                **self._config,
                "root": str(self._root),
                "partitions": self._partitions,
                "placement": self._placement,
                "series": series,
            }

    # -- ingestion ------------------------------------------------------------

    def ingest(self, series_id: str, values, *, digits: int | None = None) -> int:
        """Durably append ``values`` to ``series_id``; returns its count.

        A one-series :meth:`ingest_many`.
        """
        return self.ingest_many({series_id: values}, digits=digits)[series_id]

    def ingest_many(self, series_map, *, digits: int | None = None) -> dict:
        """Batch ingest: split by partition, each sub-batch in this process.

        A new series is assigned a partition and the assignment committed
        to the root manifest *before* any data lands in the partition —
        recovery must never find data the map cannot place.  Each
        partition then runs :meth:`SeriesDB.ingest_many` on its sub-batch:
        one compression pass, one group-log write and one fsync per
        touched partition.

        Atomic per partition, not across partitions: each partition
        validates its whole sub-batch before mutating anything, so a bad
        series fails its partition cleanly, but other partitions may have
        already committed theirs.  Returns series id -> new total count.
        """
        with self._lock:
            self._check_open()
            groups: dict[int, dict[str, np.ndarray]] = {}
            new_sids = []
            for sid, values in series_map.items():
                values = np.asarray(values, dtype=np.int64)
                if values.ndim != 1:
                    raise ValueError(f"series {sid!r}: expected a 1-D array")
                if sid not in self._series_map:
                    if not sid or not isinstance(sid, str):
                        raise ValueError(f"invalid series id {sid!r}")
                    new_sids.append(sid)
                check_log_fields(digits or 0, sid)
                part = self._series_map.get(
                    sid, zlib.crc32(sid.encode("utf-8")) % self._partitions
                )
                groups.setdefault(part, {})[sid] = values
            for sid in new_sids:  # commit the map before any data lands
                self._assign(sid)
            if new_sids:
                self._write_root_manifest()
            counts: dict[str, int] = {}
            for part in sorted(groups):
                counts.update(
                    self._handles[part].ingest_many(groups[part], digits=digits)
                )
            return counts

    # -- queries --------------------------------------------------------------

    def access(self, series_id: str, k: int) -> int:
        """The value at position ``k`` of ``series_id``."""
        with self._lock:
            self._check_open()
            return self._handles[self._partition_of(series_id)].access(series_id, k)

    def range(self, series_id: str, lo: int, hi: int) -> np.ndarray:
        """Values at positions ``[lo, hi)`` of ``series_id``."""
        with self._lock:
            self._check_open()
            return self._handles[self._partition_of(series_id)].range(
                series_id, lo, hi
            )

    def decompress(self, series_id: str) -> np.ndarray:
        """Every value of ``series_id``, in order."""
        with self._lock:
            self._check_open()
            return self._handles[self._partition_of(series_id)].decompress(series_id)

    def access_many(self, queries) -> dict:
        """Multi-series point lookups: ``{sid: k}`` -> ``{sid: value}``.

        Every id is checked before any partition is read, so an unknown
        series raises with nothing decoded; the lookups then run in the
        calling thread, in query order.
        """
        with self._lock:
            self._check_open()
            handles = [self._handles[self._partition_of(sid)] for sid in queries]
            return {
                sid: handle.access(sid, queries[sid])
                for sid, handle in zip(queries, handles)
            }

    def range_many(self, queries) -> dict:
        """Multi-series range reads: ``{sid: (lo, hi)}`` -> ``{sid: array}``.

        Checked and answered like :meth:`access_many`.
        """
        with self._lock:
            self._check_open()
            handles = [self._handles[self._partition_of(sid)] for sid in queries]
            return {
                sid: handle.range(sid, *queries[sid])
                for sid, handle in zip(queries, handles)
            }

    # -- maintenance ----------------------------------------------------------

    def compact(
        self, hot_threshold: int = 0, *, workers: int | None = None
    ) -> list[str]:
        """Consolidate hot tiers across partitions, concurrently.

        Every partition compacts independently (same threshold semantics
        as :meth:`SeriesDB.compact`); with ``workers > 1`` they run in
        parallel worker processes.  Returns the compacted ids in global
        ingestion order.
        """
        with self._lock:
            self._check_open()
            eff = default_workers() if workers is None else max(1, int(workers))
            compacted: set[str] = set()
            if eff > 1 and self._partitions > 1:
                for handle in self._handles.values():
                    handle.close()
                tasks = [
                    (str(self._part_dir(part)), int(hot_threshold))
                    for part in range(self._partitions)
                ]
                try:
                    results = process_map(
                        _compact_partition_job, tasks, workers=eff
                    )
                finally:
                    for part in range(self._partitions):
                        self._handles[part] = SeriesDB.open(
                            self._part_dir(part),
                            cache_capacity=self._cache_capacity,
                            lazy=self._lazy,
                        )
                for ids in results:
                    compacted.update(ids)
            else:
                for handle in self._handles.values():
                    compacted.update(handle.compact(hot_threshold))
            return [sid for sid in self._series_map if sid in compacted]

    def flush(self) -> None:
        """Flush every partition (each one's snapshot + manifest commit)."""
        with self._lock:
            self._check_open()
            for handle in self._handles.values():
                handle.flush()

    # -- internals ------------------------------------------------------------

    def _part_dir(self, part: int) -> Path:
        return self._root / _PART_DIR.format(part)

    def _assign(self, series_id: str) -> int:
        """Place a new series on its partition (called under the lock).

        The single choke point that mutates the partition map — the
        sanitizer instruments it, and :meth:`_write_root_manifest` must
        follow before any data lands under the new id.
        """
        part = zlib.crc32(series_id.encode("utf-8")) % self._partitions
        self._series_map[series_id] = part
        return part

    def _partition_of(self, series_id: str) -> int:
        try:
            return self._series_map[series_id]
        except KeyError:
            known = ", ".join(sorted(self._series_map)) or "(none)"
            raise ValueError(
                f"unknown series {series_id!r}; known: {known}"
            ) from None

    def _write_root_manifest(self) -> None:
        manifest = {
            "format": PARTITION_MANIFEST_FORMAT,
            "partitions": self._partitions,
            "placement": self._placement,
            **self._config,
            **LEGACY_MANIFEST_KEYS,
            "series": self._series_map,
        }
        blob = json.dumps(manifest, indent=2).encode("utf-8")
        _write_atomic(self._root / MANIFEST_NAME, blob + b"\n")


def open_store(
    root,
    *,
    cache_capacity: int | None = DEFAULT_CACHE_CAPACITY,
    lazy: bool = False,
):
    """Open whichever store the directory's manifest declares.

    The :class:`~repro.store.interface.SeriesStore`-typed entry point:
    a ``RPDB0001`` manifest opens as :class:`SeriesDB`, a ``RPPD0001``
    one as :class:`PartitionedSeriesDB`.  Callers that only speak the
    protocol never need to know which.
    """
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise ValueError(f"{root}: no SeriesDB manifest found")
    # Parsed once here and handed to the store, which reads it no more.
    manifest = read_manifest(manifest_path)
    if manifest.get("format") == PARTITION_MANIFEST_FORMAT:
        return PartitionedSeriesDB(
            root, cache_capacity=cache_capacity, lazy=lazy, _manifest=manifest
        )
    return SeriesDB(
        root, cache_capacity=cache_capacity, lazy=lazy, _manifest=manifest
    )
