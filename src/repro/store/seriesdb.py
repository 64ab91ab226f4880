"""SeriesDB: a multi-series store with one shard per series id.

The ROADMAP's "shard-per-series store", grown out of the single-series
:class:`~repro.core.tiered.TieredStore`: a :class:`SeriesDB` is a
directory holding one tiered-store snapshot (``TieredStore.to_bytes``)
per series, plus a JSON manifest mapping series id -> shard path, codec
ids, value counts, and a crc32 of the shard bytes::

    db-root/
      MANIFEST.json
      shards/
        cpu-0000.tier        # TieredStore snapshot (RPTS0001): sealed frames,
        mem-0001.tier        # plus the write buffer as one hot-codec frame

Ingestion follows the paper's §IV-C1 deployment: values stream into each
shard's hot tier (a cheap codec like Gorilla), and :meth:`compact`
plays the "run NeaTS later on (or in the background)" role across the
whole fleet of shards — any shard whose hot tier exceeds a threshold is
consolidated into its strongly-compressed cold tier.  Batch ingest
compresses every piece of a batch with one ``compress_many`` call of the
hot codec, in this process, and each value is compressed once: the same
frame goes to the log and to the shard.

>>> import numpy as np, tempfile
>>> from repro.store import SeriesDB
>>> root = tempfile.mkdtemp()
>>> db = SeriesDB(root, seal_threshold=256, cold_codec="leats")
>>> counts = db.ingest_many({"a": np.arange(1000), "b": np.arange(500) * 2})
>>> db.flush(); db2 = SeriesDB.open(root)
>>> int(db2.access("b", 10)), int(db2.count("a"))
(20, 1000)

Shards load on demand (opening a database touches only the manifest) and
sit in a bounded LRU cache: up to ``cache_capacity`` clean open shards are
kept parsed in memory, so repeated ``access``/``range`` calls on hot
series skip the load entirely.  Dirty shards (unflushed mutations) are
pinned — the cache never evicts work — and a cached shard is dropped and
re-read whenever its manifest generation (the shard filename) changes
under it.  With ``lazy=True`` shard files are memory-mapped and their
frames parsed zero-copy off the map (the lazy open path of
:mod:`repro.codecs.container`) instead of being read and copied.

Ingested values are durable *before* :meth:`flush`: every ``ingest`` /
``ingest_many`` batch first lands in the directory's **group log** — one
shared write-ahead log (``RPGW0001``, see
:class:`repro.codecs.container.GroupLog`) of hot-codec frames tagged with
their series ids, one write and one fsync per batch — and only then
mutates the in-memory shards.  The manifest names the log generation
before any data lands in it, so after a crash the next open finds the
log, replays its records per series on top of the shard snapshots, and
re-marks those shards dirty; a record torn by a mid-write crash is
detected and skipped, keeping every completed batch.  :meth:`flush`
consolidates: the snapshots absorb the logged values, the manifest commit
rotates to a fresh (empty) log generation, and the old log file is
dropped post-commit.

Directories written before the group log was the only log may still hold
a per-series append log (``RPAL0001``) named by a series entry's
``"wal"`` key.  Opening replays it read-only — snapshot, then that log,
then the group log — and the next :meth:`flush` deletes it.

All other mutations stay in memory until :meth:`flush`, and every shard
read is crc-checked on the way back in — a swapped or bit-rotted shard
file fails loudly instead of answering queries from the wrong series.

Thread safety: every public method takes the database's re-entrant lock
(``self._lock``), so one :class:`SeriesDB` handle can be shared by many
threads — the shard cache, dirty set, log writer, and manifest state are
only ever mutated under it.  Private helpers are documented as
called-under-lock (the lock is taken at the public API boundary), and the
``repro lint`` lock-discipline rule (RPR301) enforces the convention
structurally.  The lock serialises whole operations; finer-grained
multi-reader/single-writer locking per series is the ROADMAP's service
layer work.
"""

from __future__ import annotations

import json
import re
import threading
import zlib
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..baselines.base import Compressed
from ..codecs import get_codec
from ..codecs.container import (
    GroupLog,
    check_log_fields,
    mmap_view,
    open_archive,
    read_group_log,
)
from ..codecs.container import write_atomic as _write_atomic
from ..core.tiered import TieredStore

__all__ = ["SeriesDB"]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "RPDB0001"
DEFAULT_CACHE_CAPACITY = 16
# Written into every manifest but never read back: v2.6.0 readers replay
# the group log only when a manifest sets it.
LEGACY_MANIFEST_KEYS = {"group_commit": True}
_SHARD_DIR = "shards"
_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def read_manifest(path: Path) -> dict:
    """The JSON object stored in the manifest file at ``path``.

    A file that is not UTF-8 JSON, or holds no object, raises ``ValueError``
    naming the file.
    """
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: corrupt manifest (not a JSON object)")
    return manifest


class SeriesDB:
    """A durable multi-series store: one :class:`TieredStore` shard per id.

    Parameters
    ----------
    root:
        Database directory.  Created (with a fresh manifest) when it does
        not yet hold one; opening an existing database ignores the codec
        arguments in favour of the persisted configuration.
    seal_threshold / hot_codec / cold_codec / hot_params / cold_params:
        Per-shard :class:`TieredStore` configuration, recorded in the
        manifest at creation time.  Codecs must be registry ids (shards
        are persisted).
    allow_lossy:
        Tier codecs are lossless by default: a lossy cold tier silently
        replacing exact history is a data-loss decision, so it must be
        opted into explicitly.  With ``allow_lossy=True`` a lossy
        ``cold_codec`` (e.g. ``"neats_l"`` with ``cold_params={"eps":
        ...}``) is accepted and recorded in the manifest; queries over
        compacted ranges then answer within that ε.  The *hot* tier can
        never be lossy — :class:`TieredStore` itself refuses one.
    cache_capacity:
        Maximum number of *clean* open shards kept parsed in the LRU
        cache (``None`` = unbounded).  Dirty shards are pinned until
        :meth:`flush` and never count against evictions.  A runtime
        option — not persisted in the manifest.
    lazy:
        When true, shard files are memory-mapped and parsed zero-copy
        instead of read into a bytes copy.  The map stays referenced by
        the parsed blocks, so it remains valid even after a later flush
        replaces the shard file.  Also a runtime option.
    """

    def __init__(
        self,
        root,
        *,
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
        # Created before any shared state: every public method (and the
        # recovery path below) runs under this re-entrant lock.
        self._lock = threading.RLock()
        self._closed = False
        self._root = Path(root)
        if cache_capacity is not None and cache_capacity < 1:
            raise ValueError("cache_capacity must be positive (or None)")
        self._cache_capacity = cache_capacity
        self._lazy = bool(lazy)
        self._stores: OrderedDict[str, TieredStore] = OrderedDict()
        self._cached_gen: dict[str, str] = {}  # shard filename at load time
        self._dirty: set[str] = set()
        # The group log: its generation name, its open writer, and the
        # values recovery regrouped per series until each shard loads.
        self._group_name: str | None = None
        self._group_log: GroupLog | None = None
        self._group_pending: dict[str, list[np.ndarray]] = {}
        # The generation the on-disk manifest names.  A flush that dies
        # between rotating the name in memory and committing the manifest
        # leaves the two apart; the next record must then re-commit first,
        # or it would land in a file recovery cannot find.
        self._synced_group: str | None = None
        # Whether the in-memory manifest holds state no commit has written
        # (a flush that raised at or before its commit).
        self._uncommitted = False
        # ``_manifest`` is the root manifest ``open_store`` already parsed.
        manifest_path = self._root / MANIFEST_NAME
        manifest = _manifest
        if manifest is None and manifest_path.exists():
            manifest = read_manifest(manifest_path)
        if manifest is not None:
            if manifest.get("format") != MANIFEST_FORMAT:
                raise ValueError(
                    f"{manifest_path}: not a SeriesDB manifest "
                    f"(format {manifest.get('format')!r})"
                )
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
            # Pre-lossy manifests carry no flag; their codecs are lossless.
            self._config["allow_lossy"] = bool(manifest.get("allow_lossy", False))
            self._group_name = manifest.get("group_wal")
            self._synced_group = self._group_name
            self._series: dict[str, dict] = dict(manifest["series"])
            self._next_shard = int(manifest["next_shard"])
            self._recover_logs()
        else:
            if not isinstance(hot_codec, str) or not isinstance(cold_codec, str):
                raise ValueError(
                    "SeriesDB requires codec ids (e.g. 'gorilla', 'neats'); "
                    "compressor instances cannot be persisted"
                )
            if int(seal_threshold) < 1:
                raise ValueError("seal_threshold must be positive")
            self._check_tier_codecs(
                hot_codec, hot_params, cold_codec, cold_params, allow_lossy
            )
            self._config = {
                "seal_threshold": int(seal_threshold),
                "hot_codec": hot_codec,
                "hot_params": dict(hot_params or {}),
                "cold_codec": cold_codec,
                "cold_params": dict(cold_params or {}),
                "allow_lossy": bool(allow_lossy),
            }
            self._series = {}
            self._next_shard = 0
            (self._root / _SHARD_DIR).mkdir(parents=True, exist_ok=True)
            self._write_manifest()

    @staticmethod
    def _check_tier_codecs(
        hot_codec: str,
        hot_params: dict | None,
        cold_codec: str,
        cold_params: dict | None,
        allow_lossy: bool,
    ) -> None:
        """Enforce the lossy-tier policy and probe a shard's construction.

        Runs at database creation time, before the manifest is written: an
        invalid configuration (unknown codec, missing or nonsense ``eps``,
        bad constructor param, a lossy hot codec) must fail here rather
        than persist a manifest whose first ingest dies.
        """
        from ..codecs import codec_spec, get_codec

        if codec_spec(cold_codec).lossy and not allow_lossy:
            raise ValueError(
                f"cold codec {cold_codec!r} is lossy; pass allow_lossy=True "
                "to opt into error-bounded (approximate) compacted history"
            )
        for label, codec, params in (
            ("hot", hot_codec, hot_params),
            ("cold", cold_codec, cold_params),
        ):
            try:
                get_codec(codec, **dict(params or {}))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"invalid {label} tier configuration: {exc}"
                ) from exc
        # A shard refuses a lossy hot codec itself.
        TieredStore(
            hot_codec=hot_codec,
            hot_params=hot_params,
            cold_codec=cold_codec,
            cold_params=cold_params,
        )

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        root,
        *,
        cache_capacity: int | None = DEFAULT_CACHE_CAPACITY,
        lazy: bool = False,
    ) -> "SeriesDB":
        """Open an existing database; raises when ``root`` holds none.

        ``cache_capacity`` and ``lazy`` are runtime options (see the
        constructor); the persisted codec configuration always wins.
        """
        root = Path(root)
        if not (root / MANIFEST_NAME).exists():
            raise ValueError(f"{root}: no SeriesDB manifest found")
        return cls(root, cache_capacity=cache_capacity, lazy=lazy)

    def __enter__(self) -> "SeriesDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    def close(self) -> None:
        """Flush dirty shards, release the cache and log writer, poison.

        Dropping the cache releases any mmap-backed shard views the LRU was
        pinning (the ``lazy=True`` open path), so a long-lived process can
        hand the directory to another owner without waiting for GC.  After
        the first close the handle is dead: every later public call raises
        ``ValueError`` (never ``AttributeError`` — no state is unset), and
        a second ``close()`` is a no-op.  Closing races safely with
        in-flight readers — close waits for the lock, and a reader that
        loses the race gets the consistent ``ValueError`` on its *next*
        call; values it already obtained stay valid.
        """
        with self._lock:
            if self._closed:
                return
            self.flush()
            self._stores.clear()
            self._cached_gen.clear()
            self._group_log = None
            self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the handle is then unusable)."""
        return self._closed

    def _check_open(self) -> None:
        """Called (under the lock) by every public method: dead means dead."""
        if self._closed:
            raise ValueError(
                f"SeriesDB at {self._root} is closed; reopen with "
                "SeriesDB.open() for a fresh handle"
            )

    # -- introspection --------------------------------------------------------

    @property
    def root(self) -> Path:
        """The database directory."""
        return self._root

    def series_ids(self) -> list[str]:
        """Every series id, in ingestion order."""
        with self._lock:
            self._check_open()
            return list(self._series)

    def __contains__(self, series_id: str) -> bool:
        with self._lock:
            self._check_open()
            return series_id in self._series

    def __len__(self) -> int:
        with self._lock:
            self._check_open()
            return len(self._series)

    def count(self, series_id: str) -> int:
        """Number of values in ``series_id`` — manifest-only, no shard load."""
        with self._lock:
            self._check_open()
            if series_id in self._stores:
                return len(self._stores[series_id])
            return int(self._entry(series_id)["count"])

    def digits(self, series_id: str) -> int:
        """Decimal scaling recorded for ``series_id`` at ingest time."""
        with self._lock:
            self._check_open()
            return int(self._entry(series_id).get("digits", 0))

    def cache_info(self) -> dict:
        """Shard-cache occupancy: capacity, open shards, pinned (dirty) ones."""
        with self._lock:
            self._check_open()
            return {
                "capacity": self._cache_capacity,
                "cached": len(self._stores),
                "dirty": len(self._dirty),
                "lazy": self._lazy,
            }

    def info(self) -> dict:
        """Configuration plus a per-series summary (counts, tiers, shards)."""
        with self._lock:
            self._check_open()
            series = {}
            for sid, entry in self._series.items():
                entry = dict(entry)
                if sid in self._stores:  # live stats beat stale manifest
                    report = self._stores[sid].tier_report()
                    entry["count"] = len(self._stores[sid])
                    entry["hot_values"] = report["hot_values"]
                    entry["cold_values"] = report["cold_values"]
                    entry["buffer_values"] = report["buffer_values"]
                series[sid] = entry
            return {**self._config, "root": str(self._root), "series": series}

    # -- ingestion ------------------------------------------------------------

    def ingest(self, series_id: str, values, *, digits: int | None = None) -> int:
        """Append ``values`` to ``series_id`` (creating it); returns its count.

        ``digits`` records the values' decimal scaling (§II of the paper)
        in the manifest, like the archive container does; appending to an
        existing series with a different scaling raises.  A one-series
        :meth:`ingest_many`: durable when this returns.
        """
        return self.ingest_many({series_id: values}, digits=digits)[series_id]

    def ingest_many(self, series_map, *, digits: int | None = None) -> dict:
        """Batch ingest: append every series in ``series_map``, durably.

        Each series' new values are cut where :meth:`TieredStore.extend`
        would seal them: a head topping up a partly filled buffer, full
        ``seal_threshold``-sized hot blocks, and a tail left in the buffer.
        Every piece of every series is compressed by one
        ``compress_many`` call of the hot codec, in this process, and
        becomes one group-log record; the whole batch lands with one write
        and one fsync, and only then are the shards touched: full blocks
        are adopted as the very frames just logged, so each is compressed
        once.  The resulting shards are byte-identical to serial
        :meth:`ingest` calls.

        Returns series id -> new total count.
        """
        with self._lock:
            self._check_open()
            threshold = int(self._config["seal_threshold"])
            # Phase 1 — validate everything and cut every series into pieces
            # without mutating any store, so a bad series (or a codec
            # failure in phase 2) cannot leave the batch half-applied.
            pieces: dict = {}  # (sid, piece index) -> values
            plans: list[tuple[str, int]] = []  # (sid, number of pieces)
            for sid, values in series_map.items():
                values = np.asarray(values, dtype=np.int64)
                if values.ndim != 1:
                    raise ValueError(f"series {sid!r}: expected a 1-D array")
                self._check_digits(sid, digits)
                if sid in self._stores:  # a cache hit unless its generation is stale
                    buffered = self._load(sid).tier_report()["buffer_values"]
                elif sid in self._series:
                    # An evicted shard is clean, so the manifest entry its
                    # last flush wrote is current; reading it loads nothing
                    # and so evicts nothing.
                    buffered = int(self._series[sid]["buffer_values"])
                else:
                    if not sid or not isinstance(sid, str):
                        raise ValueError(f"invalid series id {sid!r}")
                    buffered = 0
                check_log_fields(digits or 0, sid)
                # A partly filled buffer is topped up first, so the cuts
                # line up with the blocks extend() would seal.
                head = min(threshold - buffered, len(values)) if buffered else 0
                cuts = range(head, len(values), threshold)
                split = [p for p in np.split(values, cuts) if len(p)]
                for i, piece in enumerate(split):
                    pieces[(sid, i)] = piece
                plans.append((sid, len(split)))
            # Phase 2 — compress every piece in one pass (raises before any
            # store changes).
            hot = get_codec(self._config["hot_codec"], **self._config["hot_params"])
            frames = {
                key: compressed.to_bytes()
                for key, compressed in zip(
                    pieces, hot.compress_many(pieces.values())
                )
            }
            # Phase 3 — register every series, then log the whole batch
            # (the group commit: ONE fsync), then apply it.  Cached shards
            # come first and each shard is pinned as soon as it is loaded:
            # a batch wider than the cache must not evict a shard it is
            # about to mutate.
            stores: dict[str, TieredStore] = {}
            for sid, _ in sorted(plans, key=lambda plan: plan[0] not in self._stores):
                stores[sid] = self._store_for_ingest(sid)
                self._dirty.add(sid)
            records = []
            for sid, n_pieces in plans:
                self._apply_digits(sid, digits)
                sid_digits = int(self._series[sid].get("digits", 0))
                records += [
                    (sid, sid_digits, frames[(sid, i)]) for i in range(n_pieces)
                ]
            if records:
                self._append_log(records)
            counts = {}
            for sid, n_pieces in plans:
                store = stores[sid]
                for i in range(n_pieces):
                    piece = pieces[(sid, i)]
                    # A head or a tail is always shorter than a block.
                    if len(piece) == threshold:
                        store.adopt_sealed(Compressed.from_bytes(frames[(sid, i)]))
                    else:
                        store.extend(piece)
                counts[sid] = len(store)
            return counts

    def _store_for_ingest(self, series_id: str) -> TieredStore:
        if series_id in self._series:
            return self._load(series_id)
        if not series_id or not isinstance(series_id, str):
            raise ValueError(f"invalid series id {series_id!r}")
        store = self._fresh_store()
        self._series[series_id] = {
            "shard": self._shard_name(series_id),
            "count": 0,
            "crc32": 0,
            "digits": 0,
            "hot_codec": self._config["hot_codec"],
            "cold_codec": self._config["cold_codec"],
            "hot_values": 0,
            "cold_values": 0,
            "buffer_values": 0,
        }
        self._stores[series_id] = store
        # A brand-new shard exists only in memory: pin it (dirty) so the
        # LRU cache cannot evict it before the first flush writes its file.
        self._dirty.add(series_id)
        self._evict()
        return store

    # -- queries --------------------------------------------------------------

    def access(self, series_id: str, k: int) -> int:
        """The value at position ``k`` of ``series_id``."""
        with self._lock:
            self._check_open()
            return self._load(series_id).access(k)

    def range(self, series_id: str, lo: int, hi: int) -> np.ndarray:
        """Values at positions ``[lo, hi)`` of ``series_id``."""
        with self._lock:
            self._check_open()
            return self._load(series_id).range(lo, hi)

    def decompress(self, series_id: str) -> np.ndarray:
        """Every value of ``series_id``, in order."""
        with self._lock:
            self._check_open()
            return self._load(series_id).decompress()

    def store(self, series_id: str) -> TieredStore:
        """The live :class:`TieredStore` shard backing ``series_id``.

        The returned handle is pinned in the shard cache (marked dirty), so
        mutating it directly (e.g. ``consolidate``) can never be orphaned
        by an LRU eviction.  The shard is rewritten on the next
        :meth:`flush` — byte-identically when it was not actually mutated.
        """
        with self._lock:
            self._check_open()
            live = self._load(series_id)
            self._dirty.add(series_id)
            return live

    def mark_dirty(self, series_id: str) -> None:
        """Flag a shard as modified outside the SeriesDB API."""
        with self._lock:
            self._check_open()
            self._load(series_id)  # flush rewrites from the live store
            self._dirty.add(series_id)

    # -- maintenance ----------------------------------------------------------

    def compact(self, hot_threshold: int = 0) -> list[str]:
        """Consolidate every shard whose sealed hot tier exceeds the threshold.

        The background-recompression policy of §IV-C1 applied across
        shards: a shard with more than ``hot_threshold`` values in sealed
        hot blocks has them migrated into its cold tier (one strong
        ``cold_codec`` run).  Compacted shards are flushed immediately.
        Returns the ids that were compacted.
        """
        with self._lock:
            self._check_open()
            compacted = []
            for sid in self._series:
                if sid in self._stores:
                    hot_values = self._stores[sid].tier_report()["hot_values"]
                else:
                    hot_values = int(self._series[sid]["hot_values"])
                if hot_values > hot_threshold:
                    store = self._load(sid)
                    store.consolidate()
                    self._dirty.add(sid)
                    compacted.append(sid)
            if compacted:
                self.flush()  # re-entrant: same lock
            return compacted

    def flush(self) -> None:
        """Write every modified shard and the manifest back to disk.

        Crash consistency: a rewritten shard gets a *fresh* generation
        filename, and the old file is deleted only after the manifest
        commits — a crash mid-flush leaves the manifest pointing at the
        previous intact shards (plus, at worst, some orphan files), never
        at a shard whose crc it cannot verify.  The same commit rotates the
        group log to a fresh (empty) generation and forgets any legacy
        per-series log: the snapshots now hold everything those logs held.
        Post-commit, every file in ``shards/`` the manifest does not name
        is deleted — replaced shards, old logs, and any generation an
        earlier flush orphaned by failing before its commit.

        With no dirty shard and nothing left uncommitted by a failed flush,
        a flush writes nothing: no snapshot, no manifest, no fsync and no
        sweep.  A handle that only read therefore never commits its
        (possibly stale) manifest over another handle's, and never deletes
        the shards that manifest names.
        """
        with self._lock:
            self._check_open()
            if not self._dirty and not self._uncommitted:
                return
            self._uncommitted = True
            for sid in sorted(self._dirty):
                store = self._stores[sid]
                blob = store.to_bytes()
                entry = self._series[sid]
                old = self._root / entry["shard"]
                # Write the snapshot before touching the entry: if the write
                # raises (disk full), the entry still points at the previous
                # intact shard, which the unrotated log still completes.
                shard = self._shard_name(sid) if old.exists() else entry["shard"]
                _write_atomic(self._root / shard, blob)
                entry["shard"] = shard
                self._cached_gen[sid] = shard
                # The snapshot now holds what a legacy per-series log held;
                # forget the log with the shard swap, so no later manifest
                # commit can pair the new snapshot with it.
                entry.pop("wal", None)
                report = store.tier_report()
                entry.update(
                    count=len(store),
                    crc32=zlib.crc32(blob),
                    hot_values=report["hot_values"],
                    cold_values=report["cold_values"],
                    buffer_values=report["buffer_values"],
                )
            # A clean series' legacy log holds no complete record (replay
            # would have marked the shard dirty): forget it too.
            for entry in self._series.values():
                entry.pop("wal", None)
            # Every group-log record belongs to a dirty shard, so the
            # snapshots just written hold everything the log held.
            if self._group_name and (self._root / self._group_name).exists():
                self._group_name = self._group_gen_name()
                self._group_log = None
            self._dirty.clear()
            self._write_manifest()  # the commit point
            self._reclaim_unreferenced()
            self._evict()  # flushed shards are clean and evictable again

    # -- internals ------------------------------------------------------------

    def _reclaim_unreferenced(self) -> None:
        """Delete every file in ``shards/`` the committed manifest does not name.

        Called under the lock, right after the commit of :meth:`flush`,
        which has forgotten every legacy log.  In-flight ``*.tmp`` writes
        are left alone; what goes is exactly what ``repro fsck`` reports as
        FSK028.
        """
        named = {entry["shard"] for entry in self._series.values()}
        if self._group_name:
            named.add(self._group_name)
        for path in (self._root / _SHARD_DIR).iterdir():
            rel = f"{_SHARD_DIR}/{path.name}"
            if rel not in named and not path.name.endswith(".tmp"):
                path.unlink(missing_ok=True)

    def _check_digits(self, series_id: str, digits: int | None) -> None:
        """Reject an append whose decimal scaling disagrees with the recorded one.

        The gate uses the *live* store length for cached shards: the
        manifest ``count`` stays at its last-flushed value (0 for a brand
        new series), so gating on it alone would let two pre-flush ingests
        with conflicting ``digits`` silently overwrite the series' scaling.
        """
        if digits is None or series_id not in self._series:
            return
        entry = self._series[series_id]
        recorded = int(entry.get("digits", 0))
        if series_id in self._stores:
            count = len(self._stores[series_id])
        else:
            count = int(entry["count"])
        if count and int(digits) != recorded:
            raise ValueError(
                f"series {series_id!r} was ingested with digits={recorded}; "
                f"appending digits={int(digits)} values would mix scales"
            )

    def _apply_digits(self, series_id: str, digits: int | None) -> None:
        if digits is not None:
            self._series[series_id]["digits"] = int(digits)

    def _fresh_store(self) -> TieredStore:
        """An empty shard configured like every other shard in this DB."""
        return TieredStore(
            seal_threshold=self._config["seal_threshold"],
            hot_codec=self._config["hot_codec"],
            cold_codec=self._config["cold_codec"],
            hot_params=self._config["hot_params"],
            cold_params=self._config["cold_params"],
        )

    def _shard_name(self, series_id: str) -> str:
        """A fresh, never-reused shard generation filename for ``series_id``."""
        stem = _UNSAFE.sub("_", series_id)[:48] or "series"
        name = f"{_SHARD_DIR}/{stem}-{self._next_shard:04d}.tier"
        self._next_shard += 1
        return name

    # -- the write-ahead group log ---------------------------------------------

    def _append_log(self, records: list[tuple[str, int, bytes]]) -> None:
        """Land a batch's ``(sid, digits, frame)`` records: ONE fsync.

        Called under the lock.  Every record of the batch goes to the
        directory's single :class:`~repro.codecs.container.GroupLog` with
        one tail write + fsync.  The manifest is committed first whenever
        it does not yet name this log generation (first ingest, or after a
        flush that died before its commit): crash recovery finds the log
        through the manifest, so data must never land in an unreferenced
        file.  Records carry series id and digits, so recovery can even
        re-register a series whose manifest entry never committed.
        """
        if self._group_name is None:
            self._group_name = self._group_gen_name()
        if self._group_name != self._synced_group:
            self._write_manifest()
        log = self._group_log
        if log is None:
            path = self._root / self._group_name
            if path.exists():
                log = GroupLog.open(path)
            else:
                log = GroupLog.create(
                    path,
                    codec=self._config["hot_codec"],
                    **self._config["hot_params"],
                )
            self._group_log = log
        log.append_group(records)

    def _group_gen_name(self) -> str:
        """A fresh, never-reused generation filename for the group log."""
        name = f"{_SHARD_DIR}/group-{self._next_shard:04d}.gwl"
        self._next_shard += 1
        return name

    def _replay(self, series_id: str, store: TieredStore) -> None:
        """Re-apply logged values a crash kept out of the shard snapshot.

        Called on every fresh shard load.  The logs hold exactly the values
        appended since the snapshot was committed (flush rotates them away
        atomically with the snapshot count), so replay is a plain
        ``extend``, in write order: a legacy per-series log first (read
        only, eager, so every complete record is crc-checked), then the
        series' group-log records, which :meth:`_recover_logs` regrouped
        into ``_group_pending``.  A replayed shard is re-marked dirty so
        the next flush consolidates it.
        """
        legacy = self._series[series_id].get("wal")
        if legacy and (self._root / legacy).exists():
            log = open_archive(self._root / legacy)
            if len(log):
                store.extend(log.decompress())
                self._dirty.add(series_id)
        for values in self._group_pending.pop(series_id, ()):
            store.extend(values)
            self._dirty.add(series_id)

    def _recover_logs(self) -> None:
        """Replay every surviving log at open, without writing anything.

        Group-log records interleave in ingest order; they are regrouped
        per series (preserving order) into ``_group_pending`` first.  Then
        every series with a legacy log or pending records is loaded, which
        replays both (see :meth:`_replay`).  A series whose manifest entry
        never committed (crash between the group write and a later
        manifest commit) is re-registered from the record's own series id
        and digits before its values are applied.
        """
        name = self._group_name
        digits_of: dict[str, int] = {}
        if name and (self._root / name).exists():
            for sid, digits, values in read_group_log(self._root / name):
                self._group_pending.setdefault(sid, []).append(values)
                digits_of[sid] = int(digits)
        for sid, entry in self._series.items():
            if entry.get("wal") and (self._root / entry["wal"]).exists():
                self._load(sid)
        for sid in list(self._group_pending):
            known = sid in self._series
            store = self._store_for_ingest(sid)  # known: loads + replays
            if not known:
                self._series[sid]["digits"] = digits_of[sid]
            for values in self._group_pending.pop(sid, ()):
                store.extend(values)
                self._dirty.add(sid)

    def _entry(self, series_id: str) -> dict:
        try:
            return self._series[series_id]
        except KeyError:
            known = ", ".join(sorted(self._series)) or "(none)"
            raise ValueError(
                f"unknown series {series_id!r}; known: {known}"
            ) from None

    def _load(self, series_id: str) -> TieredStore:
        if series_id in self._stores:
            entry = self._entry(series_id)
            if (
                series_id in self._dirty
                or self._cached_gen.get(series_id) == entry["shard"]
            ):
                self._stores.move_to_end(series_id)  # LRU touch
                return self._stores[series_id]
            # The manifest points at a newer shard generation than the
            # cached copy was parsed from: invalidate and re-read.
            del self._stores[series_id]
            self._cached_gen.pop(series_id, None)
        entry = self._entry(series_id)
        shard_path = self._root / entry["shard"]
        if int(entry["count"]) == 0 and not shard_path.exists():
            # Registered by a durable ingest but never flushed: no snapshot
            # yet — any surviving values live in the logs alone.
            store = self._fresh_store()
        else:
            try:
                data = self._read_shard(shard_path)
            except FileNotFoundError:
                raise ValueError(
                    f"shard {entry['shard']} of series {series_id!r} is gone "
                    f"from {self._root}: another handle has replaced it since "
                    "this one opened; reopen the store to read the new shard"
                ) from None
            # The snapshot's own crc catches bit rot; the manifest crc also
            # catches a shard file swapped with another (valid) one.
            if zlib.crc32(data) != entry["crc32"]:
                raise ValueError(
                    f"shard {entry['shard']} does not match the manifest crc "
                    f"for series {series_id!r} (swapped or corrupt shard file)"
                )
            try:
                store = TieredStore.from_bytes(data)
            except ValueError as exc:
                raise ValueError(
                    f"shard {entry['shard']} of series {series_id!r}: {exc}"
                ) from exc
            if len(store) != entry["count"]:
                raise ValueError(
                    f"shard {entry['shard']} holds {len(store)} values, "
                    f"manifest says {entry['count']}"
                )
        self._stores[series_id] = store
        self._cached_gen[series_id] = entry["shard"]
        self._replay(series_id, store)
        self._evict(protect=series_id)
        return store

    def _read_shard(self, path: Path):
        """Shard bytes for parsing: an mmapped view when lazy, else a copy.

        The returned view (and everything :meth:`TieredStore.from_bytes`
        slices out of it) keeps the underlying map alive, so the parsed
        store stays valid even after the file is later replaced on flush.
        """
        if self._lazy:
            view = mmap_view(path)
            if view is not None:
                return view
        return path.read_bytes()

    def _evict(self, protect: str | None = None) -> None:
        """Drop least-recently-used *clean* shards beyond the capacity.

        Dirty shards are pinned (flush reads them from the cache), and the
        shard a caller is about to use (``protect``) is never the victim.
        """
        if self._cache_capacity is None:
            return
        evictable = [
            sid
            for sid in self._stores
            if sid not in self._dirty and sid != protect
        ]
        while len(self._stores) > self._cache_capacity and evictable:
            sid = evictable.pop(0)
            del self._stores[sid]
            self._cached_gen.pop(sid, None)

    def _write_manifest(self) -> None:
        manifest = {
            "format": MANIFEST_FORMAT,
            **self._config,
            **LEGACY_MANIFEST_KEYS,
            "next_shard": self._next_shard,
            "series": self._series,
        }
        if self._group_name:  # absent until the first ingest names a log
            manifest["group_wal"] = self._group_name
        # No sort_keys: the series mapping keeps ingestion order, and equal
        # states serialise to identical bytes either way.
        blob = json.dumps(manifest, indent=2).encode("utf-8")
        _write_atomic(self._root / MANIFEST_NAME, blob + b"\n")
        self._synced_group = self._group_name
        self._uncommitted = False
