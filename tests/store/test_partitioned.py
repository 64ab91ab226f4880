"""Tests for PartitionedSeriesDB: placement, scatter-gather, migration."""

import builtins
import io
import json
import os
import zlib

import numpy as np
import pytest

from repro.store import (
    PartitionedSeriesDB,
    SeriesDB,
    SeriesStore,
    open_store,
)
from repro.store.partitioned import PARTITION_MANIFEST_FORMAT, _PART_DIR


@pytest.fixture
def fleet(rng):
    out = {}
    for i in range(8):
        y = 200 * np.sin(np.arange(1500) / (15 + 7 * i))
        out[f"sensor/{i}"] = (
            y + np.cumsum(rng.integers(-3, 4, 1500))
        ).astype(np.int64)
    return out


@pytest.fixture
def pdb(tmp_path, fleet):
    db = PartitionedSeriesDB(
        tmp_path / "pdb", partitions=3, seal_threshold=512,
        hot_codec="gorilla", cold_codec="leats",
    )
    db.ingest_many(fleet)
    db.flush()
    return db


class TestProtocol:
    def test_both_stores_satisfy_series_store(self, pdb, tmp_path):
        assert isinstance(pdb, SeriesStore)
        single = SeriesDB(tmp_path / "single")
        assert isinstance(single, SeriesStore)
        single.close()

    def test_open_store_dispatches_on_manifest(self, pdb, tmp_path, fleet):
        single = SeriesDB(tmp_path / "single")
        single.ingest("s", np.arange(10, dtype=np.int64))
        single.close()
        assert isinstance(open_store(tmp_path / "single"), SeriesDB)
        again = open_store(pdb.root)
        assert isinstance(again, PartitionedSeriesDB)
        again.close()

    @pytest.mark.parametrize("kind", [SeriesDB, PartitionedSeriesDB])
    def test_open_store_reads_the_root_manifest_once(
        self, tmp_path, monkeypatch, kind
    ):
        root = tmp_path / "db"
        with kind(root) as db:
            db.ingest("s", np.arange(10, dtype=np.int64))
        manifest = os.path.abspath(root / "MANIFEST.json")
        reads = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and (
                os.path.abspath(file) == manifest
            ):
                reads.append(file)
            return real_open(file, *args, **kwargs)

        # pathlib reads through io.open, a bare open() through builtins.
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        store = open_store(root)
        monkeypatch.undo()
        assert isinstance(store, kind)
        assert int(store.count("s")) == 10
        store.close()
        assert len(reads) == 1

    @pytest.mark.parametrize("kind", [SeriesDB, PartitionedSeriesDB])
    def test_open_store_names_a_corrupt_or_missing_manifest(self, tmp_path, kind):
        root = tmp_path / "db"
        kind(root).close()
        manifest = root / "MANIFEST.json"
        manifest.write_bytes(manifest.read_bytes()[:-20])
        with pytest.raises(ValueError, match="corrupt manifest") as info:
            open_store(root)
        assert str(manifest) in str(info.value)
        manifest.unlink()
        with pytest.raises(ValueError, match="no SeriesDB manifest") as info:
            open_store(root)
        assert str(root) in str(info.value)


class TestPlacement:
    def test_crc32_placement_and_partition_dirs(self, pdb, fleet):
        for sid in fleet:
            part = zlib.crc32(sid.encode("utf-8")) % pdb.partitions
            assert pdb.partition_of(sid) == part
            shard = pdb.info()["series"][sid]["shard"]
            assert (
                pdb.root / _PART_DIR.format(part) / shard
            ).exists()

    def test_root_manifest_format_and_map(self, pdb, fleet):
        manifest = json.loads((pdb.root / "MANIFEST.json").read_text())
        assert manifest["format"] == PARTITION_MANIFEST_FORMAT
        assert manifest["partitions"] == 3
        assert set(manifest["series"]) == set(fleet)

    def test_unknown_series_raises_with_known_list(self, pdb):
        with pytest.raises(ValueError, match="unknown series"):
            pdb.access("nope", 0)


class TestQueries:
    def test_reopen_answers_queries(self, pdb, fleet):
        again = PartitionedSeriesDB.open(pdb.root)
        assert set(again.series_ids()) == set(fleet)
        assert len(again) == len(fleet)
        for sid, values in fleet.items():
            assert sid in again
            assert again.count(sid) == len(values)
            assert again.access(sid, 717) == values[717]
            assert np.array_equal(again.range(sid, 100, 900), values[100:900])
            assert np.array_equal(again.decompress(sid), values)
        again.close()

    def test_scatter_gather_many(self, pdb, fleet):
        sids = list(fleet)
        at = 321
        got = pdb.access_many({sid: at for sid in sids})
        assert got == {sid: fleet[sid][at] for sid in sids}
        ranges = pdb.range_many({sid: (50, 400) for sid in sids})
        for sid in sids:
            assert np.array_equal(ranges[sid], fleet[sid][50:400])

    def test_ingest_single_series_roundtrip(self, pdb, rng):
        extra = np.cumsum(rng.integers(-5, 6, 300)).astype(np.int64)
        pdb.ingest("late/arrival", extra)
        assert np.array_equal(pdb.decompress("late/arrival"), extra)
        # the map learned the placement before any data landed
        manifest = json.loads((pdb.root / "MANIFEST.json").read_text())
        assert "late/arrival" in manifest["series"]


class TestCompaction:
    def test_parallel_compact_compacts_every_partition(self, pdb, fleet):
        compacted = pdb.compact(workers=2)
        assert set(compacted) == set(fleet)
        for sid, values in fleet.items():
            assert np.array_equal(pdb.decompress(sid), values)


class TestIngestPath:
    """Partitions ingest in this process, and each value is encoded once."""

    def test_steady_state_batch_stays_in_process(self, tmp_path, rng, monkeypatch):
        import os

        import repro.store.parallel as parallel
        import repro.store.partitioned as partitioned
        from repro.baselines.gorilla import GorillaCompressor

        # "Default workers" means a real pool width on any host.
        monkeypatch.setattr(parallel, "default_workers", lambda: 4)
        monkeypatch.setattr(partitioned, "default_workers", lambda: 4)
        data = {
            f"s{i}": np.cumsum(rng.integers(-5, 6, 2000)).astype(np.int64)
            for i in range(6)
        }
        db = PartitionedSeriesDB(tmp_path / "p", partitions=2, seal_threshold=256)
        db.ingest_many({sid: v[:512] for sid, v in data.items()})
        db.flush()
        assert {db.partition_of(sid) for sid in data} == {0, 1}
        # the first batch after a flush creates each partition's next log
        db.ingest_many({sid: v[512:540] for sid, v in data.items()})

        fsyncs, pools, opened = [], [], []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1]
        )

        class CountedPool(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountedPool)
        real_open = SeriesDB.open.__func__
        monkeypatch.setattr(SeriesDB, "open", classmethod(
            lambda cls, root, **kw: (opened.append(root), real_open(cls, root, **kw))[1]
        ))
        counts = db.ingest_many({sid: v[540:600] for sid, v in data.items()})
        assert counts == {sid: 600 for sid in data}
        assert len(fsyncs) == 2  # one group-log write per touched partition
        assert pools == []
        assert opened == []

        # A block-bearing batch at default settings: every partition
        # encodes its pieces in one compress_many call, in this process,
        # and the frame a full block is logged as is the frame its shard
        # adopts, so the hot codec sees each value once.
        calls, encoded = [], []
        real_many = GorillaCompressor.compress_many

        def counted_many(self, series):
            series = list(series)
            calls.append(len(series))
            encoded.extend(len(values) for values in series)
            return real_many(self, series)

        monkeypatch.setattr(GorillaCompressor, "compress_many", counted_many)
        batch = {f"b{i}": data[f"s{i}"][: 512 + 44 * i] for i in range(4)}
        db.ingest_many(batch)
        touched = {db.partition_of(sid) for sid in batch}
        assert len(calls) == len(touched)
        assert sum(encoded) == sum(len(v) for v in batch.values())
        assert pools == []
        monkeypatch.undo()
        db.close()
        again = PartitionedSeriesDB.open(tmp_path / "p")
        for sid, values in batch.items():
            assert np.array_equal(again.decompress(sid), values)
        for sid, values in data.items():
            assert np.array_equal(again.decompress(sid), values[:600])
        again.close()


class TestLifecycle:
    def test_close_poisons_and_is_idempotent(self, tmp_path):
        db = PartitionedSeriesDB(tmp_path / "p", partitions=2)
        db.close()
        db.close()  # no-op
        assert db.closed
        with pytest.raises(ValueError, match="closed"):
            db.series_ids()

    def test_context_manager(self, tmp_path, rng):
        values = np.cumsum(rng.integers(-2, 3, 100)).astype(np.int64)
        with PartitionedSeriesDB(tmp_path / "p", partitions=2) as db:
            db.ingest("s", values)
        assert db.closed
        with PartitionedSeriesDB.open(tmp_path / "p") as again:
            assert np.array_equal(again.decompress("s"), values)

    def test_open_missing_root_raises(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            PartitionedSeriesDB.open(tmp_path / "nothing")


class TestReconcile:
    def test_adopts_series_the_map_never_learned(self, pdb, fleet):
        pdb.close()
        manifest = json.loads((pdb.root / "MANIFEST.json").read_text())
        sid = next(iter(fleet))
        del manifest["series"][sid]
        (pdb.root / "MANIFEST.json").write_text(json.dumps(manifest))
        again = PartitionedSeriesDB.open(pdb.root)
        assert sid in again
        assert np.array_equal(again.decompress(sid), fleet[sid])
        again.close()

    def test_drops_orphan_map_entries(self, pdb):
        pdb.close()
        manifest = json.loads((pdb.root / "MANIFEST.json").read_text())
        manifest["series"]["ghost"] = 0
        (pdb.root / "MANIFEST.json").write_text(json.dumps(manifest))
        again = PartitionedSeriesDB.open(pdb.root)
        assert "ghost" not in again
        again.close()


class TestMigrate:
    def test_roundtrip_is_byte_identical(self, tmp_path, fleet):
        root = tmp_path / "db"
        src = SeriesDB(root, seal_threshold=512, hot_codec="gorilla",
                       cold_codec="leats")
        src.ingest_many(fleet)
        src.flush()
        shard_bytes = {
            sid: (root / src.info()["series"][sid]["shard"]).read_bytes()
            for sid in fleet
        }
        src.close()

        db = PartitionedSeriesDB.migrate(root, partitions=4)
        assert db.partitions == 4
        assert set(db.series_ids()) == set(fleet)
        for sid, values in fleet.items():
            assert db.access(sid, 1234) == values[1234]
            assert np.array_equal(db.range(sid, 10, 800), values[10:800])
            assert np.array_equal(db.decompress(sid), values)
            part = db.partition_of(sid)
            shard = db.info()["series"][sid]["shard"]
            moved = root / _PART_DIR.format(part) / shard
            assert moved.read_bytes() == shard_bytes[sid]
        assert not (root / "shards").exists()
        db.close()

        # and the migrated database fscks clean, recursively
        from repro.analysis import fsck_path

        report = fsck_path(root, deep=True)
        assert report.ok, [p.render() for p in report.problems]
        assert report.kind == "partitioned"

    def test_migrated_db_keeps_ingesting(self, tmp_path, rng):
        root = tmp_path / "db"
        values = np.cumsum(rng.integers(-4, 5, 700)).astype(np.int64)
        src = SeriesDB(root)
        src.ingest("old", values)
        src.flush()
        src.close()
        db = PartitionedSeriesDB.migrate(root, partitions=2)
        fresh = np.cumsum(rng.integers(-4, 5, 200)).astype(np.int64)
        db.ingest("new", fresh)
        db.flush()
        db.close()
        again = open_store(root)
        assert np.array_equal(again.decompress("old"), values)
        assert np.array_equal(again.decompress("new"), fresh)
        again.close()
