"""A handle that only read writes nothing, and a stale handle says so.

Two handles on one root: R opens and only reads, while W ingests, flushes
and closes.  R's ``close()`` must not commit R's stale manifest over W's,
whose post-commit sweep would then delete W's new shard; and R's next cold
read of the series W replaced must name the root and ask for a reopen
instead of raising a bare ``FileNotFoundError``.  A read-only session
(open, reads, close) leaves every file's bytes and mtime as they were and
calls no fsync.
"""

import json
import os

import numpy as np
import pytest

import repro.store.seriesdb as seriesdb_mod
from repro.store import PartitionedSeriesDB, SeriesDB, open_store

CONFIG = dict(seal_threshold=256, hot_codec="gorilla", cold_codec="leats")
SERIES = {f"s{i}": np.arange(100, dtype=np.int64) * (i + 1) for i in range(4)}


def _make(root, partitions: int):
    if partitions == 1:
        return SeriesDB(root, **CONFIG)
    return PartitionedSeriesDB(root, partitions=partitions, **CONFIG)


def _files(root) -> dict:
    """Every file under ``root``: its bytes and mtime."""
    return {
        path: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def fsyncs(monkeypatch):
    calls = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd))[1])
    return calls


@pytest.mark.parametrize("partitions", [1, 2])
def test_read_only_close_keeps_the_writers_shards(tmp_path, partitions):
    root = tmp_path / "db"
    with _make(root, partitions) as db:
        db.ingest_many(SERIES)
    reader = open_store(root)
    with open_store(root) as writer:
        writer.ingest_many({sid: v + 1000 for sid, v in SERIES.items()})
        writer.flush()
    reader.close()
    with open_store(root) as again:
        for sid, values in SERIES.items():
            assert np.array_equal(
                again.decompress(sid), np.concatenate([values, values + 1000])
            )


@pytest.mark.parametrize("partitions", [1, 2])
def test_read_only_session_writes_nothing(tmp_path, fsyncs, partitions):
    root = tmp_path / "db"
    with _make(root, partitions) as db:
        db.ingest_many(SERIES)
        db.compact()
    before = _files(root)
    fsyncs.clear()
    with open_store(root) as store:
        assert store.access("s2", 50) == SERIES["s2"][50]
        assert np.array_equal(store.range("s3", 10, 20), SERIES["s3"][10:20])
        store.flush()
    assert fsyncs == []
    assert _files(root) == before


@pytest.mark.parametrize("partitions", [1, 2])
def test_replaced_shard_names_the_root_and_the_fix(tmp_path, partitions):
    root = tmp_path / "db"
    with _make(root, partitions) as db:
        db.ingest_many(SERIES)
    reader = open_store(root)
    with open_store(root) as writer:
        writer.ingest("s1", np.arange(5, dtype=np.int64))
    with pytest.raises(ValueError, match="reopen") as info:
        reader.access("s1", 0)
    assert str(root) in str(info.value)
    reader.close()
    with open_store(root) as again:
        assert again.count("s1") == 105


def test_flush_after_a_failed_commit_still_commits(tmp_path, monkeypatch):
    """The shards a failed flush wrote are only named in memory: a flush
    with nothing dirty must still commit them."""
    root = tmp_path / "db"
    db = SeriesDB(root, **CONFIG)
    db.ingest("a", np.arange(200, dtype=np.int64))
    real = seriesdb_mod._write_atomic

    def failing(path, blob):
        if path.name == "MANIFEST.json":
            raise OSError("simulated disk full")
        return real(path, blob)

    monkeypatch.setattr(seriesdb_mod, "_write_atomic", failing)
    with pytest.raises(OSError, match="disk full"):
        db.flush()
    monkeypatch.undo()
    db.flush()
    entry = json.loads((root / "MANIFEST.json").read_text())["series"]["a"]
    assert entry["count"] == 200 and (root / entry["shard"]).exists()
    db.close()
    with SeriesDB.open(root) as again:
        assert np.array_equal(again.decompress("a"), np.arange(200))
