"""SeriesDB write-ahead logging: pre-flush durability + recovery.

Contract (see :class:`repro.store.SeriesDB`): every ``ingest`` /
``ingest_many`` batch lands in the directory's group log (``RPGW0001``,
one fsync'd tail write) *before* mutating the in-memory shards, and the
manifest names the log generation before any data lands in it.  A crash
before :meth:`flush` therefore loses nothing: the next open replays the
log on top of the shard snapshots and re-marks those shards dirty.
``flush`` consolidates — the snapshots absorb the logged values, the
manifest rotates to a fresh log generation, and the old log file is
dropped post-commit.  A record torn by a mid-write crash is skipped;
every completed batch survives.  A v2.6.0 directory's per-series
``RPAL0001`` logs replay read-only before the group log, and the next
flush deletes them.
"""

import json

import numpy as np
import pytest

from repro.analysis import fsck_seriesdb
from repro.codecs.container import GroupLog
from repro.store import SeriesDB


@pytest.fixture
def root(tmp_path):
    return tmp_path / "db"


def make_db(root, **kw):
    kw.setdefault("seal_threshold", 256)
    kw.setdefault("hot_codec", "gorilla")
    kw.setdefault("cold_codec", "leats")
    return SeriesDB(root, **kw)


def manifest(root):
    return json.loads((root / "MANIFEST.json").read_text())


def log_files(root):
    return sorted((root / "shards").glob("*.gwl"))


def group_log(root):
    return root / manifest(root)["group_wal"]


class TestDurability:
    def test_unflushed_ingest_survives_reopen(self, root, rng):
        db = make_db(root)
        a = rng.integers(-500, 500, 1000).astype(np.int64)
        b = (np.arange(700) * 3).astype(np.int64)
        db.ingest("a", a, digits=2)
        db.ingest("b", b)
        db.ingest("a", a + 7)
        # no flush: simulate a crash by opening a fresh handle
        crashed = SeriesDB.open(root)
        assert crashed.count("a") == 2000
        assert np.array_equal(crashed.decompress("a"), np.concatenate([a, a + 7]))
        assert np.array_equal(crashed.decompress("b"), b)
        assert crashed.digits("a") == 2
        # recovered shards are dirty again: the next flush consolidates them
        assert crashed.cache_info()["dirty"] == 2

    def test_unflushed_ingest_many_survives_reopen(self, root, rng):
        db = make_db(root)
        fleet = {
            f"s{i}": rng.integers(0, 1000, 700 + 100 * i).astype(np.int64)
            for i in range(3)
        }
        db.ingest_many(fleet)
        crashed = SeriesDB.open(root)
        for sid, values in fleet.items():
            assert np.array_equal(crashed.decompress(sid), values)

    def test_double_crash_replays_identically(self, root):
        db = make_db(root)
        values = np.arange(900, dtype=np.int64)
        db.ingest("s", values)
        first = SeriesDB.open(root)  # recovers, does not flush
        assert np.array_equal(first.decompress("s"), values)
        second = SeriesDB.open(root)  # the log is still there: replay again
        assert np.array_equal(second.decompress("s"), values)

    def test_recovered_values_queryable_without_explicit_load(self, root):
        db = make_db(root)
        db.ingest("s", np.arange(500, dtype=np.int64))
        crashed = SeriesDB.open(root)
        assert crashed.count("s") == 500  # live count, not the stale manifest 0
        assert crashed.access("s", 499) == 499
        assert np.array_equal(crashed.range("s", 100, 110), np.arange(100, 110))

    def test_append_to_flushed_series_survives(self, root, rng):
        db = make_db(root)
        base = rng.integers(0, 100, 1000).astype(np.int64)
        db.ingest("s", base)
        db.flush()
        more = rng.integers(0, 100, 300).astype(np.int64)
        db.ingest("s", more)  # crash before flush
        crashed = SeriesDB.open(root)
        assert np.array_equal(
            crashed.decompress("s"), np.concatenate([base, more])
        )


class TestManifestDiscipline:
    def test_manifest_references_log_before_data(self, root, monkeypatch):
        """Crash recovery finds the log through the manifest, so the
        manifest must name it before the first record lands."""
        seen = []
        real = GroupLog.append_group

        def checking(log, records):
            on_disk = manifest(root)
            seen.append(root / on_disk.get("group_wal", "") == log.path)
            return real(log, records)

        monkeypatch.setattr(GroupLog, "append_group", checking)
        db = make_db(root)
        db.ingest("s", np.arange(100, dtype=np.int64))
        db.flush()
        db.ingest("s", np.arange(100, 200, dtype=np.int64))
        assert seen == [True, True]
        entry = manifest(root)["series"]["s"]
        assert entry["count"] == 100  # counts update only at flush
        assert group_log(root).exists()

    def test_flush_consolidates_and_drops_logs(self, root):
        db = make_db(root)
        db.ingest("s", np.arange(600, dtype=np.int64))
        assert len(log_files(root)) == 1
        db.flush()
        assert log_files(root) == []
        entry = manifest(root)["series"]["s"]
        assert entry["count"] == 600
        # the manifest rotated to a fresh (not yet existing) log generation
        assert not group_log(root).exists()
        clean = SeriesDB.open(root)
        assert clean.cache_info()["dirty"] == 0
        assert np.array_equal(clean.decompress("s"), np.arange(600))

    def test_flush_after_recovery_consolidates(self, root):
        db = make_db(root)
        values = np.arange(900, dtype=np.int64)
        db.ingest("s", values)
        crashed = SeriesDB.open(root)
        crashed.flush()
        assert log_files(root) == []
        assert manifest(root)["series"]["s"]["count"] == 900
        assert np.array_equal(SeriesDB.open(root).decompress("s"), values)

    def test_log_rotation_across_flush_cycles(self, root):
        db = make_db(root)
        db.ingest("s", np.arange(100, dtype=np.int64))
        first_log = manifest(root)["group_wal"]
        db.flush()
        db.ingest("s", np.arange(100, 200, dtype=np.int64))
        second_log = manifest(root)["group_wal"]
        assert second_log != first_log
        assert not (root / first_log).exists()
        assert (root / second_log).exists()
        crashed = SeriesDB.open(root)
        assert np.array_equal(crashed.decompress("s"), np.arange(200))


class TestFlushFailure:
    def test_ingest_after_failed_flush_stays_recoverable(self, root, monkeypatch):
        """A flush that dies writing shards leaves some entries pointing at
        new snapshots only in memory; the log must not rotate, so the next
        ingest lands where recovery still replays it on the old ones."""
        import repro.store.seriesdb as seriesdb_mod

        db = make_db(root)
        db.ingest("a", np.arange(200, dtype=np.int64))
        db.ingest("b", np.arange(300, dtype=np.int64))
        db.flush()
        db.ingest("a", np.arange(200, 400, dtype=np.int64))
        db.ingest("b", np.arange(300, 500, dtype=np.int64))

        real = seriesdb_mod._write_atomic
        tier_writes = []

        def failing(path, blob):
            if str(path).endswith(".tier"):
                tier_writes.append(path)
                if len(tier_writes) == 2:  # second shard of the flush dies
                    raise OSError("simulated disk full")
            return real(path, blob)

        monkeypatch.setattr(seriesdb_mod, "_write_atomic", failing)
        with pytest.raises(OSError, match="disk full"):
            db.flush()
        monkeypatch.undo()

        more = np.arange(400, 450, dtype=np.int64)
        db.ingest("a", more)  # reported durable: must survive a crash
        crashed = SeriesDB.open(root)
        assert np.array_equal(crashed.decompress("a"), np.arange(450))
        assert np.array_equal(crashed.decompress("b"), np.arange(500))

    def test_ingest_after_failed_manifest_commit_stays_recoverable(
        self, root, monkeypatch
    ):
        """A flush that dies at its manifest commit has rotated the log
        name only in memory; the next ingest must commit the manifest
        before its record lands, or the record lands in a file recovery
        cannot find."""
        import repro.store.seriesdb as seriesdb_mod

        db = make_db(root)
        db.ingest_many({"a": np.arange(200), "b": np.arange(300)})
        real = seriesdb_mod._write_atomic

        def failing(path, blob):
            if path.name == "MANIFEST.json":
                raise OSError("simulated disk full")
            return real(path, blob)

        monkeypatch.setattr(seriesdb_mod, "_write_atomic", failing)
        with pytest.raises(OSError, match="disk full"):
            db.flush()
        monkeypatch.undo()

        db.ingest("a", np.arange(200, 250, dtype=np.int64))  # durable
        crashed = SeriesDB.open(root)
        assert np.array_equal(crashed.decompress("a"), np.arange(250))
        assert np.array_equal(crashed.decompress("b"), np.arange(300))


class TestTornLog:
    def test_torn_final_record_loses_only_that_batch(self, root):
        """A crash mid-write of the second batch keeps all of the first.

        The second batch lands as one write of three records: a head
        topping the buffer up to a block, a full block, and a tail.  Of
        those, recovery keeps exactly the records that landed whole, so
        wherever the write tears the series is a prefix of what was sent.
        """
        db = make_db(root)
        db.ingest("s", np.arange(500, dtype=np.int64))
        log = group_log(root)
        sealed = log.stat().st_size
        db.ingest("s", np.arange(500, 800, dtype=np.int64))
        blob = log.read_bytes()
        for cut in range(sealed, len(blob), 7):
            log.write_bytes(blob[:cut])
            got = SeriesDB.open(root).decompress("s")
            assert 500 <= len(got) < 800
            assert np.array_equal(got, np.arange(len(got)))
        log.write_bytes(blob[:-11])  # crash mid-append of the tail record
        crashed = SeriesDB.open(root)
        assert crashed.count("s") == 768  # first batch, head (12), block (256)
        assert np.array_equal(crashed.decompress("s"), np.arange(768))
        # recovery is dirty: flushing seals the surviving 768 for good
        crashed.flush()
        assert np.array_equal(SeriesDB.open(root).decompress("s"), np.arange(768))

    def test_fully_torn_log_falls_back_to_snapshot(self, root):
        db = make_db(root)
        base = np.arange(400, dtype=np.int64)
        db.ingest("s", base)
        db.flush()
        db.ingest("s", np.arange(400, 500, dtype=np.int64))
        log = group_log(root)
        log.write_bytes(log.read_bytes()[:30])  # tear inside record 0
        crashed = SeriesDB.open(root)
        assert np.array_equal(crashed.decompress("s"), base)


class TestIngestValidation:
    """The serial-path satellites: digits gating and input coercion."""

    def test_preflush_digit_conflict_rejected(self, root):
        """Two pre-flush ingests with conflicting digits must raise: the
        manifest count is still 0, so the gate uses the live store length."""
        db = make_db(root)
        db.ingest("s", np.arange(10), digits=2)
        with pytest.raises(ValueError, match="mix scales"):
            db.ingest("s", np.arange(10), digits=3)
        with pytest.raises(ValueError, match="mix scales"):
            db.ingest_many({"s": np.arange(10)}, digits=1)
        assert db.digits("s") == 2  # the original scaling survived
        assert db.ingest("s", np.arange(10), digits=2) == 20

    def test_serial_ingest_rejects_non_1d(self, root):
        db = make_db(root)
        with pytest.raises(ValueError, match="expected a 1-D array"):
            db.ingest("s", np.zeros((3, 3)))
        with pytest.raises(ValueError, match="expected a 1-D array"):
            db.ingest("s", 5)
        assert "s" not in db  # nothing was created

    def test_serial_ingest_coerces_like_ingest_many(self, root):
        serial = make_db(root)
        serial.ingest("s", [1, 2, 3])  # plain list, like ingest_many accepts
        serial.flush()
        assert np.array_equal(serial.decompress("s"), np.array([1, 2, 3]))
        pooled = make_db(root.with_name("db2"))
        pooled.ingest_many({"s": [1, 2, 3]})
        pooled.flush()
        a = (serial.root / serial.info()["series"]["s"]["shard"]).read_bytes()
        b = (pooled.root / pooled.info()["series"]["s"]["shard"]).read_bytes()
        assert a == b


class TestLegacyAppendLogs:
    """v2.6.0 roots: per-series ``RPAL0001`` logs named by ``"wal"``."""

    def test_reopen_replays_legacy_log_read_only(self, legacy_root, rng):
        base = rng.integers(0, 100, 600).astype(np.int64)
        more = [rng.integers(0, 100, n).astype(np.int64) for n in (300, 40)]
        root = legacy_root({"a": base, "b": base[:300]}, {"a": more})
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        db = SeriesDB.open(root)
        assert np.array_equal(db.decompress("a"), np.concatenate([base, *more]))
        assert np.array_equal(db.decompress("b"), base[:300])
        assert db.cache_info()["dirty"] == 1  # only "a" replayed
        after = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        assert after == before  # opening wrote, truncated and deleted nothing

    def test_replay_order_is_snapshot_legacy_then_group(self, legacy_root, rng):
        base = rng.integers(0, 100, 500).astype(np.int64)
        legacy = [rng.integers(0, 100, 70).astype(np.int64)]
        root = legacy_root({"a": base, "b": base}, {"a": legacy}, digits=1)
        assert fsck_seriesdb(root, deep=True).ok
        db = SeriesDB.open(root)
        fresh = rng.integers(0, 100, 400).astype(np.int64)
        db.ingest_many({"a": fresh, "b": fresh[:9]}, digits=1)
        del db  # crash: legacy log, then group log, both pending
        report = fsck_seriesdb(root, deep=True)
        assert report.ok, [p.render() for p in report.problems]
        again = SeriesDB.open(root)
        assert np.array_equal(
            again.decompress("a"), np.concatenate([base, *legacy, fresh])
        )
        assert np.array_equal(
            again.decompress("b"), np.concatenate([base, fresh[:9]])
        )
        assert again.digits("a") == 1

    def test_flush_deletes_legacy_logs(self, legacy_root, rng):
        base = rng.integers(0, 100, 700).astype(np.int64)
        legacy = [rng.integers(0, 100, n).astype(np.int64) for n in (20, 30)]
        root = legacy_root({"a": base, "b": base}, {"a": legacy, "b": legacy})
        wals = sorted((root / "shards").glob("*.wal"))
        assert len(wals) == 2
        assert fsck_seriesdb(root, deep=True).ok
        db = SeriesDB.open(root)
        db.ingest("b", base[:5])
        db.flush()
        assert sorted((root / "shards").glob("*.wal")) == []
        assert all("wal" not in e for e in manifest(root)["series"].values())
        report = fsck_seriesdb(root, deep=True)
        assert report.ok, [p.render() for p in report.problems]
        db.close()
        again = SeriesDB.open(root)
        assert again.cache_info()["dirty"] == 0
        assert np.array_equal(
            again.decompress("a"), np.concatenate([base, *legacy])
        )
        assert np.array_equal(
            again.decompress("b"), np.concatenate([base, *legacy, base[:5]])
        )

    def test_failed_flush_never_replays_a_legacy_log_twice(
        self, legacy_root, rng, monkeypatch
    ):
        """A flush that dies after swapping in one shard must forget that
        series' legacy log with the swap: the next ingest commits the
        manifest (it names a first group log), and a crash after that must
        not replay the legacy values on top of the snapshot holding them."""
        import repro.store.seriesdb as seriesdb_mod

        base = rng.integers(0, 100, 300).astype(np.int64)
        legacy = [rng.integers(0, 100, 50).astype(np.int64)]
        root = legacy_root({"a": base, "b": base}, {"a": legacy, "b": legacy})
        db = SeriesDB.open(root)
        real = seriesdb_mod._write_atomic
        tier_writes = []

        def failing(path, blob):
            if str(path).endswith(".tier"):
                tier_writes.append(path)
                if len(tier_writes) == 2:  # "b", after "a" was swapped in
                    raise OSError("simulated disk full")
            return real(path, blob)

        monkeypatch.setattr(seriesdb_mod, "_write_atomic", failing)
        with pytest.raises(OSError, match="disk full"):
            db.flush()
        monkeypatch.undo()
        more = rng.integers(0, 100, 20).astype(np.int64)
        db.ingest("a", more)  # durable: commits the manifest first
        del db  # crash
        crashed = SeriesDB.open(root)
        assert np.array_equal(
            crashed.decompress("a"), np.concatenate([base, *legacy, more])
        )
        assert np.array_equal(
            crashed.decompress("b"), np.concatenate([base, *legacy])
        )
