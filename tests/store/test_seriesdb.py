"""Tests for SeriesDB: shard-per-series persistence, ingest, compaction."""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.store import SeriesDB


@pytest.fixture
def fleet(rng):
    out = {}
    for i in range(3):
        y = 300 * np.sin(np.arange(3000) / (20 + 10 * i))
        out[f"sensor/{i}"] = (y + np.cumsum(rng.integers(-2, 3, 3000))).astype(
            np.int64
        )
    return out


@pytest.fixture
def db(tmp_path, fleet):
    db = SeriesDB(tmp_path / "db", seal_threshold=512, hot_codec="gorilla",
                  cold_codec="leats")
    db.ingest_many(fleet)
    db.flush()
    return db


class TestRoundTrip:
    def test_reopen_answers_queries(self, db, fleet):
        again = SeriesDB.open(db.root)
        assert again.series_ids() == list(fleet)
        for sid, values in fleet.items():
            assert again.count(sid) == len(values)
            assert again.access(sid, 1717) == values[1717]
            assert np.array_equal(again.range(sid, 100, 900), values[100:900])
            assert np.array_equal(again.decompress(sid), values)

    def test_shard_frames_byte_identical_across_cycles(self, db, fleet):
        blobs = {
            sid: (db.root / db.info()["series"][sid]["shard"]).read_bytes()
            for sid in fleet
        }
        again = SeriesDB.open(db.root)
        for sid in fleet:
            again.mark_dirty(sid)  # force a rewrite from the loaded state
        again.flush()
        for sid, entry in again.info()["series"].items():
            # rewrites land under a fresh generation name, identical bytes
            assert (again.root / entry["shard"]).read_bytes() == blobs[sid]

    def test_flush_replaces_shard_files_and_reopens(self, db, fleet):
        old = {sid: e["shard"] for sid, e in db.info()["series"].items()}
        sid = next(iter(fleet))
        db.ingest(sid, np.arange(10, dtype=np.int64))
        db.flush()
        entry = db.info()["series"][sid]
        assert entry["shard"] != old[sid]  # fresh generation name
        assert not (db.root / old[sid]).exists()  # old file dropped post-commit
        again = SeriesDB.open(db.root)
        assert again.count(sid) == len(fleet[sid]) + 10

    def test_mark_dirty_before_load_then_flush(self, db, fleet):
        again = SeriesDB.open(db.root)
        sid = next(iter(fleet))
        again.mark_dirty(sid)  # shard not loaded yet: must not break flush
        again.flush()
        assert np.array_equal(SeriesDB.open(db.root).decompress(sid), fleet[sid])

    def test_pooled_ingest_identical_to_serial_ingest(self, tmp_path, fleet):
        serial = SeriesDB(tmp_path / "serial", seal_threshold=512,
                          hot_codec="gorilla", cold_codec="leats")
        for sid, values in fleet.items():
            serial.ingest(sid, values)
        serial.flush()
        # one batch: every series' pieces encoded in one compress_many pass
        batched = SeriesDB(tmp_path / "batched", seal_threshold=512,
                           hot_codec="gorilla", cold_codec="leats")
        batched.ingest_many(fleet)
        batched.flush()
        for sid in fleet:
            a = (serial.root / serial.info()["series"][sid]["shard"]).read_bytes()
            b = (batched.root / batched.info()["series"][sid]["shard"]).read_bytes()
            assert a == b

    def test_context_manager_flushes(self, tmp_path, fleet):
        with SeriesDB(tmp_path / "db", seal_threshold=256) as db:
            db.ingest("only", next(iter(fleet.values())))
        again = SeriesDB.open(tmp_path / "db")
        assert again.count("only") == 3000


class TestIngest:
    def test_append_to_existing_series(self, db, fleet):
        sid = next(iter(fleet))
        more = np.arange(700, dtype=np.int64)
        assert db.ingest(sid, more) == len(fleet[sid]) + 700
        db.flush()
        again = SeriesDB.open(db.root)
        expected = np.concatenate([fleet[sid], more])
        assert np.array_equal(again.decompress(sid), expected)

    def test_ingest_many_appends_across_buffer_boundary(self, tmp_path):
        values = np.arange(1300, dtype=np.int64)
        db = SeriesDB(tmp_path / "db", seal_threshold=512)
        db.ingest_many({"s": values[:700]})  # buffer holds 188
        db.ingest_many({"s": values[700:]})
        assert np.array_equal(db.decompress("s"), values)
        report = db.store("s").tier_report()
        assert report["hot_blocks"] == 2
        assert report["buffer_values"] == 1300 - 2 * 512

    def test_unknown_series_raises(self, db):
        with pytest.raises(ValueError, match="unknown series"):
            db.access("nope", 0)

    def test_invalid_series_id_raises(self, db):
        with pytest.raises(ValueError, match="invalid series id"):
            db.ingest("", [1, 2, 3])

    def test_digits_recorded_and_mismatch_rejected(self, db, fleet):
        sid = next(iter(fleet))
        assert db.digits(sid) == 0
        db.ingest("scaled", np.arange(100, dtype=np.int64), digits=2)
        db.flush()
        again = SeriesDB.open(db.root)
        assert again.digits("scaled") == 2
        with pytest.raises(ValueError, match="mix scales"):
            again.ingest("scaled", np.arange(10), digits=3)
        with pytest.raises(ValueError, match="mix scales"):
            again.ingest_many({"scaled": np.arange(10)}, digits=1)
        assert again.ingest("scaled", np.arange(10), digits=2) == 110

    def test_ingest_many_is_atomic_on_bad_input(self, db, fleet):
        """A bad series later in the batch must not half-apply earlier ones."""
        sid = next(iter(fleet))
        before = db.count(sid)
        with pytest.raises(ValueError, match="1-D"):
            db.ingest_many({sid: np.arange(900), "bad": np.zeros((3, 3))})
        assert db.count(sid) == before
        with pytest.raises(ValueError, match="invalid series id"):
            db.ingest_many({sid: np.arange(900), "": np.arange(5)})
        assert db.count(sid) == before

    def test_unsafe_ids_get_distinct_shards(self, db, fleet):
        # "sensor/0" etc. sanitise to the same stem; the counter suffix
        # keeps the shard files distinct.
        shards = {e["shard"] for e in db.info()["series"].values()}
        assert len(shards) == len(fleet)


class TestCompact:
    def test_threshold_selects_shards(self, tmp_path, fleet):
        db = SeriesDB(tmp_path / "db", seal_threshold=512, hot_codec="gorilla",
                      cold_codec="leats")
        sids = list(fleet)
        db.ingest(sids[0], fleet[sids[0]])         # 2560 sealed hot values
        db.ingest(sids[1], fleet[sids[1]][:600])   # 512 sealed hot values
        db.flush()
        compacted = db.compact(hot_threshold=1000)
        assert compacted == [sids[0]]
        report = db.store(sids[0]).tier_report()
        assert report["hot_values"] == 0 and report["cold_values"] == 2560
        assert db.store(sids[1]).tier_report()["hot_values"] == 512

    def test_compact_persists_and_preserves_data(self, db, fleet):
        assert set(db.compact()) == set(fleet)
        again = SeriesDB.open(db.root)
        for sid, values in fleet.items():
            assert np.array_equal(again.decompress(sid), values)
            entry = again.info()["series"][sid]
            assert entry["hot_values"] == 0 and entry["cold_values"] > 0

    def test_compact_nothing_to_do(self, db):
        db.compact()
        assert db.compact() == []


class TestCorruption:
    def test_swapped_shard_fails_crc(self, db, fleet):
        sids = list(fleet)
        info = db.info()["series"]
        a = db.root / info[sids[0]]["shard"]
        b = db.root / info[sids[1]]["shard"]
        blob_a, blob_b = a.read_bytes(), b.read_bytes()
        a.write_bytes(blob_b)
        b.write_bytes(blob_a)
        again = SeriesDB.open(db.root)
        with pytest.raises(ValueError, match="manifest crc"):
            again.access(sids[0], 0)

    def test_count_mismatch_detected(self, db, fleet):
        sid = next(iter(fleet))
        manifest_path = db.root / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["series"][sid]["count"] += 1
        manifest_path.write_text(json.dumps(manifest))
        again = SeriesDB.open(db.root)
        with pytest.raises(ValueError, match="manifest says"):
            again.access(sid, 0)

    def test_bit_rot_in_shard_fails(self, db, fleet):
        sid = next(iter(fleet))
        path = db.root / db.info()["series"][sid]["shard"]
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        again = SeriesDB.open(db.root)
        with pytest.raises(ValueError):
            again.access(sid, 0)

    def test_not_a_db_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no SeriesDB manifest"):
            SeriesDB.open(tmp_path / "missing")

    def test_bad_manifest_format_raises(self, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / "MANIFEST.json").write_text(json.dumps({"format": "WRONG"}))
        with pytest.raises(ValueError, match="not a SeriesDB manifest"):
            SeriesDB(root)

    def test_instance_codecs_rejected(self, tmp_path):
        from repro.baselines.gorilla import GorillaCompressor

        with pytest.raises(ValueError, match="codec ids"):
            SeriesDB(tmp_path / "db", hot_codec=GorillaCompressor())

    def test_invalid_seal_threshold_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="seal_threshold"):
            SeriesDB(tmp_path / "db", seal_threshold=0)
        assert not (tmp_path / "db" / "MANIFEST.json").exists()

    @pytest.mark.parametrize("block_size", [0, -5])
    def test_invalid_hot_block_size_rejected(self, tmp_path, block_size):
        with pytest.raises(ValueError, match="invalid hot tier configuration"):
            SeriesDB(tmp_path / "db", seal_threshold=4,
                     hot_params={"block_size": block_size})
        assert not (tmp_path / "db" / "MANIFEST.json").exists()

    def test_manifest_crc_check_uses_zlib(self, db, fleet):
        # sanity: the recorded crc32 actually matches the shard bytes
        for sid, entry in db.info()["series"].items():
            blob = (db.root / entry["shard"]).read_bytes()
            assert zlib.crc32(blob) == entry["crc32"]


def _tree_bytes(root):
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


class TestFlushFootprint:
    def test_flushed_tail_stays_compressed(self, tmp_path):
        """Two 3,000-value series never reach the default seal threshold,
        so after flush() they live in their shards' write buffers.  As
        gorilla tail frames they take about what the group log held;
        as raw int64 they took 1.4x that."""
        from repro.data import DATASETS

        root = tmp_path / "db"
        db = SeriesDB(root)
        db.ingest_many({name: DATASETS[name].generate(3000) for name in ("IT", "CT")})
        before = _tree_bytes(root)
        db.flush()
        assert db.info()["series"]["IT"]["buffer_values"] == 3000
        assert _tree_bytes(root) <= 1.1 * before


class TestOrphanReclaim:
    def test_next_flush_deletes_what_a_crashed_flush_left(self, tmp_path, monkeypatch):
        from repro.analysis import fsck_seriesdb

        root = tmp_path / "db"
        db = SeriesDB(root, seal_threshold=64)
        db.ingest_many({"a": np.arange(100), "b": np.arange(70)})
        db.flush()
        db.ingest("a", np.arange(30))

        def crash(self):
            raise OSError("crash before the manifest commit")

        # The new shard generation of "a" is written, the commit is not.
        monkeypatch.setattr(SeriesDB, "_write_manifest", crash)
        with pytest.raises(OSError, match="crash"):
            db.flush()
        monkeypatch.undo()
        del db
        orphans = [
            p.path for p in fsck_seriesdb(root).problems if p.code == "FSK028"
        ]
        assert len(orphans) == 1
        in_flight = root / "shards" / "a-0099.tier.tmp"
        in_flight.write_bytes(b"in flight")
        b_shard = json.loads((root / "MANIFEST.json").read_text())["series"]["b"]["shard"]
        b_bytes = (root / b_shard).read_bytes()

        db = SeriesDB.open(root)
        # A new series takes the next generation number, so this flush
        # writes "a" under a new name instead of over the orphan.
        db.ingest_many({"c": np.arange(3), "a": np.arange(5)})
        db.flush()
        assert not any(Path(p).exists() for p in orphans)
        assert in_flight.read_bytes() == b"in flight"
        assert (root / b_shard).read_bytes() == b_bytes
        named = json.loads((root / "MANIFEST.json").read_text())["series"]
        assert named["b"]["shard"] == b_shard
        assert all((root / e["shard"]).exists() for e in named.values())
        assert len(list((root / "shards").iterdir())) == len(named) + 1
        assert fsck_seriesdb(root, deep=True).ok
        assert np.array_equal(
            db.decompress("a"), np.concatenate([np.arange(100), np.arange(30), np.arange(5)])
        )
