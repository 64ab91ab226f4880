"""Tests for group-commit durability: GroupLog and the SeriesDB write path."""

import json
import os

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.codecs.container import GroupLog, read_group_log
from repro.store import SeriesDB


def _batches(rng, k=4, n=80):
    return [
        np.cumsum(rng.integers(-9, 10, n)).astype(np.int64) for _ in range(k)
    ]


def _frame(values):
    return get_codec("gorilla").compress(values).to_bytes()


class TestGroupLog:
    def test_roundtrip_interleaved_series(self, tmp_path, rng):
        path = tmp_path / "group.gwl"
        log = GroupLog.create(path, codec="gorilla")
        a1, a2, b1 = _batches(rng, k=3)
        log.append_group([("a", 0, _frame(a1)), ("b", 2, _frame(b1))])
        log.append_group([("a", 0, _frame(a2))])
        got = read_group_log(path)
        assert [(sid, digits) for sid, digits, _ in got] == [
            ("a", 0), ("b", 2), ("a", 0),
        ]
        assert np.array_equal(got[0][2], a1)
        assert np.array_equal(got[1][2], b1)
        assert np.array_equal(got[2][2], a2)

    def test_one_fsync_per_group(self, tmp_path, rng, monkeypatch):
        log = GroupLog.create(tmp_path / "group.gwl", codec="gorilla")
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        batches = [(f"s{i}", 0, _frame(values)) for i, values in
                   enumerate(_batches(rng, k=5))]
        assert log.append_group(batches) == 5
        assert len(calls) == 1

    def test_open_truncates_torn_tail(self, tmp_path, rng):
        path = tmp_path / "group.gwl"
        log = GroupLog.create(path, codec="gorilla")
        frame = _frame(_batches(rng, k=1)[0])
        log.append_group([("a", 0, frame)])
        sealed = path.stat().st_size
        log.append_group([("b", 0, frame)])
        raw = path.read_bytes()
        path.write_bytes(raw[: sealed + 7])  # crash mid-second-record
        reopened = GroupLog.open(path)
        assert reopened.num_records == 1
        assert path.stat().st_size == sealed
        got = read_group_log(path)
        assert len(got) == 1 and got[0][0] == "a"

    def test_sealed_record_corruption_raises(self, tmp_path, rng):
        path = tmp_path / "group.gwl"
        log = GroupLog.create(path, codec="gorilla")
        log.append_group([("a", 0, _frame(_batches(rng, k=1)[0]))])
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="crc"):
            read_group_log(path)

    def test_lossy_codec_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lossless"):
            GroupLog.create(tmp_path / "group.gwl", codec="pla", eps=1.0)

    def test_frame_not_matching_its_header_rejected(self, tmp_path, rng):
        """Recovery would read such a record as a torn tail and drop it and
        every later record, so the writer refuses it up front."""
        path = tmp_path / "group.gwl"
        log = GroupLog.create(path, codec="gorilla")
        first, second = (_frame(v) for v in _batches(rng, k=2))
        size = path.stat().st_size
        for bad in (first + b"\0", first[:-1], first + second):
            with pytest.raises(ValueError, match="header spans"):
                log.append_group([("a", 0, second), ("b", 0, bad)])
        with pytest.raises(ValueError, match="frame"):
            log.append_group([("a", 0, b"not a frame")])
        assert path.stat().st_size == size  # nothing of the batch landed
        assert log.num_records == 0


class TestSeriesDBGroupCommit:
    def test_crash_reopen_recovers_group_log(self, tmp_path, rng):
        db = SeriesDB(tmp_path / "db")
        a = np.cumsum(rng.integers(-5, 6, 400)).astype(np.int64)
        b = np.cumsum(rng.integers(-5, 6, 300)).astype(np.int64)
        db.ingest_many({"a": a, "b": b})
        db.ingest("a", a[:50])
        del db  # crash: no flush, no close — only the group log is durable
        again = SeriesDB.open(tmp_path / "db")
        assert np.array_equal(
            again.decompress("a"), np.concatenate([a, a[:50]])
        )
        assert np.array_equal(again.decompress("b"), b)
        again.close()

    def test_steady_state_batch_costs_one_fsync(self, tmp_path, rng,
                                                monkeypatch):
        db = SeriesDB(tmp_path / "db")
        first = {
            f"s{i}": np.cumsum(rng.integers(-5, 6, 200)).astype(np.int64)
            for i in range(6)
        }
        db.ingest_many(first)  # registers series + group log name
        db.flush()
        # first post-flush batch pays the one-time log-creation fsyncs
        db.ingest_many({sid: values[:100] for sid, values in first.items()})
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        db.ingest_many({sid: values[100:150] for sid, values in first.items()})
        assert len(calls) == 1  # the whole 6-series batch, one fsync
        db.close()

    def test_flush_rotates_group_log(self, tmp_path, rng):
        root = tmp_path / "db"
        db = SeriesDB(root)
        db.ingest("a", np.cumsum(rng.integers(-5, 6, 100)).astype(np.int64))
        before = json.loads((root / "MANIFEST.json").read_text())["group_wal"]
        assert (root / before).exists()
        db.flush()
        after = json.loads((root / "MANIFEST.json").read_text())["group_wal"]
        assert after != before
        assert not (root / before).exists()  # dropped post-commit
        db.close()

    def test_plain_manifest_has_no_group_key(self, legacy_root, rng):
        """A v2.6.0 plain (per-series-log) manifest gains no group key by
        being opened.  The first ingest names a group log and writes
        ``group_commit: true``, which a v2.6.0 reader needs to replay it."""
        base = np.cumsum(rng.integers(-5, 6, 300)).astype(np.int64)
        root = legacy_root({"a": base}, {"a": [base[:40]]})
        db = SeriesDB.open(root)
        assert db.count("a") == 340
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert "group_wal" not in manifest
        assert manifest["group_commit"] is False
        db.ingest("a", base[:10])
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert manifest["group_commit"] is True
        assert (root / manifest["group_wal"]).exists()
        assert "group_commit" not in db.info()  # written, never read back
        db.close()

    def test_group_and_plain_mode_answer_identically(
        self, tmp_path, rng, legacy_root
    ):
        """A v2.6.0 plain-mode root whose values wait in per-series logs
        answers like a root whose values wait in the group log."""
        fleet = {
            f"s{i}": np.cumsum(rng.integers(-7, 8, 500)).astype(np.int64)
            for i in range(4)
        }
        base = {sid: values[:200] for sid, values in fleet.items()}
        pending = {sid: [values[200:350], values[350:]]
                   for sid, values in fleet.items()}
        legacy = SeriesDB.open(legacy_root(base, pending))
        grouped = SeriesDB(tmp_path / "grouped", seal_threshold=256,
                           cold_codec="leats")
        grouped.ingest_many(base)
        grouped.flush()
        for part in (0, 1):
            grouped.ingest_many(
                {sid: batches[part] for sid, batches in pending.items()}
            )
        grouped = SeriesDB.open(tmp_path / "grouped")  # crash, then reopen
        for sid, values in fleet.items():
            assert np.array_equal(legacy.decompress(sid), values)
            assert np.array_equal(grouped.decompress(sid), values)
            assert legacy.access(sid, 123) == grouped.access(sid, 123)
        legacy.close()
        grouped.close()
