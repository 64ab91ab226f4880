"""repro fsck over SeriesDB directories: manifest <-> shards <-> WAL.

The matrix: a healthy database (flushed, and with pending group-log
records) must pass ``--deep``; a deleted shard, a bit-rotted shard, a
manifest that lies about counts or digits, a corrupted per-series WAL
record of a v2.6.0 directory, and files no manifest entry references must
each be flagged with their own problem code.
"""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import fsck_path, fsck_seriesdb
from repro.store import SeriesDB


@pytest.fixture
def db_root(tmp_path, walk_series):
    """A flushed two-series database plus un-flushed group-log records on 'cpu'."""
    root = tmp_path / "db"
    db = SeriesDB(root, seal_threshold=256)
    db.ingest("cpu", walk_series, digits=2)
    db.ingest("mem", walk_series[:700])
    db.flush()
    db.ingest("cpu", walk_series[:100], digits=2)  # durable, not flushed
    return root


@pytest.fixture
def wal_root(legacy_root, walk_series):
    """A v2.6.0 directory: 'cpu' has 100 values pending in its per-series WAL."""
    return legacy_root(
        {"cpu": walk_series, "mem": walk_series[:700]},
        {"cpu": [walk_series[:100]]},
        digits=2,
    )


def codes(report):
    return {p.code for p in report.problems}


def manifest(root):
    return json.loads((root / "MANIFEST.json").read_text())


def rewrite_manifest(root, data):
    (root / "MANIFEST.json").write_text(json.dumps(data))


def shard_path(root, sid):
    return root / manifest(root)["series"][sid]["shard"]


def wal_path(root, sid):
    return root / manifest(root)["series"][sid]["wal"]


# -- healthy databases ----------------------------------------------------------


def test_clean_db_passes_shallow_and_deep(db_root):
    shallow = fsck_seriesdb(db_root)
    deep = fsck_seriesdb(db_root, deep=True)
    assert shallow.ok and deep.ok
    assert deep.exit_code == 0
    assert deep.checked["series"] == 2
    assert deep.checked["shards"] == 2


def test_deep_replays_wal_on_top_of_snapshots(db_root, walk_series):
    report = fsck_seriesdb(db_root, deep=True)
    assert report.ok
    # the pending 100 WAL values count toward the replayed totals
    assert report.checked["decoded_values"] == len(walk_series) + 700 + 100


def test_v260_wal_root_passes_deep(wal_root):
    report = fsck_seriesdb(wal_root, deep=True)
    assert report.ok, [p.render() for p in report.problems]
    assert report.checked["wals"] == 1


def test_directory_dispatch(db_root):
    assert fsck_path(db_root).kind == "seriesdb"


# -- manifest defects -----------------------------------------------------------


def test_missing_manifest_is_exit_2(tmp_path):
    (tmp_path / "empty").mkdir()
    report = fsck_path(tmp_path / "empty")
    assert codes(report) == {"FSK001"}
    assert report.exit_code == 2


def test_unparseable_manifest(db_root):
    (db_root / "MANIFEST.json").write_text("{not json")
    assert codes(fsck_seriesdb(db_root)) == {"FSK020"}


def test_wrong_manifest_format(db_root):
    data = manifest(db_root)
    data["format"] = "RPDB9999"
    rewrite_manifest(db_root, data)
    assert codes(fsck_seriesdb(db_root)) == {"FSK021"}


def test_malformed_series_entry(db_root):
    data = manifest(db_root)
    data["series"]["mem"] = {"count": 700}  # no shard reference
    rewrite_manifest(db_root, data)
    assert "FSK021" in codes(fsck_seriesdb(db_root))


# -- shard defects --------------------------------------------------------------


def test_deleted_shard_flagged(db_root):
    shard_path(db_root, "mem").unlink()
    report = fsck_seriesdb(db_root)
    assert "FSK022" in codes(report)
    assert report.exit_code == 1


def test_bitrotted_shard_fails_crc(db_root):
    path = shard_path(db_root, "mem")
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert "FSK023" in codes(fsck_seriesdb(db_root))


def test_swapped_shard_fails_crc(db_root):
    """A *valid* snapshot from the wrong series is still a defect."""
    cpu, mem = shard_path(db_root, "cpu"), shard_path(db_root, "mem")
    mem.write_bytes(cpu.read_bytes())
    assert "FSK023" in codes(fsck_seriesdb(db_root))


def test_wrong_magic_shard(db_root):
    path = shard_path(db_root, "mem")
    blob = b"XXXXXXXX" + path.read_bytes()[8:]
    path.write_bytes(blob)
    data = manifest(db_root)
    data["series"]["mem"]["crc32"] = zlib.crc32(blob)  # crc resealed
    rewrite_manifest(db_root, data)
    assert "FSK024" in codes(fsck_seriesdb(db_root))


def test_manifest_count_lie_caught_deep_only(db_root):
    data = manifest(db_root)
    data["series"]["mem"]["count"] += 13
    rewrite_manifest(db_root, data)
    assert "FSK025" not in codes(fsck_seriesdb(db_root))
    assert "FSK025" in codes(fsck_seriesdb(db_root, deep=True))


def test_dangling_shard_file_flagged(db_root):
    (db_root / "shards" / "orphan-9999.tier").write_bytes(b"leftover")
    assert "FSK028" in codes(fsck_seriesdb(db_root))


def test_tmp_files_are_not_dangling(db_root):
    (db_root / "shards" / "x.tier.tmp").write_bytes(b"in flight")
    assert fsck_seriesdb(db_root).ok


# -- WAL defects ----------------------------------------------------------------


def test_corrupt_wal_record_flagged(wal_root):
    path = wal_path(wal_root, "cpu")
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    report = fsck_seriesdb(wal_root)
    assert "FSK026" in codes(report)
    assert report.exit_code == 1


def test_wal_digits_conflict(wal_root):
    data = manifest(wal_root)
    data["series"]["cpu"]["digits"] = 7  # WAL header says 2
    rewrite_manifest(wal_root, data)
    assert "FSK027" in codes(fsck_seriesdb(wal_root))


def test_wal_codec_conflict(wal_root):
    data = manifest(wal_root)
    data["hot_codec"] = "leco"  # the WAL was written with gorilla
    rewrite_manifest(wal_root, data)
    assert "FSK027" in codes(fsck_seriesdb(wal_root))


def test_stale_wal_generation_is_dangling(wal_root):
    """A log file left behind by a crash mid-rotation has no reference."""
    data = manifest(wal_root)
    stale = wal_root / "shards" / "cpu-0099.wal"
    stale.write_bytes(wal_path(wal_root, "cpu").read_bytes())
    rewrite_manifest(wal_root, data)
    assert "FSK028" in codes(fsck_seriesdb(wal_root))


def test_unopenable_db_caught_by_deep_backstop(db_root):
    """Deep mode ends with a real SeriesDB.open: fields the structural pass
    does not model (here: a vanished next_shard counter) still fail."""
    data = manifest(db_root)
    del data["next_shard"]
    rewrite_manifest(db_root, data)
    assert fsck_seriesdb(db_root).ok  # structurally fine...
    report = fsck_seriesdb(db_root, deep=True)
    assert "FSK029" in codes(report)  # ...but the database cannot open
    assert report.exit_code == 1


def test_replay_divergence_caught_by_deep_backstop(db_root, monkeypatch):
    """If replay ever disagrees with snapshot + WAL accounting, FSK029."""
    real = SeriesDB.count
    monkeypatch.setattr(
        SeriesDB, "count", lambda self, sid: real(self, sid) - 1
    )
    report = fsck_seriesdb(db_root, deep=True)
    assert "FSK029" in codes(report)


def test_exit_code_aggregation(db_root):
    shard_path(db_root, "mem").unlink()
    (db_root / "shards" / "orphan-9999.tier").write_bytes(b"leftover")
    report = fsck_seriesdb(db_root)
    assert {"FSK022", "FSK028"} <= codes(report)
    assert report.exit_code == 1
    payload = report.to_json()
    assert payload["exit_code"] == 1
    assert len(payload["problems"]) == len(report.problems)
