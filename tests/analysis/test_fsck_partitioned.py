"""fsck over partitioned roots and group-commit WALs (FSK030-FSK034)."""

import json
import shutil
import struct

import numpy as np
import pytest

from repro.analysis import fsck_partitioned, fsck_path
from repro.codecs.container import _GROUP_HEADER, _GROUP_RECORD, read_group_log
from repro.store import PartitionedSeriesDB, SeriesDB


def _fleet(rng, k=6, n=400):
    return {
        f"s{i}": np.cumsum(rng.integers(-9, 10, n)).astype(np.int64)
        for i in range(k)
    }


@pytest.fixture
def proot(tmp_path, rng):
    root = tmp_path / "pdb"
    db = PartitionedSeriesDB(root, partitions=3)
    db.ingest_many(_fleet(rng))
    db.flush()
    db.close()
    return root


def codes(report):
    return [p.code for p in report.problems]


class TestDispatch:
    def test_partitioned_root_gets_partitioned_kind(self, proot):
        report = fsck_path(proot, deep=True)
        assert report.kind == "partitioned"
        assert report.ok, [p.render() for p in report.problems]
        assert report.checked["partitions"] == 3
        assert report.checked["series"] == 6

    def test_single_dir_still_fscks_as_seriesdb(self, tmp_path, rng):
        db = SeriesDB(tmp_path / "db")
        db.ingest("a", _fleet(rng, k=1)["s0"])
        db.flush()
        db.close()
        assert fsck_path(tmp_path / "db").kind == "seriesdb"


class TestPartitionProblems:
    def test_missing_partition_dir_is_fsk031(self, proot):
        shutil.rmtree(proot / "p0001")
        report = fsck_path(proot)
        assert "FSK031" in codes(report)
        assert not report.ok

    def test_unmapped_and_orphan_series_are_fsk032(self, proot):
        manifest = json.loads((proot / "MANIFEST.json").read_text())
        dropped = next(iter(manifest["series"]))
        del manifest["series"][dropped]     # partition has it, map does not
        manifest["series"]["ghost"] = 0     # map has it, no partition does
        (proot / "MANIFEST.json").write_text(json.dumps(manifest))
        report = fsck_partitioned(proot)
        found = codes(report)
        assert found.count("FSK032") == 2
        messages = " ".join(p.message for p in report.problems)
        assert dropped in messages and "ghost" in messages

    def test_wrong_partition_mapping_is_fsk032(self, proot):
        manifest = json.loads((proot / "MANIFEST.json").read_text())
        sid, part = next(iter(manifest["series"].items()))
        manifest["series"][sid] = (part + 1) % manifest["partitions"]
        (proot / "MANIFEST.json").write_text(json.dumps(manifest))
        report = fsck_partitioned(proot)
        assert "FSK032" in codes(report)

    def test_bad_partition_count_is_fsk030(self, proot):
        manifest = json.loads((proot / "MANIFEST.json").read_text())
        manifest["partitions"] = 0
        (proot / "MANIFEST.json").write_text(json.dumps(manifest))
        assert codes(fsck_partitioned(proot)) == ["FSK030"]

    def test_partition_manifest_not_an_object_is_fsk020(self, proot):
        (proot / "p0000" / "MANIFEST.json").write_text("[]")
        report = fsck_path(proot)
        found = [p for p in report.problems if p.code == "FSK020"]
        assert found and "p0000" in found[0].path
        assert report.exit_code == 1

    def test_partition_defect_keeps_its_own_code(self, proot):
        # corrupt one partition's manifest: the finding surfaces with the
        # single-dir code (FSK020), pathed inside the partition
        (proot / "p0000" / "MANIFEST.json").write_text("{nope")
        report = fsck_path(proot)
        found = [p for p in report.problems if p.code == "FSK020"]
        assert found and "p0000" in found[0].path


class TestGroupWalProblems:
    @pytest.fixture
    def groot(self, tmp_path, rng):
        """A single-dir DB abandoned with a live group log."""
        root = tmp_path / "gdb"
        db = SeriesDB(root, hot_codec="gorilla")
        db.ingest_many(_fleet(rng, k=3))
        del db  # crash-style: group log referenced by the manifest
        return root

    def _group_path(self, root):
        manifest = json.loads((root / "MANIFEST.json").read_text())
        return root / manifest["group_wal"]

    def _records(self, path):
        """``[(record offset, sid length, frame length), ...]`` of a group log."""
        data = path.read_bytes()
        _, idlen, plen = _GROUP_HEADER.unpack_from(data)
        pos = _GROUP_HEADER.size + idlen + plen
        records = []
        while pos + _GROUP_RECORD.size <= len(data):
            sid_len, _, frame_len, _ = _GROUP_RECORD.unpack_from(data, pos)
            records.append((pos, sid_len, frame_len))
            pos += _GROUP_RECORD.size + sid_len + frame_len
        return records

    def _patch(self, path, offset, blob):
        raw = bytearray(path.read_bytes())
        raw[offset:offset + len(blob)] = blob
        path.write_bytes(bytes(raw))

    # Field offsets inside a record header (sid len H, digits i, frame len Q).
    _DIGITS, _FRAME_LEN = 2, 6

    def test_frame_length_overrun_is_fsk012(self, groot):
        path = self._group_path(groot)
        pos, _, _ = self._records(path)[2]
        self._patch(path, pos + self._FRAME_LEN, struct.pack("<Q", 2**40))
        assert set(codes(fsck_path(groot))) == {"FSK012", "FSK015"}

    def test_short_frame_length_is_fsk016(self, groot):
        path = self._group_path(groot)
        pos, _, frame_len = self._records(path)[0]
        self._patch(path, pos + self._FRAME_LEN, struct.pack("<Q", frame_len - 8))
        assert set(codes(fsck_path(groot))) == {"FSK015", "FSK016"}

    def test_series_id_not_utf8_is_fsk033(self, groot):
        path = self._group_path(groot)
        pos, _, _ = self._records(path)[1]
        self._patch(path, pos + _GROUP_RECORD.size, b"\xff")
        assert set(codes(fsck_path(groot))) == {"FSK015", "FSK033"}

    def test_digits_conflict_is_fsk034(self, tmp_path, rng):
        # Record digits are checked against the series' manifest entry,
        # which a new series gets from its first flush: flush, then log.
        root = tmp_path / "gdb"
        db = SeriesDB(root, hot_codec="gorilla")
        db.ingest_many(_fleet(rng, k=3))
        db.flush()
        db.ingest_many(_fleet(rng, k=3))
        del db
        path = self._group_path(root)
        pos, _, _ = self._records(path)[1]
        self._patch(path, pos + self._DIGITS, struct.pack("<i", 7))
        assert set(codes(fsck_path(root))) == {"FSK034"}

    def test_torn_last_record_is_fsk012_and_fsk015(self, groot):
        path = self._group_path(groot)
        path.write_bytes(path.read_bytes()[:-5])
        assert set(codes(fsck_path(groot))) == {"FSK012", "FSK015"}
        assert len(read_group_log(path)) == 2
        db = SeriesDB.open(groot)
        assert [db.count(sid) for sid in ("s0", "s1")] == [400, 400]
        # s2's only record is torn: it never became durable, so nothing
        # registers it.
        assert "s2" not in db

    def test_clean_group_log_deep_ok(self, groot):
        report = fsck_path(groot, deep=True)
        assert report.ok, [p.render() for p in report.problems]
        assert report.checked["group_wals"] == 1
        assert report.checked["records"] == 3

    def test_bad_magic_is_fsk033(self, groot):
        path = self._group_path(groot)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"XXXXXXXX"
        path.write_bytes(bytes(raw))
        assert "FSK033" in codes(fsck_path(groot))

    def test_record_corruption_is_fsk013(self, groot):
        path = self._group_path(groot)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert "FSK013" in codes(fsck_path(groot))

    def test_torn_tail_is_fsk015(self, groot):
        path = self._group_path(groot)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        assert "FSK015" in codes(fsck_path(groot))

    def test_codec_conflict_is_fsk034(self, groot):
        manifest = json.loads((groot / "MANIFEST.json").read_text())
        manifest["hot_codec"] = "zstd"
        (groot / "MANIFEST.json").write_text(json.dumps(manifest))
        assert "FSK034" in codes(fsck_path(groot))

    def test_recovery_semantics_match_fsck(self, groot):
        """The records fsck verifies are exactly those recovery replays."""
        path = self._group_path(groot)
        raw = path.read_bytes()
        ends = [pos + _GROUP_RECORD.size + sid_len + frame_len
                for pos, sid_len, frame_len in self._records(path)]
        cuts = {len(raw) - 5, (ends[0] + ends[1]) // 2}
        cuts |= {end + delta for end in ends[:-1] for delta in (-1, 0, 1)}
        for cut in sorted(cuts):
            path.write_bytes(raw[:cut])
            report = fsck_path(groot)
            replayed = read_group_log(path)
            assert report.checked.get("records", 0) == len(replayed), cut
            assert ("FSK015" in codes(report)) == (cut not in ends), cut

    def test_live_later_batch_is_not_fsk032(self, tmp_path):
        """A series that only a partition's live group log names is that
        partition's: the map may name it before its first flush."""
        root = tmp_path / "pdb"
        db = PartitionedSeriesDB(root, partitions=2)
        db.ingest_many({"a": np.arange(100)})
        db.ingest_many({"b": np.arange(100)})
        del db
        report = fsck_path(root, deep=True)
        assert report.ok, [p.render() for p in report.problems]

    def test_group_log_surfaces_through_partitioned_root(self, tmp_path, rng):
        root = tmp_path / "pdb"
        db = PartitionedSeriesDB(root, partitions=2)
        db.ingest_many(_fleet(rng, k=4))
        del db  # group logs live in the partitions
        report = fsck_path(root, deep=True)
        assert report.ok, [p.render() for p in report.problems]
        assert report.checked["group_wals"] >= 1
