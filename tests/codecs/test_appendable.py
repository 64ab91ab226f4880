"""The appendable multi-frame container (``RPAL0001``) and the save fixes.

Contract (see :mod:`repro.codecs.container`): ``append(values)`` is one
fsync'd tail record; ``open_archive`` auto-detects the magic in both modes
and serves the records as one logical series with per-record crc checks
(deferred to first decode of each record when lazy); a crash can only tear
the final record, which openers skip and the next writer truncates;
``seal()`` compacts to a one-shot ``RPAC0001`` archive identical to
one-shot compression of the concatenated input.
"""

import numpy as np
import pytest

import repro
from repro.codecs import open_archive, save
from repro.codecs.container import (
    APPEND_MAGIC,
    ARCHIVE_MAGIC,
    AppendableArchive,
    append_open,
)

DIGITS = 2


@pytest.fixture
def batches(rng):
    sizes = (900, 2500, 64, 1300)
    return [
        (300 * np.sin(np.arange(n) / 40) + np.cumsum(rng.integers(-3, 4, n)))
        .astype(np.int64)
        for n in sizes
    ]


@pytest.fixture
def full(batches):
    return np.concatenate(batches)


@pytest.fixture
def log_path(tmp_path, batches):
    path = tmp_path / "stream.rpal"
    log = AppendableArchive.create(path, codec="gorilla", digits=DIGITS)
    for batch in batches:
        log.append(batch)
    return path


class TestAppendRoundTrip:
    @pytest.mark.parametrize("lazy", [False, True])
    def test_reopen_matches_concatenated_input(self, log_path, batches, full, lazy):
        archive = open_archive(log_path, lazy=lazy)
        assert archive.codec_id == "gorilla"
        assert archive.digits == DIGITS
        assert len(archive) == len(full)
        assert archive.compressed.num_runs == len(batches)
        assert np.array_equal(archive.decompress(), full)
        for k in (0, 899, 900, len(full) - 1):
            assert archive.access(k) == full[k]
        # ranges crossing record boundaries
        assert np.array_equal(
            archive.decompress_range(850, 3500), full[850:3500]
        )
        assert np.array_equal(archive.values(), full / 10.0**DIGITS)

    def test_matches_one_shot_compression(self, log_path, full):
        """N appends must reopen to the same series as one-shot compression,
        and compact to the identical single frame."""
        archive = open_archive(log_path)
        one_shot = repro.compress(full, codec="gorilla")
        assert np.array_equal(archive.decompress(), one_shot.decompress())
        assert archive.compressed.to_bytes() == one_shot.to_bytes()

    def test_append_returns_running_total(self, tmp_path, batches):
        log = AppendableArchive.create(tmp_path / "s.rpal", codec="gorilla")
        total = 0
        for batch in batches:
            total += len(batch)
            assert log.append(batch) == total
        assert len(log) == total
        assert log.num_records == len(batches)

    def test_empty_append_is_a_noop(self, tmp_path):
        log = AppendableArchive.create(tmp_path / "s.rpal", codec="gorilla")
        log.append(np.arange(10, dtype=np.int64))
        assert log.append(np.empty(0, dtype=np.int64)) == 10
        assert log.num_records == 1
        assert len(open_archive(tmp_path / "s.rpal")) == 10

    def test_writer_reopen_resumes(self, log_path, batches, full):
        log = AppendableArchive.open(log_path)
        assert len(log) == len(full)
        assert log.num_records == len(batches)
        assert log.digits == DIGITS
        more = np.arange(37, dtype=np.int64)
        log.append(more)
        archive = open_archive(log_path, lazy=True)
        assert np.array_equal(archive.decompress(), np.concatenate([full, more]))

    def test_non_1d_append_rejected(self, tmp_path):
        log = AppendableArchive.create(tmp_path / "s.rpal", codec="gorilla")
        with pytest.raises(ValueError, match="1-D"):
            log.append(np.zeros((3, 3)))


class TestAppendOpenFacade:
    def test_creates_then_resumes(self, tmp_path):
        path = tmp_path / "s.rpal"
        log = repro.append_open(path, codec="zstd", digits=1)
        log.append(np.arange(100, dtype=np.int64))
        again = repro.append_open(path)
        assert again.codec_id == "zstd"
        assert again.digits == 1
        again.append(np.arange(100, 200, dtype=np.int64))
        assert np.array_equal(
            open_archive(path).decompress(), np.arange(200)
        )

    def test_codec_conflict_rejected(self, tmp_path):
        path = tmp_path / "s.rpal"
        repro.append_open(path, codec="gorilla").append([1, 2, 3])
        with pytest.raises(ValueError, match="created with codec"):
            repro.append_open(path, codec="zstd")

    def test_digits_conflict_rejected(self, tmp_path):
        path = tmp_path / "s.rpal"
        repro.append_open(path, codec="gorilla", digits=2).append([1, 2, 3])
        with pytest.raises(ValueError, match="mix scales"):
            repro.append_open(path, digits=3)
        # matching digits — or leaving them unspecified — resumes fine
        assert repro.append_open(path, digits=2).digits == 2
        assert repro.append_open(path).digits == 2

    def test_params_conflict_rejected(self, tmp_path):
        path = tmp_path / "s.rpal"
        repro.append_open(path, codec="zstd", level=3).append([1, 2, 3])
        with pytest.raises(ValueError, match="params"):
            repro.append_open(path, codec="zstd", level=9)

    def test_lossy_codec_rejected_at_create(self, tmp_path):
        with pytest.raises(ValueError, match="lossless"):
            AppendableArchive.create(tmp_path / "s.rpal", codec="pla", eps=1.0)

    def test_create_refuses_existing_file(self, tmp_path, log_path):
        with pytest.raises(ValueError, match="already exists"):
            AppendableArchive.create(log_path, codec="gorilla")

    def test_sealed_archive_cannot_be_appended(self, tmp_path, full):
        path = tmp_path / "sealed.rpac"
        save(path, repro.compress(full, codec="gorilla"))
        with pytest.raises(ValueError, match="one-shot"):
            AppendableArchive.open(path)


class TestTornTail:
    """A crash mid-append tears only the final record; sealed ones survive."""

    @pytest.mark.parametrize("cut", [1, 10, 200])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_torn_final_record_skipped(self, log_path, batches, cut, lazy):
        blob = log_path.read_bytes()
        log_path.write_bytes(blob[:-cut])
        archive = open_archive(log_path, lazy=lazy)
        sealed = np.concatenate(batches[:-1])
        assert len(archive) == len(sealed)
        assert archive.compressed.num_runs == len(batches) - 1
        assert np.array_equal(archive.decompress(), sealed)
        assert archive.compressed.truncated_bytes > 0

    def test_tear_inside_record_header(self, log_path, batches):
        """Fewer than a record header's bytes after the sealed records."""
        blob = log_path.read_bytes()
        sizes = _record_ends(log_path, batches)
        log_path.write_bytes(blob[: sizes[-2] + 7])  # 7 bytes of torn header
        archive = open_archive(log_path)
        assert np.array_equal(
            archive.decompress(), np.concatenate(batches[:-1])
        )

    def test_append_after_tear_truncates_and_continues(self, log_path, batches):
        blob = log_path.read_bytes()
        log_path.write_bytes(blob[:-33])
        log = AppendableArchive.open(log_path)
        sealed = np.concatenate(batches[:-1])
        assert len(log) == len(sealed)
        # the torn bytes are gone before the new record lands
        assert log_path.stat().st_size < len(blob) - 33
        more = np.arange(50, dtype=np.int64)
        log.append(more)
        archive = open_archive(log_path, lazy=True)
        assert archive.compressed.truncated_bytes == 0
        assert np.array_equal(
            archive.decompress(), np.concatenate([sealed, more])
        )

    def test_header_only_archive_is_empty(self, tmp_path):
        path = tmp_path / "s.rpal"
        AppendableArchive.create(path, codec="gorilla")
        archive = open_archive(path)
        assert len(archive) == 0
        assert archive.compressed.num_runs == 0
        assert np.array_equal(archive.decompress(), np.empty(0, dtype=np.int64))

    def test_truncated_header_raises(self, tmp_path, log_path):
        bad = tmp_path / "bad.rpal"
        bad.write_bytes(log_path.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated appendable"):
            open_archive(bad)


class TestPerRecordCrc:
    def _corrupt_record(self, log_path, batches, index):
        """Flip one payload byte inside record ``index``."""
        ends = _record_ends(log_path, batches)
        blob = bytearray(log_path.read_bytes())
        blob[ends[index] - 1] ^= 0xFF
        log_path.write_bytes(bytes(blob))

    def test_eager_open_raises(self, log_path, batches):
        self._corrupt_record(log_path, batches, 1)
        with pytest.raises(ValueError, match="record 1 checksum"):
            open_archive(log_path)

    def test_lazy_detects_on_first_decode_of_that_record(self, log_path, batches):
        self._corrupt_record(log_path, batches, 1)
        archive = open_archive(log_path, lazy=True)
        # records 0, 2, 3 are intact and keep answering
        assert archive.access(0) == batches[0][0]
        k2 = len(batches[0]) + len(batches[1])  # first value of record 2
        assert archive.access(k2) == batches[2][0]
        with pytest.raises(ValueError, match="record 1 checksum"):
            archive.access(len(batches[0]))  # first value of record 1


class TestSeal:
    def test_seal_in_place_compacts_to_one_shot(self, log_path, full):
        log = AppendableArchive.open(log_path)
        target = log.seal()
        assert target == log_path
        assert log_path.read_bytes()[:8] == ARCHIVE_MAGIC
        archive = open_archive(log_path)
        assert archive.digits == DIGITS
        assert np.array_equal(archive.decompress(), full)
        # byte-identical to saving a one-shot compression directly
        one_shot = repro.compress(full, codec="gorilla")
        assert archive.compressed.to_bytes() == one_shot.to_bytes()

    def test_seal_to_destination_keeps_source(self, tmp_path, log_path, full):
        dst = tmp_path / "compact.rpac"
        AppendableArchive.open(log_path).seal(dst)
        assert log_path.read_bytes()[:8] == APPEND_MAGIC  # source untouched
        assert np.array_equal(open_archive(dst).decompress(), full)

    def test_sealed_handle_refuses_append(self, log_path):
        log = AppendableArchive.open(log_path)
        log.seal()
        with pytest.raises(ValueError, match="sealed"):
            log.append([1])

    def test_empty_archive_cannot_seal(self, tmp_path):
        log = AppendableArchive.create(tmp_path / "s.rpal", codec="gorilla")
        with pytest.raises(ValueError, match="no records"):
            log.seal()


class TestSaveFixes:
    def test_explicit_digits_zero_overrides_archive(self, tmp_path, full):
        """`digits=0` is a value, not "unspecified": it must win over the
        archive's recorded non-zero scaling."""
        src = tmp_path / "a.rpac"
        save(src, repro.compress(full, codec="gorilla"), digits=2)
        archive = open_archive(src)
        dst = tmp_path / "b.rpac"
        save(dst, archive, digits=0)
        assert open_archive(dst).digits == 0
        # and None still means "keep the recorded scaling"
        kept = tmp_path / "c.rpac"
        save(kept, archive)
        assert open_archive(kept).digits == 2

    def test_saving_corrupt_lazy_archive_refuses(self, tmp_path, full):
        """Re-serialising signs the frame with a fresh crc32; save must
        verify a lazy archive first instead of laundering corruption."""
        src = tmp_path / "a.rpac"
        save(src, repro.compress(full, codec="gorilla"), digits=2)
        blob = bytearray(src.read_bytes())
        blob[-1] ^= 0xFF
        src.write_bytes(bytes(blob))
        lazy = open_archive(src, lazy=True)  # structural open succeeds
        dst = tmp_path / "laundered.rpac"
        with pytest.raises(ValueError, match="checksum"):
            save(dst, lazy)
        assert not dst.exists()


def _record_ends(log_path, batches):
    """File offsets at which each record of ``log_path`` ends."""
    from repro.codecs.container import _scan_append

    records = _scan_append(log_path.read_bytes(), log_path).records
    assert len(records) == len(batches)
    return [start + frame_len for start, frame_len, _, _ in records]
