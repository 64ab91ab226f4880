"""The mmap-backed lazy open path and the crash-safe archive writer.

Contract (see :mod:`repro.codecs.container`): ``repro.open(path,
lazy=True)`` maps the file, parses the compressed object on first touch,
and verifies the crc on the first decoding operation; eager opens keep
validating everything up front.  ``save`` is atomic (temp + fsync +
rename).
"""

import struct
import zlib

import numpy as np
import pytest

import repro
from repro.codecs import open_archive, save
from repro.codecs.container import ARCHIVE_MAGIC
from repro.codecs import serialize
from repro.codecs.serialize import KIND_VALUES, encode_values, write_frame

DIGITS = 2


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(11)
    y = 300 * np.sin(np.arange(6000) / 55) + np.cumsum(rng.integers(-3, 4, 6000))
    return y.astype(np.int64)


@pytest.fixture(
    scope="module", params=["gorilla", "dac", "leco", "alp", "neats", "zstd"]
)
def archive_path(request, series, tmp_path_factory):
    cid = request.param
    params = {"digits": DIGITS} if cid == "alp" else {}
    path = tmp_path_factory.mktemp("lazy") / f"{cid}.rpac"
    save(path, repro.compress(series, codec=cid, **params), digits=DIGITS)
    return path


class TestLazyOpen:
    def test_answers_match_eager(self, archive_path, series):
        eager = open_archive(archive_path)
        lazy = open_archive(archive_path, lazy=True)
        assert lazy.codec_id == eager.codec_id
        assert lazy.digits == eager.digits == DIGITS
        assert len(lazy) == len(eager) == len(series)
        for k in (0, 17, len(series) - 1):
            assert lazy.access(k) == series[k]
        assert np.array_equal(lazy.decompress(), series)
        assert np.array_equal(
            lazy.decompress_range(100, 900), series[100:900]
        )
        assert lazy.size_bits() == eager.size_bits()

    def test_metadata_without_materialising(self, archive_path, series):
        lazy = open_archive(archive_path, lazy=True)
        # codec id, digits, and length come from the headers alone.
        assert lazy._compressed is None
        assert len(lazy) == len(series)
        assert lazy.codec_id
        assert lazy._compressed is None

    def test_values_cached_and_readonly(self, archive_path, series):
        lazy = open_archive(archive_path, lazy=True)
        first = lazy.values()
        assert first is lazy.values()  # cached: no second decompression
        assert not first.flags.writeable
        assert np.allclose(first, series / 10.0**DIGITS)
        # the eager archive caches too
        eager = open_archive(archive_path)
        assert eager.values() is eager.values()


class TestHeaderParsedOnce:
    def test_open_and_first_access_parse_the_frame_once(
        self, archive_path, series, monkeypatch
    ):
        """The frame header parsed at open is the one the first touch
        decodes from: ``read_frame`` runs once, not again on first touch."""
        calls = []
        real = serialize.read_frame

        def counting(data):
            calls.append(1)
            return real(data)

        monkeypatch.setattr(serialize, "read_frame", counting)
        with open_archive(archive_path, lazy=True) as lazy:
            assert lazy.access(17) == series[17]
            assert lazy.access(len(series) - 1) == series[-1]
        assert len(calls) == 1


class TestLazyCrcDeferred:
    def _corrupt(self, path, tmp_path):
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        bad = tmp_path / "bad.rpac"
        bad.write_bytes(bytes(blob))
        return bad

    def test_eager_raises_at_open(self, tmp_path, series):
        path = tmp_path / "a.rpac"
        save(path, repro.compress(series, codec="gorilla"))
        with pytest.raises(ValueError, match="checksum"):
            open_archive(self._corrupt(path, tmp_path))

    def test_lazy_raises_at_first_decode(self, tmp_path, series):
        path = tmp_path / "a.rpac"
        save(path, repro.compress(series, codec="gorilla"))
        lazy = open_archive(self._corrupt(path, tmp_path), lazy=True)
        with pytest.raises(ValueError, match="checksum"):
            lazy.access(0)

    def test_lazy_structural_errors_still_eager(self, tmp_path):
        bad = tmp_path / "bad.rpac"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a repro archive"):
            open_archive(bad, lazy=True)
        empty = tmp_path / "empty.rpac"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="not a repro archive"):
            open_archive(empty, lazy=True)


class TestBackwardCompatibility:
    def test_pre_native_rpac_archive_opens_lazy_and_eager(self, tmp_path, series):
        """An RPAC0001 file with a values-kind frame (as written before this
        change for DAC/LeCo/ALP) must open in both modes."""
        frame = write_frame("dac", {}, len(series), KIND_VALUES,
                            encode_values(series))
        blob = struct.pack("<8siIQ", ARCHIVE_MAGIC, DIGITS,
                           zlib.crc32(frame), len(frame)) + frame
        path = tmp_path / "old-dac.rpac"
        path.write_bytes(blob)
        for lazy in (False, True):
            archive = open_archive(path, lazy=lazy)
            assert archive.codec_id == "dac"
            assert archive.access(1234) == series[1234]
            assert np.array_equal(archive.decompress(), series)

    def test_legacy_ntsf_archive_opens_lazy(self, tmp_path, series):
        compressed = repro.NeaTS().compress(series)
        blob = (b"NTSF0001" + struct.pack("<i", 3)
                + compressed.storage.to_bytes())
        path = tmp_path / "old.neats"
        path.write_bytes(blob)
        archive = open_archive(path, lazy=True)
        assert archive.codec_id == "neats"
        assert archive.digits == 3
        assert archive.access(42) == series[42]


class TestAtomicSave:
    def test_no_tmp_file_left_and_size_reported(self, tmp_path, series):
        path = tmp_path / "a.rpac"
        nbytes = save(path, repro.compress(series, codec="gorilla"), DIGITS)
        assert path.stat().st_size == nbytes
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrite_is_all_or_nothing(self, tmp_path, series, monkeypatch):
        """A failing rewrite must leave the previous archive intact."""
        path = tmp_path / "a.rpac"
        save(path, repro.compress(series, codec="gorilla"), DIGITS)
        before = path.read_bytes()

        import repro.codecs.container as container

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(container.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated"):
            save(path, repro.compress(series[:100], codec="gorilla"), DIGITS)
        monkeypatch.undo()
        assert path.read_bytes() == before
        archive = open_archive(path)
        assert np.array_equal(archive.decompress(), series)
