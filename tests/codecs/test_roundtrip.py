"""Serialization round-trips for every registered codec, plus error cases.

The contract under test: for any codec id in ``available_codecs()``,
``from_bytes(to_bytes(c))`` and ``repro.open(repro.save(...))`` reproduce a
compressed object with bit-exact ``decompress()``, identical ``access()``
answers, and identical ``size_bits()``.
"""

import struct
import zlib

import numpy as np
import pytest

import repro
from repro.baselines.base import Compressed
from repro.codecs import (
    available_codecs,
    codec_spec,
    get_codec,
    open_archive,
    register_codec,
    save,
    unregister_codec,
)
from repro.codecs.container import ARCHIVE_MAGIC
from repro.codecs.serialize import read_frame
from repro.core import NeaTS

LOSSLESS_IDS = {
    "neats", "leats", "sneats",
    "gorilla", "chimp", "chimp128", "tsxor", "dac", "leco", "alp",
    "xz", "zstd", "lz4", "snappy", "brotli",
}
LOSSY_IDS = {"neats_l", "pla", "aa"}
EXPECTED_IDS = LOSSLESS_IDS | LOSSY_IDS

DIGITS = 2
EPS = 8.0  # error bound handed to the lossy codecs


def _params(cid):
    spec = codec_spec(cid)
    params = {"digits": DIGITS} if spec.needs_digits else {}
    if spec.lossy:
        params["eps"] = EPS
    return params


@pytest.fixture(scope="module")
def series():
    """1500 points: spans multiple block-wise blocks and >1 ALP block."""
    rng = np.random.default_rng(99)
    y = 900 * np.sin(np.arange(1500) / 35) + np.cumsum(rng.integers(-4, 5, 1500))
    return y.astype(np.int64)


@pytest.fixture(scope="module")
def compressed_by_codec(series):
    """Compress once per codec and share across tests (NeaTS is not free)."""
    return {
        cid: repro.compress(series, codec=cid, **_params(cid))
        for cid in available_codecs()
    }


class TestRegistry:
    def test_lineup_complete(self):
        assert set(available_codecs()) == EXPECTED_IDS

    def test_capability_flags(self):
        assert codec_spec("neats").native_random_access
        assert codec_spec("dac").native_random_access
        assert not codec_spec("gorilla").native_random_access
        assert codec_spec("alp").needs_digits
        assert {c for c in available_codecs() if codec_spec(c).lossy} == LOSSY_IDS
        for cid in LOSSY_IDS:
            assert codec_spec(cid).required_params == ("eps",)
            assert codec_spec(cid).load_native is not None
        assert not any(codec_spec(c).lossy for c in LOSSLESS_IDS)

    def test_unknown_codec_raises(self):
        with pytest.raises(ValueError, match="unknown codec"):
            get_codec("gzip")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_codec("neats")(lambda: None)

    def test_invalid_id_raises(self):
        with pytest.raises(ValueError, match="invalid codec id"):
            register_codec("Not-An-Id")(lambda: None)

    def test_custom_codec_registers_and_roundtrips(self, series):
        from repro.baselines.gorilla import GorillaCompressor

        register_codec("tinygorilla", description="gorilla, small blocks")(
            lambda block_size=64: GorillaCompressor(block_size)
        )
        try:
            c = repro.compress(series, codec="tinygorilla")
            assert c.codec_id == "tinygorilla"
            d = Compressed.from_bytes(c.to_bytes())
            assert np.array_equal(d.decompress(), series)
        finally:
            unregister_codec("tinygorilla")

    def test_provenance_attached(self, compressed_by_codec):
        for cid, c in compressed_by_codec.items():
            assert c.codec_id == cid
            assert c.codec_params == _params(cid)

    def test_slotted_compressor_usable_as_factory(self, series):
        """get_codec wraps instead of monkey-patching the instance, so
        __slots__-bearing (or frozen) compressor classes work as factories."""
        from repro.baselines.gorilla import GorillaCompressor

        class _Slotted:
            __slots__ = ("block_size",)
            name = "slotted"

            def __init__(self, block_size=64):
                self.block_size = block_size

            def compress(self, values):
                return GorillaCompressor(self.block_size).compress(values)

        register_codec("slotted", description="slots test")(_Slotted)
        try:
            comp = get_codec("slotted", block_size=128)
            c = comp.compress(series)
            assert c.codec_id == "slotted"
            assert c.codec_params == {"block_size": 128}
            # attribute access delegates to the wrapped compressor
            assert comp.name == "slotted" and comp.block_size == 128
            assert np.array_equal(
                Compressed.from_bytes(c.to_bytes()).decompress(), series
            )
        finally:
            unregister_codec("slotted")

    def test_compress_many_stamps_provenance(self, series):
        """A batch is stamped like single calls, whether the factory batches
        (gorilla) or only defines ``compress`` (mapped over the series)."""
        from repro.baselines.gorilla import GorillaCompressor

        class _CompressOnly:
            def compress(self, values):
                return GorillaCompressor(64).compress(values)

        register_codec("compressonly", description="compress only")(_CompressOnly)
        try:
            pieces = [series[:700], series[700:], series[:1]]
            for cid, params in (("gorilla", {"block_size": 256}), ("compressonly", {})):
                codec = get_codec(cid, **params)
                batch = codec.compress_many(pieces)
                assert len(batch) == len(pieces)
                for piece, compressed in zip(pieces, batch):
                    assert compressed.codec_id == cid
                    assert compressed.codec_params == params
                    assert compressed.to_bytes() == codec.compress(piece).to_bytes()
        finally:
            unregister_codec("compressonly")


@pytest.mark.parametrize("cid", sorted(EXPECTED_IDS))
class TestFrameRoundTrip:
    def test_frame_is_self_describing(self, cid, compressed_by_codec):
        frame = read_frame(compressed_by_codec[cid].to_bytes())
        assert frame.codec_id == cid
        assert frame.n == 1500


# Bit-exactness is the *lossless* contract; the lossy equivalents (identical
# approximation, preserved eps) live in tests/codecs/test_lossy_codecs.py.
@pytest.mark.parametrize("cid", sorted(LOSSLESS_IDS))
class TestLosslessFrameRoundTrip:
    def test_preserves_queries_and_size(self, cid, series, compressed_by_codec):
        c = compressed_by_codec[cid]
        d = Compressed.from_bytes(c.to_bytes())
        assert np.array_equal(d.decompress(), series)
        assert d.size_bits() == c.size_bits()
        for k in (0, 1, len(series) // 2, len(series) - 1):
            assert d.access(k) == c.access(k) == series[k]
        lo, hi = 400, 1200
        assert np.array_equal(d.decompress_range(lo, hi), series[lo:hi])

    def test_archive_roundtrip(self, cid, series, compressed_by_codec, tmp_path):
        path = tmp_path / f"{cid}.rpac"
        nbytes = save(path, compressed_by_codec[cid], digits=DIGITS)
        assert path.stat().st_size == nbytes
        archive = open_archive(path)
        assert archive.codec_id == cid
        assert archive.digits == DIGITS
        assert np.array_equal(archive.decompress(), series)
        assert archive.size_bits() == compressed_by_codec[cid].size_bits()
        assert archive.access(1234) == series[1234]


class TestCompressionRatioIsO1:
    def test_no_decompress_needed(self, series):
        c = repro.compress(series, codec="gorilla")
        c.decompress = None  # would explode if the metric decompressed
        assert 0 < c.compression_ratio() < 2
        assert len(c) == len(series)

    def test_explicit_n_still_honoured(self, series):
        c = repro.compress(series, codec="gorilla")
        assert c.compression_ratio(n=2 * len(series)) == pytest.approx(
            c.compression_ratio() / 2
        )


class TestNativeLoadSetsN:
    """load_compressed must propagate frame.n so loaded objects stay O(1)."""

    def test_loaded_native_knows_n_without_decompressing(self, series):
        c = repro.compress(series, codec="gorilla")
        d = Compressed.from_bytes(c.to_bytes())
        calls = []
        d.decompress = lambda: calls.append(1)  # any decompress would be O(n)
        assert len(d) == len(series)
        assert 0 < d.compression_ratio() < 2
        assert calls == []

    def test_loader_that_skips_n_is_fixed_up(self, series):
        """A native loader that never sets _n must not force an O(n) len()."""
        calls = []

        class _Opaque(Compressed):
            payload_is_native = True

            def __init__(self, values):
                self._values = np.asarray(values, dtype=np.int64)

            def size_bits(self):
                return 64 * len(self._values)

            def decompress(self):
                calls.append(1)
                return self._values

            def access(self, k):
                return int(self._values[k])

            def to_payload(self):
                return self._values.tobytes()

        class _OpaqueCompressor:
            def compress(self, values):
                return _Opaque(values)

        register_codec(
            "opaque",
            load_native=lambda payload, params: _Opaque(
                np.frombuffer(payload, dtype=np.int64)
            ),
        )(_OpaqueCompressor)
        try:
            c = get_codec("opaque").compress(series)
            frame = c.to_bytes()
            calls.clear()  # the writer may decompress; the loader must not
            d = Compressed.from_bytes(frame)
            assert d._n == len(series)
            assert len(d) == len(series)
            assert d.compression_ratio() == 1.0
            assert calls == []  # neither len() nor the ratio decompressed
        finally:
            unregister_codec("opaque")

    def test_native_header_count_mismatch_raises(self, series):
        from repro.codecs.serialize import KIND_NATIVE, write_frame

        c = repro.compress(series, codec="gorilla")
        frame = write_frame("gorilla", {}, len(series) + 7, KIND_NATIVE,
                            c.to_payload())
        with pytest.raises(ValueError, match="header says"):
            Compressed.from_bytes(frame)

    def test_values_path_also_records_n(self, series):
        c = repro.compress(series, codec="dac")  # values-fallback codec
        d = Compressed.from_bytes(c.to_bytes())
        assert d._n == len(series)


class TestErrorCases:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpac"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a repro archive"):
            open_archive(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.rpac"
        path.write_bytes(ARCHIVE_MAGIC[:4])
        with pytest.raises(ValueError, match="not a repro archive"):
            open_archive(path)

    def test_truncated_payload(self, tmp_path, series):
        path = tmp_path / "trunc.rpac"
        save(path, repro.compress(series, codec="gorilla"))
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(ValueError, match="truncated"):
            open_archive(path)

    def test_corrupt_payload_fails_checksum(self, tmp_path, series):
        path = tmp_path / "flip.rpac"
        save(path, repro.compress(series, codec="zstd"))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload bit, keep lengths intact
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            open_archive(path)

    def test_unknown_codec_in_frame(self, tmp_path, series):
        from repro.codecs.serialize import KIND_VALUES, encode_values, write_frame

        frame = write_frame("nope", {}, len(series), KIND_VALUES,
                            encode_values(series))
        path = tmp_path / "nope.rpac"
        header = struct.pack("<8siIQ", ARCHIVE_MAGIC, 0, zlib.crc32(frame),
                             len(frame))
        path.write_bytes(header + frame)
        with pytest.raises(ValueError, match="unknown codec"):
            open_archive(path)

    def test_frame_value_count_mismatch(self, series):
        from repro.codecs.serialize import KIND_VALUES, encode_values, write_frame

        frame = write_frame("gorilla", {}, len(series) + 1, KIND_VALUES,
                            encode_values(series))
        with pytest.raises(ValueError, match="header says"):
            Compressed.from_bytes(frame)

    def test_to_bytes_without_provenance(self, series):
        from repro.baselines.gorilla import GorillaCompressor

        c = GorillaCompressor().compress(series)  # bypasses the registry
        with pytest.raises(ValueError, match="no codec id"):
            c.to_bytes()


class TestInputShape:
    """Every compressor checks its input before fitting: a 2-D array is
    refused with one message, not a numpy error from inside the fit."""

    @pytest.mark.parametrize("cid", available_codecs())
    def test_codec_refuses_2d(self, cid):
        with pytest.raises(ValueError, match="1-D"):
            repro.compress(np.ones((20, 10)), codec=cid, **_params(cid))

    @pytest.mark.parametrize(
        "make", [NeaTS, NeaTS.linear_only, NeaTS.with_model_selection],
        ids=["neats", "leats", "sneats"],
    )
    def test_core_api_refuses_2d(self, make):
        with pytest.raises(ValueError, match="1-D"):
            make().compress(np.ones((20, 10)))


class TestTieredStorePersistence:
    def test_snapshot_roundtrip(self, series):
        store = repro.TieredStore(seal_threshold=256, hot_codec="gorilla",
                                  cold_codec="leats")
        store.extend(series[:1000])
        store.consolidate()
        store.extend(series[1000:])
        restored = repro.TieredStore.from_bytes(store.to_bytes())
        assert np.array_equal(restored.decompress(), series)
        assert restored.tier_report() == store.tier_report()

    def test_snapshot_bit_rot_fails_loudly(self, series):
        store = repro.TieredStore(seal_threshold=256)
        store.extend(series)
        blob = bytearray(store.to_bytes())
        blob[len(blob) // 2] ^= 0x10
        with pytest.raises(ValueError, match="checksum"):
            repro.TieredStore.from_bytes(bytes(blob))

    def test_instance_codecs_cannot_persist(self, series):
        from repro.baselines.gorilla import GorillaCompressor

        store = repro.TieredStore(seal_threshold=256,
                                  hot_compressor=GorillaCompressor())
        store.extend(series)
        with pytest.raises(ValueError, match="codec ids"):
            store.to_bytes()


class TestStarImportDoesNotShadowOpen:
    def test_open_not_in_all(self):
        assert "open" not in repro.__all__
        assert repro.open is repro.open_archive  # attribute stays available


class TestLegacyFormat:
    def test_seed_cli_archive_still_opens(self, tmp_path, series):
        compressed = repro.NeaTS().compress(series)
        blob = (b"NTSF0001" + struct.pack("<i", 3)
                + compressed.storage.to_bytes())
        path = tmp_path / "old.neats"
        path.write_bytes(blob)
        archive = open_archive(path)
        assert archive.codec_id == "neats"
        assert archive.digits == 3
        assert np.array_equal(archive.decompress(), series)
        assert archive.access(42) == series[42]


class TestCliAnyCodec:
    def test_compress_info_access_decompress_gorilla(self, tmp_path, series):
        from repro.cli import main
        from repro.data import read_csv, write_csv

        csv_in = tmp_path / "in.csv"
        write_csv(csv_in, series, digits=DIGITS)
        archive = tmp_path / "out.rpac"
        csv_out = tmp_path / "out.csv"
        assert main(["compress", str(csv_in), str(archive),
                     "--codec", "gorilla", "--digits", str(DIGITS)]) == 0
        assert main(["info", str(archive)]) == 0
        assert main(["access", str(archive), "0", "749"]) == 0
        assert main(["decompress", str(archive), str(csv_out)]) == 0
        assert np.array_equal(read_csv(csv_out, DIGITS), series)

    def test_info_reports_codec(self, tmp_path, series, capsys):
        from repro.cli import main
        from repro.data import write_csv

        csv_in = tmp_path / "in.csv"
        write_csv(csv_in, series, digits=0)
        archive = tmp_path / "out.rpac"
        main(["compress", str(csv_in), str(archive), "--codec", "tsxor"])
        capsys.readouterr()
        main(["info", str(archive)])
        out = capsys.readouterr().out
        assert "tsxor" in out
