"""Unit tests for timestamped series and the tiered ingest store."""

import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.core import TieredStore, TimestampedSeries
from repro.data import DATASETS

DATA = Path(__file__).parent / "data"


def _tamper_meta(blob: bytes, mutate) -> bytes:
    """Rewrite a TieredStore snapshot's JSON metadata, keeping the crc valid."""
    assert blob[:8] == b"RPTS0001"
    (meta_len,) = struct.unpack_from("<q", blob, 12)
    meta = json.loads(blob[20 : 20 + meta_len])
    rest = blob[20 + meta_len :]
    mutate(meta)
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = struct.pack("<q", len(meta_b)) + meta_b + rest
    return b"RPTS0001" + struct.pack("<I", zlib.crc32(body)) + body


@pytest.fixture
def ts_series(rng):
    stamps = np.cumsum(rng.integers(1, 50, 1200)).astype(np.int64)
    values = np.cumsum(rng.integers(-20, 21, 1200)).astype(np.int64)
    return stamps, values, TimestampedSeries(stamps, values)


class TestTimestampedSeries:
    def test_point_lookups(self, ts_series):
        stamps, values, series = ts_series
        for i in (0, 500, 1199):
            assert series.timestamp_at(i) == stamps[i]
            assert series.value_at(i) == values[i]

    def test_value_at_time_exact(self, ts_series):
        stamps, values, series = ts_series
        assert series.value_at_time(int(stamps[42])) == values[42]

    def test_value_at_time_missing_raises(self, ts_series):
        stamps, _, series = ts_series
        missing = int(stamps[0]) + 1
        if missing in set(stamps.tolist()):
            missing = int(stamps[-1]) + 10
        with pytest.raises(KeyError):
            series.value_at_time(missing)

    def test_value_at_or_before(self, ts_series):
        stamps, values, series = ts_series
        t = int(stamps[100]) + 0
        got_t, got_v = series.value_at_or_before(t)
        assert got_t == stamps[100] and got_v == values[100]
        # between two stamps -> the earlier one
        mid = int(stamps[100]) + 1
        if mid < int(stamps[101]):
            got_t, _ = series.value_at_or_before(mid)
            assert got_t == stamps[100]

    def test_before_first_raises(self, ts_series):
        stamps, _, series = ts_series
        with pytest.raises(KeyError):
            series.value_at_or_before(int(stamps[0]) - 1)

    def test_window_matches_slice(self, ts_series):
        stamps, values, series = ts_series
        t0, t1 = int(stamps[200]), int(stamps[400])
        got_t, got_v = series.window(t0, t1)
        assert np.array_equal(got_t, stamps[200:400])
        assert np.array_equal(got_v, values[200:400])

    def test_window_empty(self, ts_series):
        stamps, _, series = ts_series
        got_t, got_v = series.window(int(stamps[-1]) + 5, int(stamps[-1]) + 10)
        assert len(got_t) == 0 and len(got_v) == 0

    def test_full_decompress(self, ts_series):
        stamps, values, series = ts_series
        got_t, got_v = series.decompress()
        assert np.array_equal(got_t, stamps)
        assert np.array_equal(got_v, values)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            TimestampedSeries(np.array([2, 1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            TimestampedSeries(np.array([1, 1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            TimestampedSeries(np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError):
            TimestampedSeries(np.array([], dtype=np.int64),
                              np.array([], dtype=np.int64))

    def test_compresses(self, ts_series):
        _, _, series = ts_series
        assert series.compression_ratio() < 0.6


class TestTieredStore:
    def test_append_access_before_seal(self):
        store = TieredStore(seal_threshold=100)
        store.extend(range(50))
        assert len(store) == 50
        assert store.access(49) == 49
        assert store.tier_report()["hot_blocks"] == 0

    def test_sealing(self):
        store = TieredStore(seal_threshold=100)
        store.extend(range(250))
        report = store.tier_report()
        assert report["hot_blocks"] == 2
        assert report["buffer_values"] == 50
        assert store.access(150) == 150

    def test_consolidation_preserves_data(self, rng):
        y = np.cumsum(rng.integers(-5, 6, 1000)).astype(np.int64)
        store = TieredStore(seal_threshold=128)
        store.extend(y)
        store.consolidate()
        report = store.tier_report()
        assert report["hot_blocks"] == 0
        assert report["cold_values"] == (1000 // 128) * 128
        assert np.array_equal(store.decompress(), y)

    def test_consolidation_shrinks_footprint(self, rng):
        y = (1000 * np.sin(np.arange(3000) / 40)).astype(np.int64)
        store = TieredStore(seal_threshold=512)
        store.extend(y)
        before = store.size_bits()
        store.consolidate()
        assert store.size_bits() < before

    def test_queries_across_tiers(self, rng):
        y = np.cumsum(rng.integers(-9, 10, 900)).astype(np.int64)
        store = TieredStore(seal_threshold=200)
        store.extend(y[:500])
        store.consolidate()
        store.extend(y[500:])
        assert np.array_equal(store.decompress(), y)
        assert np.array_equal(store.range(350, 850), y[350:850])
        for k in (0, 399, 400, 880):
            assert store.access(k) == y[k]

    def test_repeated_consolidation_idempotent(self, rng):
        y = np.arange(600, dtype=np.int64)
        store = TieredStore(seal_threshold=100)
        store.extend(y)
        store.consolidate()
        store.consolidate()
        assert np.array_equal(store.decompress(), y)

    def test_access_out_of_range(self):
        store = TieredStore()
        store.append(1)
        with pytest.raises(IndexError):
            store.access(1)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            TieredStore(seal_threshold=0)

    @staticmethod
    def _pinned_store():
        y = np.cumsum((np.arange(300) * 37) % 101 - 50).astype(np.int64)
        store = TieredStore(seal_threshold=64, hot_codec="gorilla",
                            cold_codec="leats")
        store.extend(y[:200])
        store.consolidate()
        store.extend(y[200:])
        store.append(7)
        return y, store

    def test_snapshot_bytes_are_pinned(self):
        """Cold run, hot block and partial buffer serialise to a pinned
        digest: the write buffer's in-memory type never leaks into the
        RPTS0001 layout, the 45 buffered values are raw int64 (360 B, where
        their gorilla tail frame would take 445 B), and the cold run is a
        NeaTS102 frame."""
        y, store = self._pinned_store()
        report = store.tier_report()
        assert (report["cold_runs"], report["hot_blocks"]) == (1, 1)
        assert report["buffer_values"] == 45
        blob = store.to_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "d70435fcb8a79e17252ab5de340490c66049da163acdafe01398585f7d53795c"
        )
        again = TieredStore.from_bytes(memoryview(blob))
        assert again.to_bytes() == blob
        assert type(again.access(300)) is int and again.access(300) == 7
        assert np.array_equal(again.range(290, 301)[:-1], y[290:])

    def test_raw_tail_snapshot_still_loads(self):
        """The same store as written before tail frames (45 raw int64
        buffered values) loads with the same values and re-serialises as
        the current writer writes it."""
        legacy = (DATA / "rpts0001_raw_tail.bin").read_bytes()
        assert hashlib.sha256(legacy).hexdigest() == (
            "367c792b5f185ae76c33483e3606345c11de00e9e54b2ba54df22f19e9af8d04"
        )
        y, store = self._pinned_store()
        loaded = TieredStore.from_bytes(memoryview(legacy))
        assert loaded.tier_report() == store.tier_report()
        assert np.array_equal(loaded.decompress(), store.decompress())
        assert loaded.access(300) == 7
        assert loaded.to_bytes() == store.to_bytes() != legacy


class TestExtendBulkEquivalence:
    """extend() seals in bulk but must match the per-value append path exactly."""

    @pytest.mark.parametrize("total", [1, 63, 64, 65, 127, 128, 130, 333])
    def test_matches_per_value_append(self, rng, total):
        y = np.cumsum(rng.integers(-9, 10, total)).astype(np.int64)
        bulk = TieredStore(seal_threshold=64, hot_codec="gorilla",
                           cold_codec="leats")
        bulk.extend(y)
        serial = TieredStore(seal_threshold=64, hot_codec="gorilla",
                             cold_codec="leats")
        for v in y.tolist():
            serial.append(v)
        assert bulk.tier_report() == serial.tier_report()
        assert np.array_equal(bulk.decompress(), y)
        assert bulk.to_bytes() == serial.to_bytes()

    def test_split_extends_land_mid_buffer(self, rng):
        y = np.cumsum(rng.integers(-9, 10, 300)).astype(np.int64)
        split = TieredStore(seal_threshold=64, hot_codec="gorilla",
                            cold_codec="leats")
        split.extend(y[:37])   # partial buffer
        split.extend(y[37:150])  # tops up, seals, continues
        split.extend(y[150:])
        whole = TieredStore(seal_threshold=64, hot_codec="gorilla",
                            cold_codec="leats")
        whole.extend(y)
        assert split.tier_report() == whole.tier_report()
        assert split.to_bytes() == whole.to_bytes()

    def test_rejects_non_1d(self):
        store = TieredStore(seal_threshold=8)
        with pytest.raises(ValueError):
            store.extend(np.zeros((3, 3), dtype=np.int64))


class TestAdoptSealed:
    def test_adopt_preserves_order_and_data(self, rng):
        from repro.codecs import compress

        y = np.cumsum(rng.integers(-5, 6, 200)).astype(np.int64)
        store = TieredStore(seal_threshold=64, hot_codec="gorilla")
        store.extend(y[:30])  # stays in the buffer
        store.adopt_sealed(compress(y[30:94], codec="gorilla"))
        store.extend(y[94:])
        assert np.array_equal(store.decompress(), y)
        # pre-adopt buffer sealed (30), adopted block (64), sealed chunk (64)
        report = store.tier_report()
        assert report["hot_blocks"] == 3
        assert report["buffer_values"] == 42

    def test_adopt_wrong_codec_raises(self, rng):
        from repro.codecs import compress

        store = TieredStore(seal_threshold=64, hot_codec="gorilla")
        with pytest.raises(ValueError, match="hot tier"):
            store.adopt_sealed(compress(np.arange(64), codec="chimp"))

    def test_adopt_empty_block_raises(self):
        class _Empty:
            codec_id = "gorilla"

            def __len__(self):
                return 0

        store = TieredStore(seal_threshold=64, hot_codec="gorilla")
        with pytest.raises(ValueError, match="at least one"):
            store.adopt_sealed(_Empty())


class TestSnapshotMetadataValidation:
    """crc-valid snapshots with inconsistent metadata must raise, not decode."""

    @pytest.fixture
    def snapshot(self, rng):
        y = np.cumsum(rng.integers(-9, 10, 500)).astype(np.int64)
        store = TieredStore(seal_threshold=100, hot_codec="gorilla",
                            cold_codec="leats")
        store.extend(y[:300])
        store.consolidate()
        store.extend(y[300:])
        return store.to_bytes()

    def test_untampered_snapshot_loads(self, snapshot):
        TieredStore.from_bytes(_tamper_meta(snapshot, lambda meta: None))

    def test_frame_count_mismatch_raises(self, snapshot):
        blob = _tamper_meta(snapshot, lambda m: m["hot_counts"].pop())
        with pytest.raises(ValueError, match="hot frames but"):
            TieredStore.from_bytes(blob)

    def test_hot_count_disagreement_raises(self, snapshot):
        def bump(meta):
            meta["hot_counts"][0] += 1

        with pytest.raises(ValueError, match="metadata says"):
            TieredStore.from_bytes(_tamper_meta(snapshot, bump))

    def test_cold_count_disagreement_raises(self, snapshot):
        def bump(meta):
            meta["cold_counts"][0] += 1

        with pytest.raises(ValueError, match="metadata says"):
            TieredStore.from_bytes(_tamper_meta(snapshot, bump))

    def test_cold_count_without_cold_frame_raises(self, rng):
        store = TieredStore(seal_threshold=100, hot_codec="gorilla")
        store.extend(np.arange(150, dtype=np.int64))

        def fake_cold(meta):
            meta["cold_counts"] = [5]

        with pytest.raises(ValueError, match="cold frames but"):
            TieredStore.from_bytes(_tamper_meta(store.to_bytes(), fake_cold))

    def test_legacy_single_cold_run_snapshot_loads(self, snapshot):
        """Snapshots from before multi-run cold tiers (singular cold_count /
        cold_frame_len keys) must keep loading identically."""

        def to_legacy(meta):
            counts = meta.pop("cold_counts")
            lens = meta.pop("cold_frame_lens")
            meta["cold_count"] = counts[0] if counts else 0
            meta["cold_frame_len"] = lens[0] if lens else 0

        modern = TieredStore.from_bytes(snapshot)
        legacy = TieredStore.from_bytes(_tamper_meta(snapshot, to_legacy))
        assert np.array_equal(legacy.decompress(), modern.decompress())
        assert legacy.tier_report() == modern.tier_report()

    def test_negative_counts_raise(self, snapshot):
        def negate(meta):
            meta["buffer_len"] = -1

        with pytest.raises(ValueError, match="negative"):
            TieredStore.from_bytes(_tamper_meta(snapshot, negate))


class TestTailFrame:
    """A non-empty write buffer is persisted as one frame of the hot codec,
    or as raw int64 when that is smaller."""

    @staticmethod
    def _reloaded(y, threshold=64):
        store = TieredStore(seal_threshold=threshold, hot_codec="gorilla",
                            cold_codec="leats")
        store.extend(y)
        return store, TieredStore.from_bytes(memoryview(store.to_bytes()))

    @staticmethod
    def _snapshot_meta(blob: bytes) -> tuple[dict, int]:
        (meta_len,) = struct.unpack_from("<q", blob, 12)
        return json.loads(blob[20 : 20 + meta_len]), meta_len

    @pytest.mark.parametrize("count", [1, 3200])
    def test_tail_takes_the_smaller_of_frame_and_raw(self, count):
        y = DATASETS["CT"].generate(count)
        store, loaded = self._reloaded(y, threshold=4096)
        frame = len(get_codec("gorilla").compress(y).to_bytes())
        blob = store.to_bytes()
        meta, meta_len = self._snapshot_meta(blob)
        # Nothing but the tail follows the header of a store with no blocks.
        assert len(blob) - 20 - meta_len == min(8 * count, frame)
        assert ("tail_frame_len" in meta) == (count == 3200)
        assert np.array_equal(loaded.decompress(), y)
        assert loaded.to_bytes() == blob

    def test_reloaded_raw_tail_takes_an_append(self):
        y = DATASETS["CT"].generate(10)
        plain, loaded = self._reloaded(y, threshold=16)
        assert "tail_frame_len" not in self._snapshot_meta(plain.to_bytes())[0]
        for store in (plain, loaded):
            store.append(5)
            store.extend(np.arange(8))  # seals one 16-value block
        assert loaded.tier_report() == plain.tier_report()
        assert loaded.to_bytes() == plain.to_bytes()
        assert np.array_equal(
            loaded.decompress(), np.concatenate([y, [5], np.arange(8)])
        )

    @pytest.mark.parametrize("count", [1, 3200])
    def test_fsck_deep_is_clean_on_either_tail(self, tmp_path, count):
        from repro.cli import main
        from repro.store import SeriesDB

        root = tmp_path / "db"
        with SeriesDB(root) as db:
            db.ingest("ct", DATASETS["CT"].generate(count))
        manifest = json.loads((root / "MANIFEST.json").read_text())
        shard = (root / manifest["series"]["ct"]["shard"]).read_bytes()
        assert ("tail_frame_len" in self._snapshot_meta(shard)[0]) == (count == 3200)
        assert main(["fsck", str(root), "--deep"]) == 0

    def test_reads_decode_only_the_blocks_they_touch(self, rng):
        y = np.cumsum(rng.integers(-9, 10, 4095)).astype(np.int64)
        _, loaded = self._reloaded(y, threshold=4096)
        tail = loaded._tail
        assert loaded.tier_report()["buffer_values"] == 4095
        assert tail.blocks_decoded == 0  # counted from the frame header
        assert loaded.access(4000) == y[4000]
        assert tail.blocks_decoded == 1  # gorilla blocks hold 1000 values
        assert np.array_equal(loaded.range(10, 20), y[10:20])
        assert tail.blocks_decoded == 2
        assert loaded._tail is tail and len(loaded._buffer) == 0

    def test_first_mutation_decodes_into_the_buffer(self, rng):
        # 58 buffered values: long enough that the frame beats raw int64
        y = np.cumsum(rng.integers(-9, 10, 250)).astype(np.int64)
        for mutate in (
            lambda s: s.append(5),
            lambda s: s.extend(np.arange(3)),
            lambda s: s.adopt_sealed(s._hot_codec.compress(np.arange(64))),
        ):
            plain, loaded = self._reloaded(y)
            assert loaded._tail is not None
            for store in (plain, loaded):
                mutate(store)
            assert loaded._tail is None
            assert loaded.to_bytes() == plain.to_bytes()

    def test_empty_buffer_snapshot_is_unchanged(self):
        """No tail, no ``tail_frame_len``: the layout written before tail
        frames existed (its cold run now a NeaTS102 frame)."""
        y = np.cumsum((np.arange(256) * 37) % 101 - 50).astype(np.int64)
        store = TieredStore(seal_threshold=64, hot_codec="gorilla",
                            cold_codec="leats")
        store.extend(y[:128])
        store.consolidate()
        store.extend(y[128:])
        assert store.tier_report()["buffer_values"] == 0
        assert hashlib.sha256(store.to_bytes()).hexdigest() == (
            "68efbf18c5aa7ad69c0c56548ff398690d461edfc172c1fe87518ef7c5fbbfab"
        )

    def test_count_disagreement_raises(self):
        _, loaded = self._reloaded(np.arange(100, dtype=np.int64))

        def bump(meta):
            meta["buffer_len"] += 1

        with pytest.raises(ValueError, match="tail frame holds 36 values"):
            TieredStore.from_bytes(_tamper_meta(loaded.to_bytes(), bump))

    def test_foreign_codec_raises(self):
        store = TieredStore(seal_threshold=64, hot_codec="chimp")
        store.extend(np.arange(60, dtype=np.int64))  # a frame, not raw

        def to_gorilla(meta):
            meta["hot_codec"] = "gorilla"

        with pytest.raises(ValueError, match="tail frame was compressed with"):
            TieredStore.from_bytes(_tamper_meta(store.to_bytes(), to_gorilla))

    def test_lossy_hot_codec_refused(self):
        from repro.codecs import get_codec

        with pytest.raises(ValueError, match="hot tier cannot use lossy"):
            TieredStore(hot_codec="pla", hot_params={"eps": 1})
        with pytest.raises(ValueError, match="hot_codec must be a registry id"):
            TieredStore(hot_codec=get_codec("neats_l", eps=1))

    def test_seriesdb_names_the_shard_and_fsck_reports_it(self, tmp_path):
        from repro.analysis import fsck_seriesdb
        from repro.store import SeriesDB

        root = tmp_path / "db"
        with SeriesDB(root, seal_threshold=64) as db:
            db.ingest("cpu", np.arange(100))
        manifest = json.loads((root / "MANIFEST.json").read_text())
        entry = manifest["series"]["cpu"]

        def bump(meta):
            meta["buffer_len"] += 1

        blob = _tamper_meta((root / entry["shard"]).read_bytes(), bump)
        (root / entry["shard"]).write_bytes(blob)
        entry["crc32"] = zlib.crc32(blob)
        (root / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"shard {entry['shard']} of series"):
            SeriesDB.open(root).access("cpu", 0)
        report = fsck_seriesdb(root, deep=True)
        assert [p.code for p in report.problems] == ["FSK024"]
        assert "tail frame holds" in report.problems[0].render()
