"""Error-bounded codecs as first-class registry citizens.

The contract under test (the lossy side of the codec API):

* ``neats_l``, ``pla``, ``aa`` are registered with ``lossy=True`` and an
  explicitly required ``eps`` construction param;
* every lossy frame survives ``to_bytes -> load_compressed`` byte-identically
  and reproduces the *exact* approximation — no compressor call on load;
* a lossy archive keeps its ε guarantee through ``save -> open`` in both
  eager and ``lazy=True`` (mmap) modes;
* ``KIND_VALUES`` frames for lossy ids are rejected (decoded values are not
  the compressor's input, so the fallback cannot reproduce the object);
* SeriesDB accepts a lossy cold tier only behind ``allow_lossy=True`` and
  never a lossy hot tier.
"""

import mmap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.aa import AaCompressor
from repro.baselines.base import Compressed, LossyCompressed
from repro.baselines.pla import PlaCompressor
from repro.codecs import codec_spec, get_codec, register_codec, unregister_codec
from repro.codecs.serialize import (
    KIND_NATIVE,
    KIND_VALUES,
    encode_values,
    read_frame,
    write_frame,
)
from repro.core.lossy import NeaTSLossy
from repro.store import SeriesDB

LOSSY_IDS = ("aa", "neats_l", "pla")
COMPRESSOR_CLS = {"aa": AaCompressor, "neats_l": NeaTSLossy, "pla": PlaCompressor}
EPS = 6.0

int_series = st.lists(
    st.integers(-(2**32), 2**32), min_size=1, max_size=120
).map(lambda xs: np.array(xs, dtype=np.int64))

eps_values = st.floats(
    min_value=0.5, max_value=1e6, allow_nan=False, allow_infinity=False
)


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(17)
    y = 600 * np.sin(np.arange(2500) / 60) + np.cumsum(rng.integers(-3, 4, 2500))
    return y.astype(np.int64)


@pytest.fixture(scope="module")
def compressed(series):
    return {
        cid: repro.compress(series, codec=cid, eps=EPS) for cid in LOSSY_IDS
    }


@pytest.mark.parametrize("cid", LOSSY_IDS)
class TestRegistration:
    def test_registered_lossy_with_required_eps(self, cid):
        spec = codec_spec(cid)
        assert spec.lossy
        assert spec.required_params == ("eps",)
        assert spec.load_native is not None

    def test_construction_without_eps_raises(self, cid):
        with pytest.raises(TypeError, match="requires explicit construction"):
            get_codec(cid)

    @pytest.mark.parametrize("eps", [0, -3, float("nan"), float("inf")])
    def test_bad_eps_rejected_at_construction(self, cid, eps):
        with pytest.raises(ValueError, match="positive finite error bound"):
            get_codec(cid, eps=eps)

    def test_compress_records_provenance(self, cid, compressed):
        c = compressed[cid]
        assert c.codec_id == cid
        assert c.codec_params == {"eps": EPS}
        assert isinstance(c, LossyCompressed)
        assert c.eps == EPS


@pytest.mark.parametrize("cid", LOSSY_IDS)
class TestFrameRoundTrip:
    def test_frame_is_native_with_eps_in_params(self, cid, compressed):
        frame = read_frame(compressed[cid].to_bytes())
        assert frame.kind == KIND_NATIVE
        assert frame.params["eps"] == EPS
        assert frame.params["segments"] == compressed[cid].num_segments

    def test_byte_identical_roundtrip(self, cid, compressed):
        frame = compressed[cid].to_bytes()
        loaded = Compressed.from_bytes(frame)
        assert loaded.to_bytes() == frame

    def test_identical_approximation_without_compress(
        self, cid, series, compressed, monkeypatch
    ):
        """Loading must reproduce the exact approximation, never re-fit."""
        frame = compressed[cid].to_bytes()

        def boom(self, values):
            raise AssertionError(f"{cid}: load invoked compress()")

        monkeypatch.setattr(COMPRESSOR_CLS[cid], "compress", boom)
        loaded = Compressed.from_bytes(frame)
        assert np.array_equal(loaded.decompress(), compressed[cid].decompress())
        assert loaded.eps == EPS
        assert loaded.max_error(series) <= EPS + 1e-9
        for k in (0, len(series) // 2, len(series) - 1):
            assert loaded.access(k) == pytest.approx(compressed[cid].access(k))
        assert np.array_equal(
            loaded.decompress_range(100, 900),
            compressed[cid].decompress()[100:900],
        )

    def test_values_fallback_frame_rejected(self, cid, series):
        frame = write_frame(
            cid, {"eps": EPS}, len(series), KIND_VALUES, encode_values(series)
        )
        with pytest.raises(ValueError, match="lossy"):
            Compressed.from_bytes(frame)

    def test_header_eps_mismatch_rejected(self, cid, compressed):
        frame = read_frame(compressed[cid].to_bytes())
        rewrapped = write_frame(
            cid, {**frame.params, "eps": EPS + 1}, frame.n, KIND_NATIVE,
            bytes(frame.payload),
        )
        with pytest.raises(ValueError, match="eps"):
            Compressed.from_bytes(rewrapped)

    def test_header_segment_count_mismatch_rejected(self, cid, compressed):
        frame = read_frame(compressed[cid].to_bytes())
        rewrapped = write_frame(
            cid, {**frame.params, "segments": 10**6}, frame.n, KIND_NATIVE,
            bytes(frame.payload),
        )
        with pytest.raises(ValueError, match="segments"):
            Compressed.from_bytes(rewrapped)

    def test_truncated_payload_rejected(self, cid, compressed):
        frame = read_frame(compressed[cid].to_bytes())
        chopped = bytes(frame.payload)[:-5]
        rewrapped = write_frame(cid, frame.params, frame.n, KIND_NATIVE, chopped)
        with pytest.raises(ValueError, match="corrupt|truncated"):
            Compressed.from_bytes(rewrapped)


@pytest.mark.parametrize("cid", ["aa", "pla"])  # neats_l is slow; covered above
@given(values=int_series, eps=eps_values)
@settings(max_examples=15, deadline=None)
def test_prop_lossy_frame_survives_byte_identically(cid, values, eps):
    """Property: any lossy frame reloads byte-identically, bound preserved."""
    c = repro.compress(values, codec=cid, eps=eps)
    frame = c.to_bytes()
    loaded = Compressed.from_bytes(frame)
    assert loaded.to_bytes() == frame
    assert np.array_equal(loaded.decompress(), c.decompress())
    assert loaded.max_error(values) <= eps * (1 + 1e-9) + 1e-6


@given(values=int_series, eps=eps_values)
@settings(max_examples=8, deadline=None)
def test_prop_neats_l_frame_survives_byte_identically(values, eps):
    c = repro.compress(values, codec="neats_l", eps=eps)
    frame = c.to_bytes()
    loaded = Compressed.from_bytes(frame)
    assert loaded.to_bytes() == frame
    assert np.array_equal(loaded.decompress(), c.decompress())


@pytest.mark.parametrize("cid", LOSSY_IDS)
class TestArchives:
    def test_eager_and_lazy_open_preserve_guarantee(
        self, cid, series, compressed, tmp_path, monkeypatch
    ):
        path = tmp_path / f"{cid}.rpac"
        repro.save(path, compressed[cid], digits=2)

        def boom(self, values):
            raise AssertionError(f"{cid}: open invoked compress()")

        monkeypatch.setattr(COMPRESSOR_CLS[cid], "compress", boom)
        for lazy in (False, True):
            archive = repro.open(path, lazy=lazy)
            assert archive.codec_id == cid
            assert archive.params["eps"] == EPS
            assert len(archive) == len(series)
            assert np.array_equal(
                archive.decompress(), compressed[cid].decompress()
            )
            assert archive.compressed.max_error(series) <= EPS + 1e-9

    def test_lazy_open_parses_off_the_map(self, cid, series, compressed, tmp_path):
        """The lazy path hands the loader a memoryview over the mmap."""
        frame = compressed[cid].to_bytes()
        path = tmp_path / f"{cid}.bin"
        prefix = b"y" * 11  # unaligned offsets inside the map
        path.write_bytes(prefix + frame)
        with open(path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        loaded = Compressed.from_bytes(memoryview(mapped)[len(prefix):])
        assert loaded.to_bytes() == frame
        assert loaded.max_error(series) <= EPS + 1e-9

    def test_archive_values_applies_digits(self, cid, compressed, tmp_path):
        path = tmp_path / f"{cid}-digits.rpac"
        repro.save(path, compressed[cid], digits=2)
        archive = repro.open(path)
        assert np.allclose(
            archive.values(), compressed[cid].decompress() / 100.0
        )


class TestLossySerialisationGuards:
    def test_to_bytes_without_provenance_raises(self, series):
        c = PlaCompressor(EPS).compress(series)  # bypasses the registry
        with pytest.raises(ValueError, match="no codec id"):
            c.to_bytes()

    def test_to_bytes_without_native_loader_raises(self, series):
        """A lossy registration without a native loader cannot serialise —
        it must fail loudly instead of writing an unloadable values frame."""
        register_codec("pla_noload", lossy=True, required_params=("eps",))(
            PlaCompressor
        )
        try:
            c = get_codec("pla_noload", eps=EPS).compress(series)
            with pytest.raises(ValueError, match="native payload"):
                c.to_bytes()
        finally:
            unregister_codec("pla_noload")


class TestSeriesDbLossyTiers:
    def test_lossy_cold_requires_opt_in(self, tmp_path):
        with pytest.raises(ValueError, match="allow_lossy"):
            SeriesDB(tmp_path / "db", cold_codec="neats_l",
                     cold_params={"eps": 4.0})

    def test_lossy_hot_always_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="hot tier"):
            SeriesDB(tmp_path / "db", hot_codec="pla",
                     hot_params={"eps": 4.0}, allow_lossy=True)

    def test_opted_in_lossy_cold_roundtrips_within_eps(self, tmp_path, series):
        eps = 10.0
        root = tmp_path / "db"
        db = SeriesDB(root, seal_threshold=256, cold_codec="pla",
                      cold_params={"eps": eps}, allow_lossy=True)
        db.ingest("s", series)
        db.flush()
        db.compact()
        for reopened in (SeriesDB.open(root), SeriesDB.open(root, lazy=True)):
            got = reopened.range("s", 0, len(series))
            assert np.max(np.abs(got - series)) <= eps + 1e-9
            assert abs(reopened.access("s", 123) - series[123]) <= eps + 1e-9

    def test_manifest_records_opt_in(self, tmp_path):
        root = tmp_path / "db"
        SeriesDB(root, cold_codec="aa", cold_params={"eps": 2.0},
                 allow_lossy=True)
        reopened = SeriesDB.open(root)
        assert reopened.info()["allow_lossy"] is True
        assert reopened.info()["cold_codec"] == "aa"

    def test_invalid_tier_params_fail_at_creation(self, tmp_path):
        """A bad eps must fail before the manifest persists, not at first
        ingest (which would leave a permanently broken database behind)."""
        root = tmp_path / "db"
        with pytest.raises(ValueError, match="cold tier configuration"):
            SeriesDB(root, cold_codec="pla", cold_params={"eps": -1},
                     allow_lossy=True)
        with pytest.raises(ValueError, match="cold tier configuration"):
            SeriesDB(root, cold_codec="neats_l", allow_lossy=True)  # no eps
        with pytest.raises(ValueError, match="hot tier configuration"):
            SeriesDB(root, hot_params={"no_such_param": 1})
        assert not (root / "MANIFEST.json").exists()

    def test_repeated_compaction_never_compounds_error(self, tmp_path):
        """ingest -> compact -> ingest -> compact: every consolidation
        compresses exact values, so the guarantee holds against the
        originals — never eps-of-an-eps."""
        rng = np.random.default_rng(31)
        eps = 2.0
        root = tmp_path / "db"
        db = SeriesDB(root, seal_threshold=128, cold_codec="pla",
                      cold_params={"eps": eps}, allow_lossy=True)
        full = np.empty(0, dtype=np.int64)
        for _ in range(3):
            chunk = np.cumsum(rng.integers(-9, 10, 400)).astype(np.int64)
            full = np.concatenate([full, chunk])
            db.ingest("s", chunk)
            db.flush()
            db.compact()
        store = db.store("s")
        assert store.tier_report()["cold_runs"] >= 2  # runs accumulated
        got = db.range("s", 0, len(full))
        assert np.max(np.abs(got - full)) <= eps + 1e-9
        reopened = SeriesDB.open(root)
        got = reopened.range("s", 0, len(full))
        assert np.max(np.abs(got - full)) <= eps + 1e-9


class TestTieredStoreLossyCold:
    def test_lossless_cold_still_merges_to_one_run(self, series):
        store = repro.TieredStore(seal_threshold=256, hot_codec="gorilla",
                                  cold_codec="leats")
        store.extend(series[:1000])
        store.consolidate()
        store.extend(series[1000:2000])
        store.consolidate()
        assert store.tier_report()["cold_runs"] == 1
        assert np.array_equal(store.decompress(), series[:2000])

    def test_lossy_cold_appends_runs_and_keeps_bound(self, series):
        eps = 5.0
        store = repro.TieredStore(seal_threshold=256, hot_codec="gorilla",
                                  cold_codec="neats_l",
                                  cold_params={"eps": eps})
        store.extend(series[:1024])
        store.consolidate()
        store.extend(series[1024:2048])
        store.consolidate()
        assert store.tier_report()["cold_runs"] == 2
        got = store.range(0, 2048)
        assert np.max(np.abs(got - series[:2048])) <= eps + 1e-9
        restored = repro.TieredStore.from_bytes(store.to_bytes())
        assert restored.tier_report() == store.tier_report()
        assert np.max(np.abs(restored.decompress() - series[:2048])) <= eps + 1e-9
        assert abs(restored.access(1500) - series[1500]) <= eps + 1e-9

    def test_instance_cold_codec_refused(self):
        """Lossiness is read off the registry id, so a pre-built instance
        (registry proxy or bare compressor) is refused at construction."""
        for codec in (get_codec("pla", eps=5.0), PlaCompressor(5.0)):
            with pytest.raises(ValueError, match="cold_codec must be a registry id"):
                repro.TieredStore(seal_threshold=256, hot_codec="gorilla",
                                  cold_codec=codec)
