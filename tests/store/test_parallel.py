"""Tests for repro.store.parallel: pooled compression == serial compression."""

import numpy as np
import pytest

import repro
from repro.store import compress_many, compress_many_frames, default_workers


@pytest.fixture(scope="module")
def fleet():
    rng = np.random.default_rng(21)
    out = {}
    for i in range(5):
        y = 500 * np.sin(np.arange(4000) / (25 + 5 * i))
        out[f"s{i}"] = (y + np.cumsum(rng.integers(-3, 4, 4000))).astype(np.int64)
    return out


class TestCompressManyFrames:
    def test_byte_identical_to_serial(self, fleet):
        frames = compress_many_frames(fleet, codec="gorilla", workers=2)
        for sid, values in fleet.items():
            assert frames[sid] == repro.compress(values, codec="gorilla").to_bytes()

    def test_preserves_input_order(self, fleet):
        reordered = dict(reversed(list(fleet.items())))
        frames = compress_many_frames(reordered, codec="gorilla", workers=2)
        assert list(frames) == list(reordered)

    def test_serial_path_matches_pooled(self, fleet):
        pooled = compress_many_frames(fleet, codec="gorilla", workers=2)
        serial = compress_many_frames(fleet, codec="gorilla", workers=1)
        assert pooled == serial

    def test_empty_map(self):
        assert compress_many_frames({}, codec="gorilla", workers=2) == {}

    def test_params_forwarded(self, fleet):
        frames = compress_many_frames(fleet, codec="gorilla", workers=2,
                                      block_size=128)
        for sid, values in fleet.items():
            expected = repro.compress(values, codec="gorilla", block_size=128)
            assert frames[sid] == expected.to_bytes()

    def test_worker_error_propagates(self):
        with pytest.raises(ValueError):
            compress_many_frames({"bad": np.empty(0, dtype=np.int64)},
                                 codec="gorilla", workers=2)


class TestCompressMany:
    def test_objects_decompress_and_carry_provenance(self, fleet):
        out = compress_many(fleet, codec="gorilla", workers=2)
        for sid, values in fleet.items():
            c = out[sid]
            assert c.codec_id == "gorilla"
            assert np.array_equal(c.decompress(), values)
            assert c.access(1234) == values[1234]
            assert len(c) == len(values)

    def test_dac_pooled_matches_serial(self, fleet):
        # Pooled workers return dac's native frames; parsed in the parent
        # they must decode and size exactly as a serial compression does.
        small = {sid: v[:800] for sid, v in list(fleet.items())[:2]}
        out = compress_many(small, codec="dac", workers=2)
        for sid, values in small.items():
            serial = repro.compress(values, codec="dac")
            assert np.array_equal(out[sid].decompress(), values)
            assert out[sid].size_bits() == serial.size_bits()

    def test_neats_pooled_matches_serial(self, fleet):
        small = {sid: v[:1200] for sid, v in list(fleet.items())[:2]}
        out = compress_many(small, codec="leats", workers=2)
        for sid, values in small.items():
            serial = repro.compress(values, codec="leats")
            assert out[sid].to_bytes() == serial.to_bytes()
            assert np.array_equal(out[sid].decompress(), values)


def test_default_workers_positive():
    assert default_workers() >= 1
