"""XOR-family payloads whose block counts do not add up are refused at load.

A payload lists its value count ``n`` and then one count per block.  Two
crafted archives, each behind a valid crc, break that accounting:

* one extra block that holds zero values;
* a header ``n`` (payload and frame) of 2400 over 2500 encoded values.

Both must be refused on either kernel backend, and ``fsck --deep`` must
report them as frames that fail to decode (FSK010).
"""

import zlib

import numpy as np
import pytest

import repro
import repro.kernels as kernels
from repro.analysis import fsck_archive
from repro.baselines._native import INT64_PAIR, INT64_TRIPLE
from repro.codecs.container import ARCHIVE_MAGIC, _HEADER
from repro.codecs.serialize import KIND_NATIVE, write_frame

CODECS = ["gorilla", "chimp", "chimp128", "tsxor"]
N = 2500


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(7)
    return np.cumsum(rng.integers(-8, 9, N)).astype(np.int64)


def _craft(series, cid, flaw):
    """``(frame n, payload)`` for ``series`` under ``cid`` with one ``flaw``."""
    payload = bytes(repro.compress(series, codec=cid).to_payload())
    n, block_size, nblocks = INT64_TRIPLE.unpack_from(payload)
    blocks = payload[INT64_TRIPLE.size:]
    if flaw == "zero-count block":
        if cid == "tsxor":  # one raw value (0xFF header + 8 bytes)
            extra = INT64_PAIR.pack(0, 9) + b"\xff" + bytes(8)
        else:  # one 64-bit first value
            extra = INT64_TRIPLE.pack(0, 64, 1) + bytes(8)
        return n, INT64_TRIPLE.pack(n, block_size, nblocks + 1) + blocks + extra
    short = n - 100
    return short, INT64_TRIPLE.pack(short, block_size, nblocks) + blocks


def _save(path, cid, n, payload):
    frame = write_frame(cid, {}, n, KIND_NATIVE, payload)
    header = _HEADER.pack(ARCHIVE_MAGIC, 0, zlib.crc32(frame), len(frame))
    path.write_bytes(header + frame)
    return path


@pytest.mark.parametrize("flaw", ["zero-count block", "header n"])
@pytest.mark.parametrize("cid", CODECS)
class TestInconsistentBlockCounts:
    def test_refused_at_load_on_every_backend(self, tmp_path, series, cid, flaw):
        path = _save(tmp_path / f"{cid}.rpac", cid, *_craft(series, cid, flaw))
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                with pytest.raises(ValueError, match="corrupt .* payload"):
                    repro.open(path)

    def test_fsck_deep_reports_decode_failure(self, tmp_path, series, cid, flaw):
        path = _save(tmp_path / f"{cid}.rpac", cid, *_craft(series, cid, flaw))
        report = fsck_archive(path, deep=True)
        assert "FSK010" in {p.code for p in report.problems}
        assert not report.ok
