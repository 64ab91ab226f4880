"""NeaTS payloads must partition ``[0, n)`` consistently, or be refused.

A NeaTS payload records ``n``, the fragment starts ``S``, the correction
widths ``B``, the kinds ``K``, the per-kind parameters ``P`` and the
correction bits ``C``.  Each crafted payload below breaks one relation among
them behind a valid archive crc.  Served, it would decode wrong values or
fail later with a bare ``IndexError``; it must be refused when the payload is
loaded (by ``NeaTSStorage.from_bytes`` and by ``repro.open``, eager and
lazy), and ``fsck --deep`` must report it as a frame that fails to decode
(FSK010).

Loading adopts the frame's arrays as they are: the guard tests count that
no load or query path constructs an Elias-Fano sequence, a wavelet tree, a
packed array or a bitvector (those exist only for ``size_bits()``), and
that ``TieredStore.tier_report()`` does not ask for the size.
"""

import zlib
from collections import Counter

import numpy as np
import pytest

import repro
from repro.analysis import fsck_archive
from repro.baselines._native import INT64, INT64_PAIR, NEATS_HDR
from repro.bits import BitVector, EliasFano, PackedArray, WaveletTree
from repro.codecs.container import ARCHIVE_MAGIC, _HEADER
from repro.codecs.serialize import KIND_NATIVE, write_frame
from repro.core import NeaTS, NeaTSStorage, TieredStore
from repro.core.models import get_model
from repro.data import DATASETS

FLAWS = [
    "no fragments",
    "first start 3",
    "repeated start",
    "decreasing start",
    "start at n",
    "negative start",
    "wrapping start",
    "width off the bits",
    "width 64",
    "negative width",
    "kind out of range",
    "extra parameter",
    "negative parameter count",
    "header n + 10",
    "header n - 10",
    "header m",
    "words too short",
    "bits wrap int64",
]

# Flaws that break S, B or K only: their payloads get a correction bit total
# that agrees with the broken arrays, so the bit check cannot refuse them in
# place of the check each one targets.
_REBIT = {
    "first start 3", "repeated start", "decreasing start", "start at n",
    "negative start", "width 64", "negative width",
}


@pytest.fixture(scope="module")
def storage():
    return NeaTS().compress(DATASETS["CT"].generate(4096)).storage


def _fields(st: NeaTSStorage) -> dict:
    """The payload fields of ``st``, as the mutable values :func:`_pack` takes."""
    return {
        "n": st.n,
        "m": st.m,
        "shift": st.shift,
        "flag": 0,
        "names": list(st.model_names),
        "starts": list(st._starts_list),
        "widths": list(st._widths_list),
        "kinds": list(st._kinds_list),
        "params": [p.ravel().tolist() for p in st.P],
        "cbits": st._corrections.bit_length,
        "words": st._corrections.words.tolist(),
    }


def _pack(f: dict) -> bytes:
    """A payload in the ``NeaTSStorage.to_bytes`` layout, every field as given."""
    names = ",".join(f["names"]).encode()
    out = b"NeaTS101" + NEATS_HDR.pack(
        f["n"], f["m"], f["shift"], len(names), f["flag"]
    )
    out += names + INT64.pack(len(f["starts"]))
    out += np.array(f["starts"], dtype=np.int64).tobytes()
    out += np.array(f["widths"], dtype=np.int8).tobytes()
    out += np.array(f["kinds"], dtype=np.int8).tobytes()
    counts = f.get("counts") or [len(p) for p in f["params"]]
    for count, p in zip(counts, f["params"]):
        out += INT64.pack(count) + np.array(p, dtype=np.float64).tobytes()
    out += INT64_PAIR.pack(f["cbits"], len(f["words"]))
    return out + np.array(f["words"], dtype=np.uint64).tobytes()


def _rebit(f: dict) -> None:
    """Make the bit total and word count agree with the starts and widths."""
    bounds = f["starts"] + [f["n"]]
    f["cbits"] = sum(
        w * (b - a) for w, a, b in zip(f["widths"], bounds, bounds[1:])
    )
    f["words"] += [0] * max(0, -(-f["cbits"] // 64) - len(f["words"]))


def _break(flaw: str, f: dict) -> None:
    """Break one relation of the payload fields ``f``, in place."""
    starts, widths = f["starts"], f["widths"]
    if flaw == "no fragments":
        f.update(n=5, m=0, names=[], starts=[], widths=[], kinds=[],
                 params=[], cbits=0, words=[])
    elif flaw == "first start 3":
        starts[0] = 3
    elif flaw == "repeated start":
        starts[2] = starts[1]
    elif flaw == "decreasing start":
        starts[1], starts[2] = starts[2], starts[1]
    elif flaw == "start at n":
        starts[-1] = f["n"]
    elif flaw == "negative start":
        starts[1] = -5
    elif flaw == "wrapping start":
        # Every difference is >= 1 once int64 wraps; only the sign is wrong.
        f.update(n=2**56 + 10, m=5, names=["linear"],
                 starts=[0, 2**56, 1 - 2**63, 0, 5], widths=[0] * 5,
                 kinds=[0] * 5, params=[[0.0] * 10], cbits=0, words=[])
    elif flaw == "width off the bits":
        widths[0] += 1
    elif flaw == "width 64":
        widths[0] = 64
    elif flaw == "negative width":
        widths[0] = -1
    elif flaw == "kind out of range":
        # The parameters move with the fragment, so the counts still agree.
        kind = f["kinds"][0]
        f["kinds"][0] = len(f["names"])
        del f["params"][kind][-get_model(f["names"][kind]).n_params:]
    elif flaw == "extra parameter":
        f["params"][0].append(0.0)
    elif flaw == "negative parameter count":
        # Read as "the rest of the buffer", it would swallow C and its header.
        f["counts"] = [-1] + [len(p) for p in f["params"][1:]]
    elif flaw == "header n + 10":
        f["n"] += 10
    elif flaw == "header n - 10":
        f["n"] -= 10
    elif flaw == "header m":
        f["m"] += 1
    elif flaw == "words too short":
        f["words"].pop()
    elif flaw == "bits wrap int64":
        # 63 bits × 2^62 values wraps to the (negative) header total.
        f.update(n=2**62, m=1, names=["linear"], starts=[0], widths=[63],
                 kinds=[0], params=[[0.0, 0.0]], cbits=-(2**62), words=[])
    else:
        raise AssertionError(f"unknown flaw {flaw!r}")
    if flaw in _REBIT:
        _rebit(f)


def _crafted(st: NeaTSStorage, flaw: str) -> tuple[int, bytes]:
    f = _fields(st)
    _break(flaw, f)
    return f["n"], _pack(f)


def _save(path, n: int, payload: bytes):
    """An archive around ``payload`` whose frame n and crc are consistent."""
    frame = write_frame("neats", {}, n, KIND_NATIVE, payload)
    header = _HEADER.pack(ARCHIVE_MAGIC, 0, zlib.crc32(frame), len(frame))
    path.write_bytes(header + frame)
    return path


def test_fields_pack_back_to_the_payload(storage):
    f = _fields(storage)
    assert _pack(f) == storage.to_bytes()
    # Preconditions of the flaws: moving n moves the last fragment's bits,
    # one word fewer cannot hold the bits, and widths[0] + 1 is a width.
    assert f["widths"][-1] > 0
    assert 64 * (len(f["words"]) - 1) < f["cbits"]
    assert f["widths"][0] < 63
    assert len(f["starts"]) > 3


@pytest.mark.parametrize("flaw", FLAWS)
class TestCorruptLayouts:
    def test_refused_by_from_bytes(self, storage, flaw):
        _, payload = _crafted(storage, flaw)
        with pytest.raises(ValueError, match="corrupt NeaTS layout"):
            NeaTSStorage.from_bytes(payload)

    def test_refused_by_eager_open(self, tmp_path, storage, flaw):
        path = _save(tmp_path / "bad.rpac", *_crafted(storage, flaw))
        with pytest.raises(ValueError, match="corrupt NeaTS layout"):
            repro.open(path)

    def test_refused_on_first_lazy_touch(self, tmp_path, storage, flaw):
        path = _save(tmp_path / "bad.rpac", *_crafted(storage, flaw))
        with repro.open(path, lazy=True) as archive:
            with pytest.raises(ValueError, match="corrupt NeaTS layout"):
                archive.access(0)

    def test_fsck_deep_reports_decode_failure(self, tmp_path, storage, flaw):
        path = _save(tmp_path / "bad.rpac", *_crafted(storage, flaw))
        report = fsck_archive(path, deep=True)
        assert "FSK010" in {p.code for p in report.problems}
        assert not report.ok


@pytest.fixture
def builds(monkeypatch):
    """Constructions of the succinct structures, counted by class name."""
    counts: Counter = Counter()
    for cls in (BitVector, EliasFano, PackedArray, WaveletTree):
        def counting(self, *args, _name=cls.__name__, _init=cls.__init__, **kw):
            counts[_name] += 1
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestLoadBuildsNoSuccinctStructure:
    def test_from_bytes_access_and_range(self, storage, builds):
        loaded = NeaTSStorage.from_bytes(storage.to_bytes())
        assert loaded.access(1234) == storage.access(1234)
        assert np.array_equal(
            loaded.decompress_range(100, 900), storage.decompress_range(100, 900)
        )
        assert sum(builds.values()) == 0, dict(builds)

    def test_lazy_open_to_first_answer(self, tmp_path, storage, builds):
        path = _save(tmp_path / "ok.rpac", storage.n, storage.to_bytes())
        with repro.open(path, lazy=True) as archive:
            assert archive.access(1234) == storage.access(1234)
        assert sum(builds.values()) == 0, dict(builds)

    def test_tier_report_does_not_size_the_store(self, builds):
        store = TieredStore(seal_threshold=256, hot_codec="gorilla",
                            cold_codec="neats")
        store.extend(DATASETS["CT"].generate(1024))
        store.consolidate()
        builds.clear()
        report = store.tier_report()
        assert report["cold_runs"] == 1
        assert "total_bits" not in report
        assert sum(builds.values()) == 0, dict(builds)
