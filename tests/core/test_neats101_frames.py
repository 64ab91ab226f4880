"""``NeaTS101`` frames, written before ``NeaTS102``, still load.

``data/neats101`` holds files the ``NeaTS101`` writer produced: an archive
(IT, 4,096 values, two decimal digits, models linear/quadratic/radical) and
four codec frames of 1,024 values.  Each loads eagerly and lazily, decodes
to its generator's values, answers ``access`` the same, and re-serialises as
``NeaTS102`` with the same partition; ``size_bits()`` is then the size of
that ``NeaTS102`` frame.  The files themselves must never change.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import fsck_archive
from repro.baselines.base import Compressed
from repro.core import NeaTSStorage
from repro.data import DATASETS

DATA = Path(__file__).parent / "data" / "neats101"

DIGESTS = {
    "it-4096.rpac": "90c09384e0870c8d3b238cbd7a18bd214da136e0f389cdfbc98be5399dea17ee",
    "leats-CT-1024.frame": "dfd9032ec6a7fd460cbaa672aa6e93c9e2260b7288b34c7aad3f409079bacbce",
    "neats_lqr-CT-1024.frame": "3bf454112278c883d6870266fd04c9b65086666ef7d4725c12c38006e9259af1",
    "neats_lqr-DU-1024.frame": "4098df9e86a315cf7116c73fb60007a968dd719abd7deeecb899f3f826ea7609",
    "neats_lqr-IT-1024.frame": "b2f838233c213b3a3fa12165ae81b38dd47f69dbbb11ed8d92ce907f55e1dd20",
}
FRAMES = sorted(name for name in DIGESTS if name.endswith(".frame"))


def _values(name: str) -> np.ndarray:
    """The generator values a fixture was written from."""
    if name == "it-4096.rpac":
        return DATASETS["IT"].generate(4096)
    return DATASETS[name.split("-")[1]].generate(1024)


def _layout(st: NeaTSStorage) -> tuple:
    """The partition and its arrays: what a re-serialisation must keep."""
    return (
        st.n, st.m, st.shift, st._starts_list, st._widths_list,
        st.model_names, st._kinds_list,
        [p.tolist() for p in st.P], st._cbits,
    )


def _assert_v102_rewrite(st: NeaTSStorage, values: np.ndarray) -> None:
    frame = st.to_bytes()
    assert frame[:8] == b"NeaTS102"
    assert st.size_bits() == 8 * len(frame)
    again = NeaTSStorage.from_bytes(frame)
    assert _layout(again) == _layout(st)
    assert np.array_equal(again.decompress(), values)
    assert again.to_bytes() == frame


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_fixture_bytes_are_unchanged(name):
    data = (DATA / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]
    assert b"NeaTS101" in data


@pytest.mark.parametrize("name", FRAMES)
def test_frame_loads_and_rewrites_as_neats102(name):
    values = _values(name)
    loaded = Compressed.from_bytes((DATA / name).read_bytes())
    assert np.array_equal(loaded.decompress(), values)
    for k in range(0, len(values), 37):
        assert loaded.access(k) == values[k]
    assert np.array_equal(loaded.decompress_range(100, 900), values[100:900])
    assert loaded.size_bits() == 8 * len(loaded.to_payload())
    _assert_v102_rewrite(loaded.storage, values)


@pytest.mark.parametrize("lazy", [False, True])
def test_archive_loads_and_rewrites_as_neats102(lazy):
    values = _values("it-4096.rpac")
    with repro.open(DATA / "it-4096.rpac", lazy=lazy) as archive:
        for k in (0, 123, 2048, 4095):
            assert archive.access(k) == values[k]
        assert np.array_equal(archive.decompress(), values)
        storage = archive.compressed.storage
        assert storage.model_names == ["linear", "radical", "quadratic"]
        _assert_v102_rewrite(storage, values)


def test_archive_resaved_holds_a_neats102_frame(tmp_path):
    values = _values("it-4096.rpac")
    with repro.open(DATA / "it-4096.rpac") as archive:
        repro.save(tmp_path / "v2.rpac", archive.compressed, digits=archive.digits)
    data = (tmp_path / "v2.rpac").read_bytes()
    assert b"NeaTS102" in data and b"NeaTS101" not in data
    assert len(data) < (DATA / "it-4096.rpac").stat().st_size
    with repro.open(tmp_path / "v2.rpac", lazy=True) as archive:
        assert np.array_equal(archive.decompress(), values)
        assert archive.digits == 2


def test_fsck_deep_passes_the_archive():
    report = fsck_archive(DATA / "it-4096.rpac", deep=True)
    assert report.ok, report.problems
