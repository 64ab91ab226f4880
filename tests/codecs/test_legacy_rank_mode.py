"""The retired ``rank_mode`` codec param stays readable.

Archives, appendable-archive headers and SeriesDB manifests written while
NeaTS offered a bitvector rank persist ``{"rank_mode": "ef"}`` or
``{"rank_mode": "bitvector"}``, and the store and the appendable archive
rebuild their compressor from those params on every shard load and append.
The NeaTS family accepts both old values and ignores them; any other value
is refused with an error naming the param.
"""

import numpy as np
import pytest

import repro
from repro.codecs import AppendableArchive, get_codec
from repro.data import DATASETS
from repro.store import SeriesDB


@pytest.fixture(scope="module")
def series():
    return DATASETS["CT"].generate(2000)


@pytest.mark.parametrize("mode", ["ef", "bitvector"])
@pytest.mark.parametrize("codec", ["neats", "leats", "sneats"])
def test_legacy_values_are_read_and_ignored(series, codec, mode):
    plain = get_codec(codec).compress(series)
    legacy = get_codec(codec, rank_mode=mode).compress(series)
    assert legacy.to_payload() == plain.to_payload()
    assert np.array_equal(legacy.decompress(), series)


def test_other_values_are_refused():
    with pytest.raises(ValueError, match="rank_mode"):
        get_codec("neats", rank_mode="magic")


def test_seriesdb_with_legacy_cold_params(tmp_path, series):
    root = tmp_path / "db"
    db = SeriesDB(root, seal_threshold=256, cold_codec="neats",
                  cold_params={"rank_mode": "bitvector"})
    db.ingest("s", series[:1200])
    assert db.compact() == ["s"]
    db.close()

    db = SeriesDB.open(root)
    assert db.access("s", 1000) == series[1000]
    assert np.array_equal(db.decompress("s"), series[:1200])
    db.ingest("s", series[1200:])
    assert db.compact() == ["s"]
    db.close()

    with SeriesDB.open(root) as db:
        assert np.array_equal(db.decompress("s"), series)


def test_appendable_archive_with_legacy_params(tmp_path, series):
    path = tmp_path / "log.rpal"
    archive = AppendableArchive.create(path, codec="neats", rank_mode="bitvector")
    archive.append(series[:700])
    reopened = AppendableArchive.open(path)
    assert reopened.params == {"rank_mode": "bitvector"}
    reopened.append(series[700:])
    with repro.open(path) as loaded:
        assert np.array_equal(loaded.decompress(), series)
