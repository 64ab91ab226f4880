"""A batch that a log record cannot hold is refused before anything changes.

A group-log record stores a series id's UTF-8 length in 16 bits and its
digits in a signed 32-bit field; archive headers store digits the same
way.  Values outside those fields must raise ``ValueError`` naming the
series and the limit, before any series is registered or any byte lands
on disk: a refused batch leaves ``series_ids()``, ``digits()`` and every
file under the root as they were, on both store kinds.
"""

import numpy as np
import pytest

from repro.codecs import compress, get_codec, save
from repro.codecs.container import AppendableArchive, GroupLog
from repro.store import PartitionedSeriesDB, SeriesDB, open_store

LONG_ID = "x" * 70000
TOO_LARGE = 2**31
TOO_SMALL = -(2**31) - 1


def _files(root) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _make(root, partitions: int):
    if partitions == 1:
        return SeriesDB(root)
    return PartitionedSeriesDB(root, partitions=partitions)


@pytest.mark.parametrize("partitions", [1, 2])
@pytest.mark.parametrize(
    "sid, digits, limit",
    [
        (LONG_ID, None, "65535"),
        ("b", TOO_LARGE, "2147483647"),
        ("b", TOO_SMALL, "-2147483648"),
    ],
    ids=["long-id", "digits-over", "digits-under"],
)
def test_refused_batch_changes_nothing(tmp_path, partitions, sid, digits, limit):
    root = tmp_path / "db"
    db = _make(root, partitions)
    db.ingest("a", np.arange(50), digits=2)
    db.flush()
    before = _files(root)
    batch = {"c": np.arange(10), sid: np.arange(10)}
    with pytest.raises(ValueError, match=limit) as refused:
        db.ingest_many(batch, digits=digits)
    # names the series it refused ('c' when the batch's digits are at fault)
    assert any(repr(s[:8])[:-1] in str(refused.value) for s in batch)
    assert db.series_ids() == ["a"]
    assert db.digits("a") == 2
    assert _files(root) == before
    db.close()  # nothing is dirty: the close flushes nothing
    assert _files(root) == before
    with open_store(root) as again:
        assert again.series_ids() == ["a"]


def test_group_log_refuses_out_of_range_fields(tmp_path):
    path = tmp_path / "group.gwl"
    log = GroupLog.create(path, codec="gorilla")
    frame = get_codec("gorilla").compress(np.arange(20)).to_bytes()
    size = path.stat().st_size
    with pytest.raises(ValueError, match="65535"):
        log.append_group([("a", 0, frame), (LONG_ID, 0, frame)])
    with pytest.raises(ValueError, match="2147483647"):
        log.append_group([("a", TOO_LARGE, frame)])
    assert path.stat().st_size == size
    assert log.num_records == 0


def test_archives_refuse_out_of_range_digits(tmp_path):
    compressed = compress(np.arange(20), codec="gorilla")
    for digits in (TOO_LARGE, TOO_SMALL):
        with pytest.raises(ValueError, match="digits"):
            save(tmp_path / "a.rpac", compressed, digits=digits)
        with pytest.raises(ValueError, match="digits"):
            AppendableArchive.create(tmp_path / "a.rpal", digits=digits)
    assert list(tmp_path.iterdir()) == []
