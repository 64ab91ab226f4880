"""Property test: a partitioned store is indistinguishable from a single one.

For arbitrary fleets of series and any partition count, a
:class:`PartitionedSeriesDB` must answer ``series_ids`` / ``count`` /
``access`` / ``range`` / ``decompress`` exactly like a single-directory
:class:`SeriesDB` ingesting the same data — partitioning is a layout
decision, never a semantic one.  Both stores also survive a flush/reopen
cycle with the same answers.
"""

import shutil

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.store import PartitionedSeriesDB, SeriesDB, open_store

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

series = st.lists(
    st.integers(-(2**30), 2**30), min_size=1, max_size=120
).map(lambda xs: np.array(xs, dtype=np.int64))
fleets = st.dictionaries(
    st.sampled_from([f"id/{c}" for c in "abcdefghij"]),
    series,
    min_size=1,
    max_size=6,
)


@given(fleet=fleets, partitions=st.integers(min_value=1, max_value=5))
@settings(**SETTINGS)
def test_partitioned_equals_single(tmp_path, fleet, partitions):
    for name in ("single", "parted"):
        if (tmp_path / name).exists():
            shutil.rmtree(tmp_path / name)
    single = SeriesDB(tmp_path / "single", seal_threshold=64)
    parted = PartitionedSeriesDB(
        tmp_path / "parted", partitions=partitions, seal_threshold=64
    )
    single.ingest_many(fleet)
    parted.ingest_many(fleet)

    def check(a, b):
        assert sorted(a.series_ids()) == sorted(b.series_ids())
        for sid, values in fleet.items():
            assert a.count(sid) == b.count(sid) == len(values)
            k = len(values) // 2
            assert a.access(sid, k) == b.access(sid, k) == values[k]
            lo, hi = len(values) // 4, 3 * len(values) // 4 + 1
            assert np.array_equal(a.range(sid, lo, hi), values[lo:hi])
            assert np.array_equal(b.range(sid, lo, hi), values[lo:hi])
            assert np.array_equal(a.decompress(sid), b.decompress(sid))

    check(single, parted)
    single.flush()
    parted.flush()
    single.close()
    parted.close()
    single = open_store(tmp_path / "single")
    parted = open_store(tmp_path / "parted")
    assert isinstance(parted, PartitionedSeriesDB)
    check(single, parted)
    single.close()
    parted.close()
