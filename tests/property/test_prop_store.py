"""Stateful property test: both store layouts behave like a dict of lists.

A hypothesis state machine drives a single-dir :class:`SeriesDB` and a
2-partition :class:`PartitionedSeriesDB` through the same random sequence
of ``ingest``, ``ingest_many``, ``flush``, ``compact``, close + reopen, and
a crash (the handle dropped unclosed, then a reopen), with a shard cache of
1-4 entries: batches routinely span more series than the cache holds, which
is where acknowledged values were once lost to eviction.  After every step
each store must hold exactly the model's values: every acknowledged ingest
survives a crash.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.store import PartitionedSeriesDB, SeriesDB

SERIES_IDS = [f"s{i}" for i in range(6)]
CONFIG = dict(seal_threshold=8, cold_codec="leats")

chunks = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=20)
batches = st.dictionaries(
    st.sampled_from(SERIES_IDS), chunks, min_size=1, max_size=len(SERIES_IDS)
)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="repro-store-machine-"))
        self.model: dict[str, list[int]] = {}
        self.capacity = 1
        self.single: SeriesDB | None = None
        self.parted: PartitionedSeriesDB | None = None

    @initialize(capacity=st.integers(1, 4), first=chunks)
    def create(self, capacity, first):
        """Both stores start flushed, holding every series: all shards clean."""
        self.capacity = capacity
        self.single = SeriesDB(
            self.tmp / "single", cache_capacity=capacity, **CONFIG
        )
        self.parted = PartitionedSeriesDB(
            self.tmp / "parted", partitions=2, cache_capacity=capacity, **CONFIG
        )
        self.ingest_many({sid: first for sid in SERIES_IDS})
        self.flush()

    def stores(self):
        return (self.single, self.parted)

    @rule(sid=st.sampled_from(SERIES_IDS), values=chunks)
    def ingest(self, sid, values):
        for db in self.stores():
            assert db.ingest(sid, values) == len(self.model.get(sid, [])) + len(values)
        self.model.setdefault(sid, []).extend(values)

    @rule(batch=batches)
    def ingest_many(self, batch):
        expected = {
            sid: len(self.model.get(sid, [])) + len(values)
            for sid, values in batch.items()
        }
        assert self.single.ingest_many(batch) == expected
        assert self.parted.ingest_many(batch) == expected
        for sid, values in batch.items():
            self.model.setdefault(sid, []).extend(values)

    @rule()
    def flush(self):
        for db in self.stores():
            db.flush()

    @rule()
    def compact(self):
        self.single.compact()
        self.parted.compact(workers=1)

    @rule()
    def close_and_reopen(self):
        for db in self.stores():
            db.close()
        self.single = SeriesDB.open(self.tmp / "single", cache_capacity=self.capacity)
        self.parted = PartitionedSeriesDB.open(
            self.tmp / "parted", cache_capacity=self.capacity
        )

    @rule()
    def crash_and_reopen(self):
        """Drop both handles without closing them: only the logs survive."""
        self.single = SeriesDB.open(self.tmp / "single", cache_capacity=self.capacity)
        self.parted = PartitionedSeriesDB.open(
            self.tmp / "parted", cache_capacity=self.capacity
        )

    @invariant()
    def stores_match_model(self):
        if self.single is None:
            return
        for db in self.stores():
            assert sorted(db.series_ids()) == sorted(self.model)
            for sid, values in self.model.items():
                assert db.count(sid) == len(values)
                assert np.array_equal(db.decompress(sid), values)
                assert db.access(sid, len(values) - 1) == values[-1]

    def teardown(self):
        try:
            for db in self.stores():
                if db is not None and not db.closed:
                    db.close()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


StoreMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=10, deadline=None
)
TestStoreMachine = StoreMachine.TestCase
