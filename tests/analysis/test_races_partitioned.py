"""Schedule-explorer stress suite for the partitioned façade.

Same contract as :mod:`tests.analysis.test_races`, one level up: the
façade lock orders partition-map mutations and every fan-out, and each
partition's own (sanitized) lock orders its WAL and shard-cache writes.
Under every explored interleaving of concurrent ingest / compact / query
/ close through one :class:`PartitionedSeriesDB`, the vector-clock ledger
must stay free of races and the façade-then-partition nesting free of
lock-order inversions.  Compaction runs with ``workers=1``, and ingest
and multi-series reads never fan out (reads run in the calling thread),
so the scheduler controls every thread in play.

Seeds can be pinned with ``REPRO_SCHED_SEED`` — the CI ``race`` job runs
this file once per fixed seed.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis.sanitizer import Ledger, active_ledger, disable, enable
from repro.analysis.schedule import Scheduler
from repro.store import PartitionedSeriesDB


def _seeds():
    pinned = os.environ.get("REPRO_SCHED_SEED")
    if pinned is not None:
        return [int(pinned)]
    return [0, 1, 2]


@pytest.fixture
def ledger():
    """Enable the sanitizer on a private ledger; always restore after."""
    was_active = active_ledger()
    if was_active is not None:
        disable()
    ledger = enable(Ledger())
    try:
        yield ledger
    finally:
        disable()
        if was_active is not None:
            enable(was_active)


def _values(seed, n=400):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.integers(-9, 10, n)).astype(np.int64)


class TestPartitionedStress:
    @pytest.mark.parametrize("seed", _seeds())
    def test_ingest_compact_query_close_is_clean(self, ledger, tmp_path, seed):
        """Concurrent ingest + compact + query + close on ONE façade.

        New-series ingest mutates the shared partition map; queries
        scatter across partitions; close poisons everything.  No
        interleaving may produce a race or an inversion — late tasks see
        the contracted post-close ValueError and stop.
        """
        db = PartitionedSeriesDB(
            tmp_path / f"stress-{seed}", partitions=2, seal_threshold=128,
        )
        db.ingest_many({"warm/a": _values(90), "warm/b": _values(91)})
        errors: list = []

        def guard(fn):
            def body():
                try:
                    fn()
                except ValueError as exc:  # the post-close contract
                    assert "closed" in str(exc)
                except BaseException as exc:  # pragma: no cover - fail loud
                    errors.append(exc)
                    raise

            return body

        def ingests():
            for chunk in range(3):
                # new ids each round: every one mutates the partition map
                db.ingest_many({f"hot/{chunk}": _values(chunk, 80)})

        def compacts():
            for _ in range(2):
                db.compact(workers=1)

        def queries():
            for _ in range(3):
                if "warm/a" in db:
                    db.access("warm/a", 5)
                    db.range_many({"warm/a": (0, 40), "warm/b": (0, 40)})

        def closes():
            db.flush()
            db.close()

        sched = Scheduler(seed, step_timeout=30.0)
        sched.add("ingest", guard(ingests))
        sched.add("compact", guard(compacts))
        sched.add("query", guard(queries))
        sched.add("close", guard(closes))
        trace = sched.run()
        db.close()  # idempotent no matter where the schedule stopped

        assert errors == []
        assert len(trace) > 4  # the tasks really interleaved
        report = ledger.report()
        assert report["races"] == []
        assert report["inversions"] == []

    def test_same_seed_same_trace(self, tmp_path):
        """Reproducibility holds through the façade's nested locking."""

        def run(tag):
            root = tmp_path / tag
            db = PartitionedSeriesDB(root, partitions=2, seal_threshold=128)

            def tolerant(fn):
                def body():
                    try:
                        fn()
                    except ValueError as exc:  # post-close, deterministic
                        assert "closed" in str(exc)

                return body

            sched = Scheduler(11)
            sched.add(
                "ingest",
                tolerant(
                    lambda: db.ingest_many({"s": _values(1, 50)})
                ),
            )
            sched.add(
                "query",
                tolerant(lambda: db.count("s") if "s" in db else None),
            )
            sched.add("close", db.close)
            try:
                # canonicalise the root embedded in sanitized-lock labels
                return json.dumps(sched.run()).replace(str(root), "<root>")
            finally:
                db.close()

        assert run("a") == run("b")
