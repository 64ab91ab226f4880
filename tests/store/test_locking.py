"""One SeriesDB handle shared across threads: the RLock contract.

These tests hammer a single handle from many threads — concurrent ingest
into disjoint series, mixed readers and writers on the same series, and
flush/compact racing queries.  Correctness bar: no exceptions escape a
worker, and every value ingested is accounted for afterwards.
"""

import threading

import numpy as np
import pytest

from repro.store import SeriesDB


def run_threads(workers):
    """Run all workers concurrently; re-raise the first worker exception."""
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def test_concurrent_ingest_disjoint_series(tmp_path):
    db = SeriesDB(tmp_path / "db", seal_threshold=64)
    n_threads, per_batch, batches = 8, 100, 5

    def ingester(tid):
        def work():
            values = np.arange(per_batch, dtype=np.int64) + tid
            for _ in range(batches):
                db.ingest(f"s{tid}", values)

        return work

    run_threads([ingester(t) for t in range(n_threads)])
    for tid in range(n_threads):
        assert db.count(f"s{tid}") == per_batch * batches
        assert db.access(f"s{tid}", 0) == tid


def test_concurrent_append_same_series(tmp_path):
    """Interleaved appends to one series must serialise, not interleave."""
    db = SeriesDB(tmp_path / "db", seal_threshold=64)
    n_threads, batches = 6, 10
    chunk = np.full(17, 3, dtype=np.int64)

    def work():
        for _ in range(batches):
            db.ingest("shared", chunk)

    run_threads([work] * n_threads)
    assert db.count("shared") == len(chunk) * batches * n_threads
    assert np.all(db.decompress("shared") == 3)


def test_readers_race_writers(tmp_path):
    db = SeriesDB(tmp_path / "db", seal_threshold=64)
    db.ingest("hot", np.arange(500, dtype=np.int64))
    stop = threading.Event()

    def writer():
        for i in range(20):
            db.ingest("hot", np.arange(50, dtype=np.int64))
        stop.set()

    def reader():
        while not stop.is_set():
            n = db.count("hot")
            assert n >= 500
            assert db.access("hot", 0) == 0
            got = db.range("hot", 0, min(n, 100))
            assert len(got) == min(n, 100)

    run_threads([writer, reader, reader, reader])
    assert db.count("hot") == 500 + 20 * 50


def test_flush_and_compact_race_queries(tmp_path):
    db = SeriesDB(tmp_path / "db", seal_threshold=32)
    for sid in ("a", "b", "c"):
        db.ingest(sid, np.arange(300, dtype=np.int64))
    stop = threading.Event()

    def churner():
        for i in range(10):
            db.ingest("a", np.arange(40, dtype=np.int64))
            db.flush()
            db.compact()
        stop.set()

    def reader():
        while not stop.is_set():
            for sid in ("a", "b", "c"):
                assert db.access(sid, 5) == 5
                assert db.count(sid) >= 300

    run_threads([churner, reader, reader])
    db.flush()
    reopened = SeriesDB.open(tmp_path / "db")
    assert reopened.count("a") == 300 + 10 * 40


def test_reentrant_compact_under_lock(tmp_path):
    """compact() flushes while already holding the lock: RLock, not Lock."""
    db = SeriesDB(tmp_path / "db", seal_threshold=16)
    db.ingest("x", np.arange(200, dtype=np.int64))
    with db._lock:  # a caller composing operations atomically
        db.compact()
        assert db.count("x") == 200


def test_lock_is_reentrant_type(tmp_path):
    db = SeriesDB(tmp_path / "db")
    assert db._lock.acquire(blocking=False)
    assert db._lock.acquire(blocking=False)  # same thread, second acquire
    db._lock.release()
    db._lock.release()


# -- close(): idempotence and the poisoned-handle contract ----------------------


class TestCloseContract:
    """close() is idempotent; afterwards every public call raises ValueError.

    The failure mode this guards against: close() used to drop internal
    dicts, so a late thread touching the handle died with AttributeError
    deep inside a lock region.  Now the handle is poisoned explicitly and
    the error names the root and the remedy.
    """

    def _open(self, tmp_path):
        db = SeriesDB(tmp_path / "db", seal_threshold=64)
        db.ingest("s", np.arange(128, dtype=np.int64))
        return db

    def test_close_is_idempotent(self, tmp_path):
        db = self._open(tmp_path)
        db.close()
        db.close()  # a second close is a silent no-op
        assert db.closed

    def test_closed_property_tracks_lifecycle(self, tmp_path):
        db = self._open(tmp_path)
        assert not db.closed
        db.close()
        assert db.closed

    def test_every_public_call_raises_value_error(self, tmp_path):
        db = self._open(tmp_path)
        db.close()
        calls = {
            "series_ids": lambda: db.series_ids(),
            "__contains__": lambda: "s" in db,
            "__len__": lambda: len(db),
            "count": lambda: db.count("s"),
            "digits": lambda: db.digits("s"),
            "cache_info": lambda: db.cache_info(),
            "info": lambda: db.info(),
            "ingest": lambda: db.ingest("s", [1, 2, 3]),
            "ingest_many": lambda: db.ingest_many({"s": [1]}),
            "access": lambda: db.access("s", 0),
            "range": lambda: db.range("s", 0, 4),
            "decompress": lambda: db.decompress("s"),
            "store": lambda: db.store("s"),
            "mark_dirty": lambda: db.mark_dirty("s"),
            "compact": lambda: db.compact(),
            "flush": lambda: db.flush(),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match="closed") as excinfo:
                call()
            # Never AttributeError from torn-down internals.
            assert not isinstance(excinfo.value, AttributeError), name
            assert "reopen" in str(excinfo.value), name

    def test_post_close_from_other_threads(self, tmp_path):
        """Racing threads after close all see the contracted ValueError."""
        db = self._open(tmp_path)
        db.close()
        failures = []

        def worker():
            try:
                db.ingest("late", [1])
            except ValueError:
                pass
            except Exception as exc:  # noqa: BLE001 - the regression
                failures.append(exc)

        run_threads([worker] * 6)
        assert failures == []

    def test_context_manager_poisons_on_exit(self, tmp_path):
        with SeriesDB(tmp_path / "db", seal_threshold=64) as db:
            db.ingest("s", [1, 2, 3])
        assert db.closed
        with pytest.raises(ValueError, match="closed"):
            db.count("s")

    def test_reopen_after_close_works(self, tmp_path):
        db = self._open(tmp_path)
        db.flush()
        db.close()
        reopened = SeriesDB.open(tmp_path / "db")
        assert reopened.count("s") == 128
        reopened.close()
