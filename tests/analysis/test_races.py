"""Schedule-explorer-driven concurrency stress suite.

The :class:`~repro.analysis.schedule.Scheduler` serialises real threads
through seeded interleavings, and the sanitizer's ``SanitizedLock`` turns
every SeriesDB lock boundary into a checkpoint.  A correctly-locked
SeriesDB must come out of *every* explored interleaving holding exactly
the writes it acknowledged, with no lock-order inversion; a reproducible
trace means a failure here replays exactly with ``Scheduler(seed=...)``.
"""

import json

import numpy as np
import pytest

import repro
from repro.analysis.sanitizer import Ledger, active_ledger, disable, enable
from repro.analysis.schedule import Scheduler
from repro.codecs import open_archive, save
from repro.store import SeriesDB


SEEDS = (0, 1, 2)


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


def _values(seed, n=600):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.integers(-9, 10, n)).astype(np.int64)


class TestSeriesDBStress:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ingest_compact_query_close_is_clean(self, ledger, tmp_path, seed):
        """Concurrent ingest + compact + query + close on ONE SeriesDB.

        Every public entry point takes the db lock, so no interleaving may
        lose or reorder an acknowledged write, invert the lock order, or
        raise an AttributeError — late tasks hitting the poisoned handle
        see the contracted ValueError and stop.  Reopened, the root holds
        the warm series unchanged and ``hot`` as exactly the batches whose
        ingest returned, in order.
        """
        root = tmp_path / f"stress-{seed}"
        db = SeriesDB(root, seal_threshold=256, cache_capacity=2)
        warm = _values(99)
        db.ingest("warm", warm)  # so query/compact have a target
        acked: list = []  # the hot batches whose ingest returned
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
                batch = _values(chunk, 100)
                db.ingest("hot", batch)
                acked.append(batch)

        def compacts():
            for _ in range(2):
                db.compact()

        def queries():
            for _ in range(3):
                if "warm" in db:
                    db.access("warm", 5)
                    db.range("warm", 0, 50)

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
        assert ledger.report()["inversions"] == []
        with SeriesDB.open(root) as reopened:
            assert np.array_equal(reopened.decompress("warm"), warm)
            if acked:
                assert np.array_equal(
                    reopened.decompress("hot"), np.concatenate(acked)
                )
            else:
                assert "hot" not in reopened

    def test_same_seed_same_trace(self, tmp_path):
        """The reproducibility contract, end-to-end on the real store."""

        def run(tag):
            root = tmp_path / tag
            db = SeriesDB(root, seal_threshold=256)
            sched = Scheduler(7)
            sched.add("ingest", lambda: db.ingest("s", _values(1, 50)))
            sched.add("query", lambda: db.count("s") if "s" in db else None)
            sched.add("close", db.close)
            try:
                # Under REPRO_SANITIZE the checkpoint labels carry the
                # sanitized lock's name, which embeds the db root —
                # canonicalise it so runs over distinct tmp dirs compare.
                return json.dumps(sched.run()).replace(str(root), "<root>")
            finally:
                db.close()

        assert run("a") == run("b")


class TestLazyArchiveStress:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_concurrent_decode_and_close(self, ledger, tmp_path, seed):
        """Concurrent lazy decode + close on one Archive.

        Whatever the interleaving, a decode either completes against the
        live map or raises the post-close ValueError — never a torn read,
        never a leaked map at exit.
        """
        series = _values(23, 4000)
        path = tmp_path / "series.rpac"
        save(path, repro.compress(series, codec="gorilla"))
        archive = open_archive(path, lazy=True)
        outcomes: list = []

        def decode(tag):
            def body():
                try:
                    got = archive.decompress()
                    assert np.array_equal(np.asarray(got), series)
                    outcomes.append((tag, "decoded"))
                except ValueError as exc:
                    assert "closed" in str(exc)
                    outcomes.append((tag, "closed"))

            return body

        sched = Scheduler(seed)
        sched.add("decode-1", decode("decode-1"))
        sched.add("decode-2", decode("decode-2"))
        sched.add("close", archive.close)
        sched.run()
        archive.close()

        assert len(outcomes) == 2
        assert {tag for tag, _ in outcomes} == {"decode-1", "decode-2"}
        assert ledger.report()["leaks"] == []

