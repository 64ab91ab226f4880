"""The runtime sanitizer behind REPRO_SANITIZE.

Each test enables the sanitizer with its *own* ledger (so deliberate
violations never dirty the process-global one), provokes one behaviour —
a leaked map or a lock-order inversion — and asserts the ledger saw
exactly that.  ``disable()`` in a finally restores
the unpatched functions for the rest of the suite.
"""

import threading

import numpy as np
import pytest

import repro
from repro.analysis.sanitizer import (
    Ledger,
    SanitizedLock,
    active_ledger,
    disable,
    enable,
)
from repro.codecs import open_archive, save
from repro.codecs.container import _LazyArchive


@pytest.fixture
def series():
    rng = np.random.default_rng(7)
    return np.cumsum(rng.integers(-5, 6, 3000)).astype(np.int64)


@pytest.fixture
def archive_path(series, tmp_path):
    path = tmp_path / "series.rpac"
    save(path, repro.compress(series, codec="gorilla"))
    return path


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
            # Re-enable the previous ledger (e.g. a REPRO_SANITIZE=1 run).
            enable(was_active)


class TestMapAccounting:
    def test_clean_usage_is_clean(self, ledger, archive_path, series):
        with open_archive(archive_path, lazy=True) as archive:
            assert np.array_equal(archive.decompress(), series)
        report = ledger.report()
        assert report["clean"]
        assert report["leaks"] == []

    def test_unclosed_map_is_a_leak(self, ledger, archive_path):
        archive = open_archive(archive_path, lazy=True)
        archive.decompress()
        (leak,) = ledger.live_maps()
        assert leak["path"] == str(archive_path)
        assert leak["stack"]  # the creating call stack came along
        assert not ledger.report()["clean"]
        # Closing clears the leak: verdict flips back to clean.
        archive.close()
        assert ledger.report()["clean"]

    def test_eager_open_never_maps(self, ledger, archive_path):
        archive = open_archive(archive_path)  # eager: read + parse, no mmap
        archive.decompress()
        assert ledger.live_maps() == []

    @pytest.mark.parametrize("leaky", [False, True])
    def test_close_that_keeps_the_map_is_a_leak(
        self, ledger, archive_path, series, monkeypatch, leaky
    ):
        """The ledger's audit mutation: ``_release`` keeps the map alive
        instead of closing it.  Tier-1 and the linter miss it, because
        CPython unmaps a map once its last reference dies."""
        stash = []
        if leaky:
            release = _LazyArchive._release

            def keep_map(self):
                stash.append(self._mmap)
                self._mmap = None  # so the real release never closes it
                release(self)

            monkeypatch.setattr(_LazyArchive, "_release", keep_map)
        archive = open_archive(archive_path, lazy=True)
        assert archive.access(1234) == series[1234]
        archive.close()
        try:
            leaks = ledger.live_maps()
            assert [leak["path"] for leak in leaks] == (
                [str(archive_path)] if leaky else []
            )
        finally:
            for mapped in stash:
                mapped.close()


class TestLockOrder:
    def test_nested_consistent_order_is_clean(self, ledger):
        a = SanitizedLock("A", ledger)
        b = SanitizedLock("B", ledger)
        for _ in range(3):
            with a:
                with b:
                    pass
        assert ledger.report()["inversions"] == []

    def test_inversion_is_recorded(self, ledger):
        a = SanitizedLock("A", ledger)
        b = SanitizedLock("B", ledger)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        (inversion,) = ledger.report()["inversions"]
        assert inversion["edge"] == "B -> A"
        assert inversion["reverse"] == "A -> B"
        assert not ledger.report()["clean"]

    def test_reentrant_acquire_is_fine(self, ledger):
        a = SanitizedLock("A", ledger)
        with a:
            with a:
                pass
        assert ledger.report()["inversions"] == []

    def test_cross_thread_inversion_detected(self, ledger):
        """Per-thread held stacks, one global order graph."""
        a = SanitizedLock("A", ledger)
        b = SanitizedLock("B", ledger)
        with a:
            with b:
                pass

        def other_thread():
            with b:
                with a:
                    pass

        t = threading.Thread(target=other_thread)
        t.start()
        t.join()
        assert len(ledger.report()["inversions"]) == 1

    def test_seriesdb_lock_is_wrapped(self, ledger, tmp_path, series):
        with repro.SeriesDB(tmp_path / "db", hot_codec="gorilla") as db:
            assert isinstance(db._lock, SanitizedLock)
            db.ingest("s1", series)
            assert np.array_equal(db.decompress("s1"), series)
        assert ledger.report()["inversions"] == []


class TestMultiThreadedLockOrder:
    """PR 7's bookkeeping under real contention: 8 interleaving threads."""

    def test_eight_threads_consistent_order_is_clean(self, ledger):
        locks = [SanitizedLock(f"L{i}", ledger) for i in range(4)]
        barrier = threading.Barrier(8)

        def worker(rounds: int = 25) -> None:
            barrier.wait()  # maximise real interleaving
            for _ in range(rounds):
                with locks[0]:
                    with locks[1]:
                        with locks[3]:
                            pass
                with locks[1]:
                    with locks[2]:
                        pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = ledger.report()
        assert report["inversions"] == []
        # Every thread drained its own held-stack back to empty.
        assert ledger._stack_of() == []

    def test_eight_threads_inversion_detected_once_per_edge(self, ledger):
        a = SanitizedLock("A", ledger)
        b = SanitizedLock("B", ledger)
        barrier = threading.Barrier(8)
        # A plain (untracked) gate serialises the nested sections: the
        # ledger still sees both A->B and B->A orders, but the test can't
        # hit the real ABBA deadlock it is linting for.
        gate = threading.Lock()

        def forward():
            barrier.wait()
            for _ in range(10):
                with gate:
                    with a:
                        with b:
                            pass

        def backward():
            barrier.wait()
            for _ in range(10):
                with gate:
                    with b:
                        with a:
                            pass

        threads = [
            threading.Thread(target=forward if i % 2 else backward)
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        inversions = ledger.report()["inversions"]
        assert inversions  # both orders really happened
        edges = {(inv["edge"], inv["reverse"]) for inv in inversions}
        assert edges <= {("A -> B", "B -> A"), ("B -> A", "A -> B")}

    def test_per_thread_stacks_do_not_bleed(self, ledger):
        """A lock held in one thread is invisible to another's stack."""
        a = SanitizedLock("A", ledger)
        b = SanitizedLock("B", ledger)
        a_held = threading.Event()
        release_a = threading.Event()
        seen: list[list[str]] = []

        def holder():
            with a:
                a_held.set()
                release_a.wait(5)

        def observer():
            a_held.wait(5)
            with b:
                seen.append(list(ledger._stack_of()))
            release_a.set()

        t1 = threading.Thread(target=holder)
        t2 = threading.Thread(target=observer)
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert seen == [["B"]]  # not ["A", "B"]: A is another thread's
        assert ledger.report()["inversions"] == []


class TestSeriesDBRaceHooks:
    def test_locked_concurrent_use_is_clean(self, ledger, tmp_path, series):
        """The whole-suite sanitize job's contract: correct concurrent use
        of one handle records no lock-order inversion."""
        db = repro.SeriesDB(tmp_path / "db", hot_codec="gorilla",
                            seal_threshold=256)
        db.ingest("s1", series)

        def hammer(sid):
            db.ingest(sid, series[:500])
            db.access(sid, 10)
            db.flush()

        threads = [
            threading.Thread(target=hammer, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        db.close()
        assert ledger.report()["inversions"] == []


class TestEnableDisable:
    def test_disable_restores_patches(self, ledger, archive_path):
        from repro.codecs import container

        patched = container.mmap_view
        disable()
        try:
            assert container.mmap_view is not patched
            assert active_ledger() is None
            # Unpatched: new maps are no longer recorded.
            archive = open_archive(archive_path, lazy=True)
            archive.decompress()
            assert ledger.live_maps() == []
            archive.close()
        finally:
            enable(ledger)  # the fixture's finally expects an active state

    def test_enable_is_idempotent(self, ledger):
        assert enable() is ledger  # re-enable keeps the active ledger
        other = Ledger()
        assert enable(other) is other  # ...unless a new one is handed in
        assert active_ledger() is other
        enable(ledger)

    def test_render_clean_and_dirty(self, ledger):
        assert ledger.render() == "repro sanitizer: clean"
        a = SanitizedLock("A", ledger)
        b = SanitizedLock("B", ledger)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        rendered = ledger.render()
        assert "VIOLATIONS" in rendered
        assert "LOCK-ORDER INVERSION" in rendered
