"""Runtime sanitizer: mmap/lock/race instrumentation behind ``REPRO_SANITIZE``.

The static rules of :mod:`repro.analysis.dataflow` and
:mod:`repro.analysis.concurrency` prove what they can see; this module
watches what actually happens.  With ``REPRO_SANITIZE=1`` in the
environment, importing :mod:`repro` calls :func:`enable`, which
monkeypatches the chokepoints:

* :func:`repro.codecs.container.mmap_view` — every map created is entered
  into the ledger (with the path and the creating stack), and removed when
  it is closed or garbage-collected.  Maps still open *and* still
  referenced at interpreter exit are the leak report.
* :meth:`repro.codecs.container.Archive._check_open` — a post-close access
  (the ``ValueError`` the archive raises in the caller's face) is also
  recorded, so a test run shows *where* use-after-close happens even when
  every caller swallows the exception.
* :meth:`repro.store.seriesdb.SeriesDB.__init__` — ``self._lock`` is
  replaced with a :class:`SanitizedLock` that maintains a per-thread stack
  of held locks and a global acquisition-order graph: acquiring B while
  holding A when some other thread ever acquired A while holding B is a
  lock-order inversion, recorded the moment it happens.
* ``threading.Thread.start``/``join`` plus the SeriesDB state mutators
  (``_load``/``_store_for_ingest``/``flush``/``_append_log``/``close``) —
  the **happens-before race detector**.  Every thread carries a vector
  clock, advanced by lock release/acquire (release publishes the holder's
  clock onto the lock; acquire joins it) and by fork/join edges (``start``
  snapshots the parent clock onto the child; ``join`` merges the child's
  final clock back).  Each instrumented access to a named shared variable
  (``SeriesDB@<root>:shard-cache`` / ``:manifest`` / ``:wal`` /
  ``:store:<sid>``) is compared against the variable's last write epoch
  and per-thread read epochs: a write-write or write-read pair that no
  lock or fork/join edge orders is a **data race**, recorded with both
  stack traces.  The same patch arms each DB-owned
  :class:`~repro.core.tiered.TieredStore`'s ``_guard`` hook, so direct
  store mutation participates in the same happens-before check.  Fixture
  classes can join in by calling :meth:`Ledger.note_read` /
  :meth:`Ledger.note_write` themselves.
* :meth:`repro.store.partitioned.PartitionedSeriesDB.__init__` and
  ``_assign`` — the façade's ``RLock`` becomes a :class:`SanitizedLock`
  too (façade-then-partition nesting feeds the same inversion graph), and
  every partition-map mutation notes a write on
  ``PartitionedSeriesDB@<root>:partition-map``, so unordered concurrent
  placement of new series is reported as a data race.

The verdict (:meth:`Ledger.report`): ``leaks`` (live unclosed maps after a
``gc.collect()``), ``inversions``, and ``races`` fail a sanitized run;
``caught`` use-after-close events are informational — the archive already
raised, so the caller was told — but carry the location for debugging.
CI runs the whole test suite under ``REPRO_SANITIZE=1`` and then asserts
the global ledger is clean, and the ``race`` job replays the
schedule-explorer stress suite (:mod:`repro.analysis.schedule`) across
fixed seeds.  :class:`SanitizedLock` yields to an active schedule at each
outermost acquire/release — while holding no sanitized lock, so the
cooperative scheduler can never park a lock-holder.

Instrumentation is all patch-on-enable / restore-on-disable: nothing in
the production modules imports this one, so the hot paths carry zero
sanitizer cost when it is off.  Tests pass their own :class:`Ledger` to
:func:`enable` so deliberate violations don't dirty the global one.
"""

from __future__ import annotations

import atexit
import functools
import gc
import itertools
import sys
import threading
import traceback
import weakref

from . import schedule

__all__ = ["Ledger", "SanitizedLock", "enable", "disable", "active_ledger"]

_STACK_DEPTH = 6  # frames of context kept per recorded event


def _stack_summary(skip: int = 2) -> list[str]:
    """The creating call stack, innermost last, repo frames only."""
    frames = traceback.extract_stack()[:-skip]
    return [
        f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name}"
        for frame in frames[-_STACK_DEPTH:]
    ]


# Stable small thread ids: ``threading.get_ident()`` values are recycled
# when threads die, which would alias a dead thread's epochs onto a new
# thread; an attribute on the Thread object never is.
_tid_lock = threading.Lock()
_tid_counter = itertools.count(1)


def _tid_of(thread: threading.Thread) -> int:
    tid = getattr(thread, "_repro_san_tid", None)
    if tid is None:
        with _tid_lock:
            tid = getattr(thread, "_repro_san_tid", None)
            if tid is None:
                tid = next(_tid_counter)
                thread._repro_san_tid = tid  # type: ignore[attr-defined]
    return tid


class Ledger:
    """The sanitizer's account book: live maps, lock stacks, violations."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._maps: dict[int, dict] = {}  # id(weakref) -> record
        self._dead_refs: list[int] = []  # collected maps, drained lazily
        self._held = threading.local()  # per-thread stack of lock names
        self._edges: dict[tuple[str, str], list[str]] = {}  # A->B : stack
        self.inversions: list[dict] = []
        self.caught: list[dict] = []  # defended use-after-close events
        # Happens-before state (all mutated under _mutex):
        self._clocks: dict[int, dict[int, int]] = {}  # tid -> vector clock
        self._lock_clocks: dict[str, dict[int, int]] = {}  # lock name -> clock
        self._vars: dict[str, dict] = {}  # var -> {"write": epoch, "reads": {}}
        self.races: list[dict] = []
        self._race_keys: set[tuple] = set()  # dedup: report each pair once

    # -- mmap accounting -------------------------------------------------------

    def record_map(self, mapped, path) -> None:
        """Track a live map; it drops off the ledger when collected."""

        def _gone(ref, dead=self._dead_refs):
            # Weakref callbacks can fire from gc at ANY allocation — even
            # while this thread already holds _mutex (note_write allocates
            # under it).  list.append is atomic under the GIL, so enqueue
            # without locking and let the next ledger call drain it.
            dead.append(id(ref))

        ref = weakref.ref(mapped, _gone)
        with self._mutex:
            self._drain_dead()
            self._maps[id(ref)] = {
                "ref": ref,
                "path": str(path),
                "stack": _stack_summary(skip=3),
            }

    def _drain_dead(self) -> None:
        """Drop collected maps (call under ``_mutex``)."""
        while self._dead_refs:
            self._maps.pop(self._dead_refs.pop(), None)

    def live_maps(self) -> list[dict]:
        """Maps still referenced and not closed (collects garbage first)."""
        gc.collect()
        leaks = []
        with self._mutex:
            self._drain_dead()
            records = list(self._maps.values())
        for record in records:
            mapped = record["ref"]()
            if mapped is not None and not mapped.closed:
                leaks.append({"path": record["path"], "stack": record["stack"]})
        return leaks

    # -- use-after-close -------------------------------------------------------

    def record_use_after_close(self, path) -> None:
        with self._mutex:
            self.caught.append({
                "path": str(path),
                "stack": _stack_summary(skip=3),
            })

    # -- lock ordering + vector clocks -----------------------------------------

    def _stack_of(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def _clock(self, tid: int, thread: threading.Thread) -> dict[int, int]:
        """The thread's vector clock (call under ``_mutex``); lazily forked.

        A clock starts at ``{tid: 1}`` merged with the fork snapshot the
        parent's patched ``Thread.start`` left on the thread object — the
        fork happens-before edge.  Own components start at 1 so an access
        by a never-synchronised thread is *not* vacuously ordered before
        everyone else's empty clock entries.
        """
        clock = self._clocks.get(tid)
        if clock is None:
            clock = {tid: 1}
            snap = getattr(thread, "_repro_san_fork", None)
            if snap is not None and snap[0] is self:
                for k, v in snap[1].items():
                    if k != tid and clock.get(k, 0) < v:
                        clock[k] = v
            self._clocks[tid] = clock
        return clock

    def note_fork(self, child: threading.Thread) -> None:
        """Parent is about to ``start()`` ``child``: snapshot, then advance."""
        thread = threading.current_thread()
        tid = _tid_of(thread)
        with self._mutex:
            clock = self._clock(tid, thread)
            child._repro_san_fork = (self, dict(clock))  # type: ignore[attr-defined]
            clock[tid] = clock.get(tid, 1) + 1

    def note_join(self, child: threading.Thread) -> None:
        """``child`` was joined: its whole history happens-before us now."""
        child_tid = getattr(child, "_repro_san_tid", None)
        thread = threading.current_thread()
        tid = _tid_of(thread)
        with self._mutex:
            clock = self._clock(tid, thread)
            if child_tid is not None:
                final = self._clocks.get(child_tid)
                if final:
                    for k, v in final.items():
                        if clock.get(k, 0) < v:
                            clock[k] = v

    def note_acquire(self, name: str) -> None:
        """Called with the lock *held*: join its clock, update the order graph."""
        thread = threading.current_thread()
        tid = _tid_of(thread)
        held = self._stack_of()
        outers = [h for h in held if h != name]  # re-entrant A->A is fine
        held.append(name)
        with self._mutex:
            clock = self._clock(tid, thread)
            lock_clock = self._lock_clocks.get(name)
            if lock_clock:
                for k, v in lock_clock.items():
                    if clock.get(k, 0) < v:
                        clock[k] = v
            for outer in outers:
                edge = (outer, name)
                if edge not in self._edges:
                    self._edges[edge] = _stack_summary(skip=3)
                reverse = self._edges.get((name, outer))
                if reverse is not None:
                    self.inversions.append({
                        "edge": f"{outer} -> {name}",
                        "reverse": f"{name} -> {outer}",
                        "stack": _stack_summary(skip=3),
                        "reverse_stack": reverse,
                    })

    def note_release(self, name: str) -> None:
        """Called *before* the lock is actually released: publish our clock.

        Publishing first matters — once the underlying lock drops, another
        thread's ``note_acquire`` may read the lock clock, and it must see
        everything this thread did while holding it.
        """
        thread = threading.current_thread()
        tid = _tid_of(thread)
        with self._mutex:
            clock = self._clock(tid, thread)
            self._lock_clocks[name] = dict(clock)
            clock[tid] = clock.get(tid, 1) + 1
        held = self._stack_of()
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return

    # -- happens-before race detection -----------------------------------------

    def _ordered(self, clock: dict[int, int], epoch: dict, tid: int) -> bool:
        """Whether ``epoch`` (a prior access) happens-before the current one."""
        return epoch["tid"] == tid or clock.get(epoch["tid"], 0) >= epoch["clock"]

    def _race(self, kind: str, var: str, prior: dict, stack: list[str],
              thread_name: str) -> None:
        key = (
            var, kind, prior["tid"],
            prior["stack"][-1] if prior["stack"] else "",
            stack[-1] if stack else "",
        )
        if key in self._race_keys:
            return
        self._race_keys.add(key)
        self.races.append({
            "var": var,
            "kind": kind,
            "thread": thread_name,
            "stack": stack,
            "prior_thread": prior["thread"],
            "prior_stack": prior["stack"],
        })

    def note_write(self, var: str) -> None:
        """An instrumented write to shared variable ``var`` by this thread."""
        thread = threading.current_thread()
        tid = _tid_of(thread)
        stack = _stack_summary(skip=2)  # keep the racing access's own frame
        with self._mutex:
            clock = self._clock(tid, thread)
            rec = self._vars.setdefault(var, {"write": None, "reads": {}})
            write = rec["write"]
            if write is not None and not self._ordered(clock, write, tid):
                self._race("write-write", var, write, stack, thread.name)
            for read in rec["reads"].values():
                if not self._ordered(clock, read, tid):
                    self._race("read-write", var, read, stack, thread.name)
            rec["write"] = {
                "tid": tid, "clock": clock.get(tid, 1),
                "thread": thread.name, "stack": stack,
            }
            rec["reads"] = {}

    def note_read(self, var: str) -> None:
        """An instrumented read of shared variable ``var`` by this thread."""
        thread = threading.current_thread()
        tid = _tid_of(thread)
        stack = _stack_summary(skip=2)  # keep the racing access's own frame
        with self._mutex:
            clock = self._clock(tid, thread)
            rec = self._vars.setdefault(var, {"write": None, "reads": {}})
            write = rec["write"]
            if write is not None and not self._ordered(clock, write, tid):
                self._race("write-read", var, write, stack, thread.name)
            rec["reads"][tid] = {
                "tid": tid, "clock": clock.get(tid, 1),
                "thread": thread.name, "stack": stack,
            }

    # -- the verdict -----------------------------------------------------------

    def report(self) -> dict:
        """Everything the sanitizer saw; ``clean`` is the pass/fail bit."""
        leaks = self.live_maps()
        with self._mutex:
            inversions = list(self.inversions)
            caught = list(self.caught)
            races = list(self.races)
        return {
            "clean": not leaks and not inversions and not races,
            "leaks": leaks,
            "inversions": inversions,
            "races": races,
            "caught_use_after_close": caught,
        }

    def render(self) -> str:
        report = self.report()
        lines = []
        for leak in report["leaks"]:
            lines.append(f"LEAKED MAP {leak['path']}")
            lines.extend(f"    {frame}" for frame in leak["stack"])
        for inv in report["inversions"]:
            lines.append(
                f"LOCK-ORDER INVERSION {inv['edge']} vs {inv['reverse']}"
            )
            lines.extend(f"    {frame}" for frame in inv["stack"])
        for race in report["races"]:
            lines.append(f"DATA RACE ({race['kind']}) on {race['var']}")
            lines.append(f"  thread {race['thread']!r} at:")
            lines.extend(f"      {frame}" for frame in race["stack"])
            lines.append(
                f"  unordered with thread {race['prior_thread']!r} at:"
            )
            lines.extend(f"      {frame}" for frame in race["prior_stack"])
        if report["caught_use_after_close"]:
            lines.append(
                f"(defended) use-after-close x"
                f"{len(report['caught_use_after_close'])}"
            )
        if not lines:
            return "repro sanitizer: clean"
        status = "CLEAN" if report["clean"] else "VIOLATIONS"
        return "\n".join([f"repro sanitizer: {status}"] + lines)


class SanitizedLock:
    """An RLock stand-in that narrates acquire/release to a :class:`Ledger`.

    Drop-in for the ``with self._lock:`` discipline the linter enforces:
    re-entrant, context-managed, with explicit ``acquire``/``release`` for
    completeness.  Lock identity (for the order graph and the lock's
    vector clock) is the ``name`` given at construction, e.g.
    ``"SeriesDB._lock@/path/to/db"``.  Each outermost acquire/release also
    offers a :func:`repro.analysis.schedule.checkpoint` — only while the
    thread holds no sanitized lock, so the cooperative scheduler can never
    park a lock-holder and starve the next task.
    """

    def __init__(self, name: str, ledger: Ledger) -> None:
        self.name = name
        self._ledger = ledger
        self._inner = threading.RLock()
        self._owner: int | None = None
        self._count = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not self._ledger._stack_of():
            schedule.checkpoint(f"acquire:{self.name}")
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            self._count += 1
            self._ledger.note_acquire(self.name)
        return acquired

    def release(self) -> None:
        # Publish the vector clock BEFORE dropping the inner lock: the
        # next acquirer must observe everything done while it was held.
        self._ledger.note_release(self.name)
        self._count -= 1
        if self._count <= 0:
            self._owner = None
        self._inner.release()
        if not self._ledger._stack_of():
            schedule.checkpoint(f"release:{self.name}")

    def held_by_current_thread(self) -> bool:
        """Whether the calling thread currently holds this lock."""
        return self._owner == threading.get_ident()

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


# -- enable / disable ----------------------------------------------------------

_active: Ledger | None = None
_saved: dict[str, object] = {}
_atexit_registered = False


def active_ledger() -> Ledger | None:
    """The ledger currently receiving events, or None when disabled."""
    return _active


def _note_store_mutation(var: str) -> None:
    """The ``TieredStore._guard`` hook: a DB-owned store was mutated."""
    ledger = _active
    if ledger is not None:
        ledger.note_write(var)


def _arm_store(db, store, series_id: str) -> None:
    if _active is not None and getattr(store, "_guard", None) is None:
        store._guard = functools.partial(
            _note_store_mutation, f"SeriesDB@{db._root}:store:{series_id}"
        )


def enable(ledger: Ledger | None = None, *, report_at_exit: bool = False) -> Ledger:
    """Instrument mmap_view, archive close checks, threads, and SeriesDB.

    Idempotent per process: re-enabling swaps the target ledger without
    double-patching.  Returns the ledger in effect.
    """
    global _active, _atexit_registered
    if _active is not None:
        _active = ledger or _active
        return _active
    _active = ledger or Ledger()

    from ..codecs import container
    from ..store import partitioned, seriesdb

    _saved["mmap_view"] = container.mmap_view
    _saved["seriesdb_mmap_view"] = seriesdb.mmap_view
    _saved["check_open"] = container.Archive._check_open
    _saved["db_init"] = seriesdb.SeriesDB.__init__
    _saved["thread_start"] = threading.Thread.start
    _saved["thread_join"] = threading.Thread.join
    _saved["db_load"] = seriesdb.SeriesDB._load
    _saved["db_store_for_ingest"] = seriesdb.SeriesDB._store_for_ingest
    _saved["db_flush"] = seriesdb.SeriesDB.flush
    _saved["db_append_log"] = seriesdb.SeriesDB._append_log
    _saved["db_close"] = seriesdb.SeriesDB.close
    _saved["pdb_init"] = partitioned.PartitionedSeriesDB.__init__
    _saved["pdb_assign"] = partitioned.PartitionedSeriesDB._assign

    original_view = container.mmap_view

    def traced_mmap_view(path):
        view = original_view(path)
        if view is not None and _active is not None:
            _active.record_map(view.obj, path)
        return view

    original_check = container.Archive._check_open

    def traced_check_open(self):
        try:
            original_check(self)
        except ValueError:
            if _active is not None:
                _active.record_use_after_close(self.path)
            raise

    original_init = seriesdb.SeriesDB.__init__

    def traced_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if _active is not None:
            name = f"SeriesDB._lock@{getattr(self, '_root', '?')}"
            self._lock = SanitizedLock(name, _active)

    original_start = threading.Thread.start

    def traced_start(self):
        ledger = _active
        if ledger is not None:
            ledger.note_fork(self)
        return original_start(self)

    original_join = threading.Thread.join

    def traced_join(self, timeout=None):
        original_join(self, timeout)
        ledger = _active
        if ledger is not None and not self.is_alive():
            ledger.note_join(self)

    original_load = seriesdb.SeriesDB._load

    def traced_load(self, series_id):
        ledger = _active
        if ledger is not None:
            ledger.note_write(f"SeriesDB@{self._root}:shard-cache")
        store = original_load(self, series_id)
        _arm_store(self, store, series_id)
        return store

    original_sfi = seriesdb.SeriesDB._store_for_ingest

    def traced_store_for_ingest(self, series_id):
        ledger = _active
        if ledger is not None:
            ledger.note_write(f"SeriesDB@{self._root}:shard-cache")
        store = original_sfi(self, series_id)
        _arm_store(self, store, series_id)
        return store

    original_flush = seriesdb.SeriesDB.flush

    def traced_flush(self):
        # Take the (re-entrant) DB lock around the note so the access is
        # ordered exactly like the flush it describes — noting before the
        # lock would make two correctly-locked flushes look racy.
        with self._lock:
            ledger = _active
            if ledger is not None:
                ledger.note_write(f"SeriesDB@{self._root}:manifest")
            return original_flush(self)

    original_append_log = seriesdb.SeriesDB._append_log

    def traced_append_log(self, records):
        ledger = _active
        if ledger is not None:
            ledger.note_write(f"SeriesDB@{self._root}:wal")
        return original_append_log(self, records)

    original_close = seriesdb.SeriesDB.close

    def traced_close(self):
        with self._lock:  # see traced_flush: note under the same ordering
            ledger = _active
            if ledger is not None:
                ledger.note_write(f"SeriesDB@{self._root}:shard-cache")
                ledger.note_write(f"SeriesDB@{self._root}:wal")
            return original_close(self)

    original_pdb_init = partitioned.PartitionedSeriesDB.__init__

    def traced_pdb_init(self, *args, **kwargs):
        original_pdb_init(self, *args, **kwargs)
        if _active is not None:
            name = f"PartitionedSeriesDB._lock@{getattr(self, '_root', '?')}"
            self._lock = SanitizedLock(name, _active)

    original_assign = partitioned.PartitionedSeriesDB._assign

    def traced_assign(self, series_id):
        ledger = _active
        if ledger is not None:
            ledger.note_write(
                f"PartitionedSeriesDB@{self._root}:partition-map"
            )
        return original_assign(self, series_id)

    container.mmap_view = traced_mmap_view
    # seriesdb imported the function by name; patch its reference too.
    seriesdb.mmap_view = traced_mmap_view
    container.Archive._check_open = traced_check_open
    seriesdb.SeriesDB.__init__ = traced_init
    threading.Thread.start = traced_start  # type: ignore[method-assign]
    threading.Thread.join = traced_join  # type: ignore[method-assign]
    seriesdb.SeriesDB._load = traced_load
    seriesdb.SeriesDB._store_for_ingest = traced_store_for_ingest
    seriesdb.SeriesDB.flush = traced_flush
    seriesdb.SeriesDB._append_log = traced_append_log
    seriesdb.SeriesDB.close = traced_close
    partitioned.PartitionedSeriesDB.__init__ = traced_pdb_init
    partitioned.PartitionedSeriesDB._assign = traced_assign

    if report_at_exit and not _atexit_registered:
        _atexit_registered = True
        atexit.register(_report_at_exit)
    return _active


def disable() -> None:
    """Restore the unpatched functions and detach the ledger."""
    global _active
    if _active is None:
        return
    from ..codecs import container
    from ..store import partitioned, seriesdb

    container.mmap_view = _saved.pop("mmap_view")
    seriesdb.mmap_view = _saved.pop("seriesdb_mmap_view")
    container.Archive._check_open = _saved.pop("check_open")
    seriesdb.SeriesDB.__init__ = _saved.pop("db_init")
    threading.Thread.start = _saved.pop("thread_start")  # type: ignore[method-assign]
    threading.Thread.join = _saved.pop("thread_join")  # type: ignore[method-assign]
    seriesdb.SeriesDB._load = _saved.pop("db_load")
    seriesdb.SeriesDB._store_for_ingest = _saved.pop("db_store_for_ingest")
    seriesdb.SeriesDB.flush = _saved.pop("db_flush")
    seriesdb.SeriesDB._append_log = _saved.pop("db_append_log")
    seriesdb.SeriesDB.close = _saved.pop("db_close")
    partitioned.PartitionedSeriesDB.__init__ = _saved.pop("pdb_init")
    partitioned.PartitionedSeriesDB._assign = _saved.pop("pdb_assign")
    _active = None


def _report_at_exit() -> None:
    ledger = _active
    if ledger is None:
        return
    print(ledger.render(), file=sys.stderr)
