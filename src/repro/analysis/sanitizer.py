"""Runtime sanitizer: mmap and lock-order instrumentation behind ``REPRO_SANITIZE``.

The static rules of :mod:`repro.analysis.dataflow` and
:mod:`repro.analysis.concurrency` prove what they can see; this module
watches two things they cannot.  With ``REPRO_SANITIZE=1`` in the
environment, importing :mod:`repro` calls :func:`enable`, which
monkeypatches the chokepoints:

* :func:`repro.codecs.container.mmap_view` — every map created is entered
  into the ledger (with the path and the creating stack), and removed when
  it is closed or garbage-collected.  Maps still open *and* still
  referenced at interpreter exit are the leak report.
* :meth:`repro.store.seriesdb.SeriesDB.__init__` and
  :meth:`repro.store.partitioned.PartitionedSeriesDB.__init__` —
  ``self._lock`` is replaced with a :class:`SanitizedLock` that maintains
  a per-thread stack of held locks and a global acquisition-order graph:
  acquiring B while holding A when some other thread ever acquired A
  while holding B is a lock-order inversion, recorded the moment it
  happens.  The façade-then-partition nesting of ``PartitionedSeriesDB``
  goes through ``self._handles[p].method()`` calls into another class,
  which no static rule follows; this graph is what checks it.

Data races are the static guarded-by rules' job (RPR301 and RPR801–803):
every shared access they check is ordered by one of the two locks above.

The verdict (:meth:`Ledger.report`): ``leaks`` (live unclosed maps after a
``gc.collect()``) and ``inversions`` fail a sanitized run.  CI runs the
whole test suite under ``REPRO_SANITIZE=1`` and then asserts the global
ledger is clean.  :class:`SanitizedLock` also yields to an active schedule
(:mod:`repro.analysis.schedule`) at each outermost acquire/release —
while holding no sanitized lock, so the cooperative scheduler can never
park a lock-holder.

Instrumentation is all patch-on-enable / restore-on-disable: nothing in
the production modules imports this one, so the hot paths carry zero
sanitizer cost when it is off.  Tests pass their own :class:`Ledger` to
:func:`enable` so deliberate violations don't dirty the global one.
"""

from __future__ import annotations

import atexit
import gc
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


class Ledger:
    """The sanitizer's account book: live maps, lock stacks, violations."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._maps: dict[int, dict] = {}  # id(weakref) -> record
        self._dead_refs: list[int] = []  # collected maps, drained lazily
        self._held = threading.local()  # per-thread stack of lock names
        self._edges: dict[tuple[str, str], list[str]] = {}  # A->B : stack
        self.inversions: list[dict] = []

    # -- mmap accounting -------------------------------------------------------

    def record_map(self, mapped, path) -> None:
        """Track a live map; it drops off the ledger when collected."""

        def _gone(ref, dead=self._dead_refs):
            # Weakref callbacks can fire from gc at ANY allocation — even
            # while this thread already holds _mutex.  list.append is
            # atomic under the GIL, so enqueue without locking and let the
            # next ledger call drain it.
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

    # -- lock ordering ---------------------------------------------------------

    def _stack_of(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def note_acquire(self, name: str) -> None:
        """Called with the lock *held*: update the order graph."""
        held = self._stack_of()
        outers = [h for h in held if h != name]  # re-entrant A->A is fine
        held.append(name)
        with self._mutex:
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
        """Drop the innermost hold of ``name`` from this thread's stack."""
        held = self._stack_of()
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return

    # -- the verdict -----------------------------------------------------------

    def report(self) -> dict:
        """Everything the sanitizer saw; ``clean`` is the pass/fail bit."""
        leaks = self.live_maps()
        with self._mutex:
            inversions = list(self.inversions)
        return {
            "clean": not leaks and not inversions,
            "leaks": leaks,
            "inversions": inversions,
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
        if not lines:
            return "repro sanitizer: clean"
        return "\n".join(["repro sanitizer: VIOLATIONS"] + lines)


class SanitizedLock:
    """An RLock stand-in that narrates acquire/release to a :class:`Ledger`.

    Drop-in for the ``with self._lock:`` discipline the linter enforces:
    re-entrant, context-managed, with explicit ``acquire``/``release`` for
    completeness.  Lock identity (for the order graph) is the ``name``
    given at construction, e.g. ``"SeriesDB._lock@/path/to/db"``.  Each
    outermost acquire/release also offers a
    :func:`repro.analysis.schedule.checkpoint` — only while the thread
    holds no sanitized lock, so the cooperative scheduler can never park a
    lock-holder and starve the next task.
    """

    def __init__(self, name: str, ledger: Ledger) -> None:
        self.name = name
        self._ledger = ledger
        self._inner = threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not self._ledger._stack_of():
            schedule.checkpoint(f"acquire:{self.name}")
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._ledger.note_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._ledger.note_release(self.name)
        self._inner.release()
        if not self._ledger._stack_of():
            schedule.checkpoint(f"release:{self.name}")

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


def enable(ledger: Ledger | None = None, *, report_at_exit: bool = False) -> Ledger:
    """Instrument mmap_view and the SeriesDB/PartitionedSeriesDB locks.

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
    _saved["db_init"] = seriesdb.SeriesDB.__init__
    _saved["pdb_init"] = partitioned.PartitionedSeriesDB.__init__

    original_view = container.mmap_view

    def traced_mmap_view(path):
        view = original_view(path)
        if view is not None and _active is not None:
            _active.record_map(view.obj, path)
        return view

    def sanitize_lock(original_init, cls_name):
        def traced_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            if _active is not None:
                name = f"{cls_name}._lock@{getattr(self, '_root', '?')}"
                self._lock = SanitizedLock(name, _active)

        return traced_init

    container.mmap_view = traced_mmap_view
    # seriesdb imported the function by name; patch its reference too.
    seriesdb.mmap_view = traced_mmap_view
    seriesdb.SeriesDB.__init__ = sanitize_lock(
        seriesdb.SeriesDB.__init__, "SeriesDB"
    )
    partitioned.PartitionedSeriesDB.__init__ = sanitize_lock(
        partitioned.PartitionedSeriesDB.__init__, "PartitionedSeriesDB"
    )

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
    seriesdb.SeriesDB.__init__ = _saved.pop("db_init")
    partitioned.PartitionedSeriesDB.__init__ = _saved.pop("pdb_init")
    _active = None


def _report_at_exit() -> None:
    ledger = _active
    if ledger is None:
        return
    print(ledger.render(), file=sys.stderr)
