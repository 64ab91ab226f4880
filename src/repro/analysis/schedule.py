"""Deterministic schedule explorer: seeded, replayable thread interleavings.

A race that shows up once a week under free-running threads is useless as a
CI signal.  This module turns concurrency tests into *deterministic* ones:
a :class:`Scheduler` owns a set of tasks (plain callables), runs each on a
real ``threading.Thread``, and serialises them cooperatively — exactly one
task runs at any moment, and control changes hands only at **checkpoints**.
Which task runs next is drawn from ``random.Random(seed)``, so an
interleaving is a pure function of ``(tasks, seed)``: the same seed replays
the same schedule byte-for-byte, and ``K`` seeds explore ``K`` different
interleavings (:func:`explore`).

Checkpoints come from two sources:

* explicit :func:`checkpoint` calls placed in the task body — a no-op on
  any thread the scheduler does not own, so instrumented helpers can be
  shared with normal tests;
* the sanitizer's :class:`~repro.analysis.sanitizer.SanitizedLock`, which
  (when the sanitizer is enabled) checkpoints before each outermost
  ``acquire`` and after each outermost ``release``.  The scheduler thus
  drives the threads through many lock-level interleavings: the stress
  tests then check that the store holds exactly what it acknowledged,
  and the ledger that no interleaving inverted the lock order.

Deadlock discipline (why this cannot hang): a task only ever *pauses* at a
checkpoint, and the lock-driven checkpoints fire only while the thread
holds **no** sanitized lock.  Hence every lock a resumed task may block on
is either free or held by the single running task, which runs until it
releases.  Explicit checkpoints must follow the same rule: never call
:func:`checkpoint` while holding a lock another task acquires.  A task
that blocks anyway (or runs away) trips the per-step timeout and fails the
run loudly, naming the stuck task, instead of hanging CI.

The trace is data: ``run()`` returns ``[[step, task, label], ...]`` —
JSON-serialisable, so tests assert byte-identical replays with
``json.dumps(trace)``.
"""

from __future__ import annotations

import random
import threading
from typing import Callable

__all__ = ["Scheduler", "checkpoint", "explore"]

#: attribute set on threads the scheduler owns: (scheduler, task)
_TASK_ATTR = "_repro_sched_task"


def checkpoint(label: str = "") -> None:
    """Yield control to the scheduler (no-op on non-scheduled threads).

    Task bodies (and the sanitizer's lock hooks) call this at the points
    where an interleaving may switch.  Never call it while holding a lock
    that another scheduled task acquires — the scheduler serialises tasks,
    so a paused lock-holder would starve whoever blocks on that lock (the
    run fails via the step timeout rather than hanging).
    """
    bound = getattr(threading.current_thread(), _TASK_ATTR, None)
    if bound is None:
        return
    scheduler, task = bound
    scheduler._yield(task, label)


class _Task:
    def __init__(self, name: str, fn: Callable[[], object]) -> None:
        self.name = name
        self.fn = fn
        self.gate = threading.Semaphore(0)  # released to let the task run
        self.thread: threading.Thread | None = None
        self.finished = False
        self.last_label = "<start>"
        self.error: BaseException | None = None


class Scheduler:
    """Run registered tasks under one seeded, serialised interleaving."""

    def __init__(self, seed: int = 0, *, step_timeout: float = 30.0) -> None:
        self.seed = int(seed)
        self.step_timeout = step_timeout
        self._tasks: list[_Task] = []
        self._done = threading.Semaphore(0)  # a task handed control back
        self._running = False

    def add(self, name: str, fn: Callable[[], object]) -> "Scheduler":
        """Register a task; registration order is part of the schedule key."""
        if self._running:
            raise RuntimeError("cannot add tasks to a running scheduler")
        if any(t.name == name for t in self._tasks):
            raise ValueError(f"duplicate task name {name!r}")
        self._tasks.append(_Task(name, fn))
        return self

    # -- the worker side -------------------------------------------------------

    def _body(self, task: _Task) -> None:
        setattr(threading.current_thread(), _TASK_ATTR, (self, task))
        task.gate.acquire()  # wait to be scheduled the first time
        try:
            task.fn()
        except BaseException as exc:  # reported by run(), not swallowed
            task.error = exc
        finally:
            task.finished = True
            task.last_label = "<exit>"
            self._done.release()

    def _yield(self, task: _Task, label: str) -> None:
        """The checkpoint protocol: hand the token back, wait for our turn."""
        if not self._running:
            return
        task.last_label = label
        self._done.release()
        task.gate.acquire()

    # -- the scheduler side ----------------------------------------------------

    def run(self) -> list[list]:
        """Execute one full interleaving; returns the trace.

        The trace records, per step, which task ran and the label of the
        checkpoint it stopped at (``<exit>`` when it finished).  Identical
        ``(tasks, seed)`` produce identical traces — the reproducibility
        contract the race suite is built on.
        """
        if not self._tasks:
            return []
        rng = random.Random(self.seed)
        self._running = True
        for task in self._tasks:
            task.thread = threading.Thread(
                target=self._body, args=(task,),
                name=f"sched-{task.name}", daemon=True,
            )
            task.thread.start()
        trace: list[list] = []
        step = 0
        try:
            while True:
                runnable = [t for t in self._tasks if not t.finished]
                if not runnable:
                    break
                task = rng.choice(runnable)
                task.gate.release()  # run until its next checkpoint
                if not self._done.acquire(timeout=self.step_timeout):
                    raise RuntimeError(
                        f"schedule stuck at step {step}: task {task.name!r} "
                        f"did not reach a checkpoint within "
                        f"{self.step_timeout}s (a paused task may be "
                        "holding a lock it checkpointed under)"
                    )
                trace.append([step, task.name, task.last_label])
                step += 1
        finally:
            self._running = False
            # Unblock anything still gated so threads can be joined.
            for task in self._tasks:
                task.gate.release()
            for task in self._tasks:
                if task.thread is not None:
                    task.thread.join(timeout=self.step_timeout)
        for task in self._tasks:
            if task.error is not None:
                raise task.error
        return trace


def explore(
    make_tasks: Callable[[Scheduler], None],
    *,
    seeds=(0, 1, 2),
    step_timeout: float = 30.0,
) -> dict[int, list[list]]:
    """Run one interleaving per seed; returns ``{seed: trace}``.

    ``make_tasks`` receives a fresh :class:`Scheduler` per seed and must
    register the tasks (building fresh fixtures each time — state must not
    leak between seeds, or the traces stop being functions of the seed).
    """
    traces: dict[int, list[list]] = {}
    for seed in seeds:
        scheduler = Scheduler(int(seed), step_timeout=step_timeout)
        make_tasks(scheduler)
        traces[int(seed)] = scheduler.run()
    return traces
