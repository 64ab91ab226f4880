"""Parallel batch compression: many series, one process pool.

``repro.compress`` is a single-series, single-process call; the paper's
deployment sketch (§IV-C1) ingests *many* series, and both block-wise
codecs and NeaTS fragments are embarrassingly parallel across series.
:func:`compress_many` fans a whole mapping of series out over a
:class:`concurrent.futures.ProcessPoolExecutor`.

Workers return the framed ``to_bytes()`` payload — plain bytes — so
nothing unpicklable (bit readers, numpy views, model closures) ever
crosses the pool boundary.  The parent reassembles ``Compressed``
objects with :func:`repro.codecs.load_compressed`, which parses each
native frame directly (O(size), no recompression), so the pooled result
is byte-identical to serial ``repro.compress`` + ``to_bytes`` for every
codec.  The pool pays off for CPU-heavy codecs such as NeaTS;
:class:`SeriesDB` ingest does not use it, since its hot codec compresses
a whole batch in one vectorised pass in-process.

>>> import numpy as np
>>> from repro.store import compress_many
>>> series = {f"s{i}": np.arange(1000, dtype=np.int64) * i for i in (1, 2)}
>>> out = compress_many(series, codec="gorilla", workers=2)
>>> sorted(out) == ["s1", "s2"] and out["s2"].access(10) == 20
True
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

__all__ = [
    "compress_many",
    "compress_many_frames",
    "default_workers",
    "process_map",
    "thread_map",
]


def default_workers() -> int:
    """Worker count used when ``workers=None``: one per schedulable core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _compress_frame(task):
    """Pool worker: compress one series, return its framed bytes."""
    key, values, codec, params = task
    from ..codecs import get_codec

    return key, get_codec(codec, **params).compress(values).to_bytes()


def compress_many_frames(
    series_map, codec: str = "neats", *, workers: int | None = None, **params
) -> dict:
    """Compress every series in ``series_map`` to framed bytes, in parallel.

    Parameters
    ----------
    series_map:
        Mapping of key -> 1-D array-like of values.  Keys are opaque (any
        picklable hashable); insertion order is preserved in the result.
    codec:
        Registry id applied to every series.
    workers:
        Pool size; ``None`` means one per core, ``<= 1`` (or a single
        series) compresses serially in-process with no pool.
    params:
        Forwarded to the codec factory, as in :func:`repro.compress`.

    Returns the mapping key -> frame bytes (``Compressed.to_bytes``
    layout, decodable by ``Compressed.from_bytes``).  The frames are
    byte-identical to what serial compression would emit.
    """
    tasks = [
        (key, np.asarray(values), codec, dict(params))
        for key, values in series_map.items()
    ]
    return dict(process_map(_compress_frame, tasks, workers=workers))


def process_map(fn, tasks, *, workers: int | None = None) -> list:
    """Run ``fn`` over ``tasks`` in a process pool, order-preserving.

    The one fan-out rule of the store: :func:`compress_many_frames` maps
    one series per task through it, and
    :meth:`~repro.store.partitioned.PartitionedSeriesDB.compact` one
    partition directory per task.  Each task is a self-contained picklable
    description of its work, ``fn`` a module-level function.
    ``workers=None`` means :func:`default_workers`; the count is clamped to
    the task count, and ``workers <= 1`` or a single task runs serially
    in-process with no pool, which keeps deterministic-schedule tests
    fork-free.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if workers is None:
        workers = default_workers()
    workers = max(1, min(int(workers), len(tasks)))
    if workers == 1 or len(tasks) == 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def thread_map(fn, tasks, *, workers: int | None = None) -> list:
    """Run ``fn`` over ``tasks`` in a thread pool, order-preserving.

    Nothing in ``repro`` calls it: multi-series reads run in the calling
    thread.  It stays importable only because perfbench's tracer wraps it
    for the ``parallel.thread_map`` span, and goes when that span does.
    Same serial degradation rule as :func:`process_map`.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if workers is None:
        workers = default_workers()
    workers = max(1, min(int(workers), len(tasks)))
    if workers == 1 or len(tasks) == 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def compress_many(
    series_map, codec: str = "neats", *, workers: int | None = None, **params
) -> dict:
    """Compress every series in ``series_map``, in parallel.

    Same contract as :func:`compress_many_frames`, but the frames are
    decoded back into :class:`~repro.baselines.base.Compressed` objects
    carrying full provenance — each entry behaves exactly as if produced
    by ``repro.compress(values, codec=codec, **params)``.
    """
    from ..codecs import load_compressed

    frames = compress_many_frames(series_map, codec, workers=workers, **params)
    return {key: load_compressed(frame) for key, frame in frames.items()}
