"""The ``SeriesStore`` protocol: what it means to be a series database.

PRs 5–9 grew :class:`~repro.store.seriesdb.SeriesDB` into an 800-line
single-directory store; the partitioned façade
(:class:`~repro.store.partitioned.PartitionedSeriesDB`) fronts N of them
behind the same surface.  This module is the contract both implement —
extracted rather than invented, so the façade cannot drift from the store
it wraps: every method here exists on ``SeriesDB`` today with the same
signature and semantics, and the equivalence suite
(``tests/property/test_prop_partitioned.py``) holds the two
implementations to identical answers.

The protocol is ``runtime_checkable``, so ``isinstance(db, SeriesStore)``
works on any conforming object (structural check only — signatures are
enforced by mypy, behaviour by the test suite).  Code that serves queries
or ingests batches should accept a ``SeriesStore``, not a concrete class;
:func:`repro.store.open_store` returns whichever implementation the
directory's manifest declares.

Semantics every implementation owes its callers:

* **Durability** — ``ingest``/``ingest_many`` return only after the new
  values are recoverable (write-ahead logged); ``flush`` consolidates
  them into snapshots; ``close`` flushes, then poisons the handle
  (``ValueError`` on every later call, idempotent second close).
* **Thread safety** — every method may be called from any thread; the
  implementation serialises internally.
* **Exactness** — ``access``/``range``/``decompress`` answer from the
  ingested values (within the configured lossy ε once compacted, when
  ``allow_lossy`` was opted into).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = ["SeriesStore"]


@runtime_checkable
class SeriesStore(Protocol):
    """Structural interface of a durable multi-series store.

    Implemented by :class:`~repro.store.seriesdb.SeriesDB` (one
    directory, one manifest, one lock) and
    :class:`~repro.store.partitioned.PartitionedSeriesDB` (N SeriesDB
    partitions behind one façade).  See the module docstring for the
    semantic contract; docstrings here state only what each member means.
    """

    # -- lifecycle ------------------------------------------------------------

    @property
    def root(self) -> Path:
        """The store's directory."""
        ...

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the handle is then unusable)."""
        ...

    def close(self) -> None:
        """Flush, release resources, poison the handle (idempotent)."""
        ...

    def __enter__(self) -> "SeriesStore": ...

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None: ...

    # -- introspection --------------------------------------------------------

    def series_ids(self) -> list[str]:
        """Every series id, in ingestion order."""
        ...

    def __contains__(self, series_id: str) -> bool: ...

    def __len__(self) -> int: ...

    def count(self, series_id: str) -> int:
        """Number of values in ``series_id``."""
        ...

    def digits(self, series_id: str) -> int:
        """Decimal scaling recorded for ``series_id`` at ingest time."""
        ...

    def info(self) -> dict:
        """Configuration plus a per-series summary."""
        ...

    # -- ingestion ------------------------------------------------------------

    def ingest(
        self, series_id: str, values: Any, *, digits: int | None = None
    ) -> int:
        """Durably append ``values`` to ``series_id``; returns its count."""
        ...

    def ingest_many(self, series_map: Any, *, digits: int | None = None) -> dict:
        """Batch ingest; returns series id -> new total count."""
        ...

    # -- queries --------------------------------------------------------------

    def access(self, series_id: str, k: int) -> int:
        """The value at position ``k`` of ``series_id``."""
        ...

    def range(self, series_id: str, lo: int, hi: int) -> np.ndarray:
        """Values at positions ``[lo, hi)`` of ``series_id``."""
        ...

    def decompress(self, series_id: str) -> np.ndarray:
        """Every value of ``series_id``, in order."""
        ...

    # -- maintenance ----------------------------------------------------------

    def compact(self, hot_threshold: int = 0) -> list[str]:
        """Consolidate hot tiers beyond the threshold; returns compacted ids."""
        ...

    def flush(self) -> None:
        """Write modified state back to disk (the durability checkpoint)."""
        ...
