"""NeaTS: learned compression of nonlinear time series with random access.

A pure-Python reproduction of the ICDE 2025 paper, including the lossless
NeaTS compressor (with LeaTS and SNeaTS variants), the lossy NeaTS-L, every
baseline of the paper's evaluation, synthetic versions of its 16 datasets,
and a benchmark harness regenerating every table and figure.

All compressors are first-class codecs behind one facade: pick any id from
:func:`available_codecs` — ``"neats"``, ``"gorilla"``, ``"zstd"``, ... —
compress, query, and persist through the same API.  That includes the
paper's *lossy* side (Table II): ``"neats_l"``, ``"pla"``, and ``"aa"``
register with ``lossy=True`` and a required ``eps`` bound, produce
:class:`~repro.baselines.base.LossyCompressed` objects guaranteeing
``|f(x_k) - y_k| <= eps``, and persist natively — a saved lossy archive
reopens into the identical approximation without re-running the
compressor::

    lossy = repro.compress(y, codec="pla", eps=0.5)
    lossy.max_error(y)                         # measured, <= 0.5
    repro.save("approx.rpac", lossy)           # fitted segments, not values

Quickstart
----------
>>> import numpy as np
>>> import repro
>>> y = (100 * np.sin(np.arange(5000) / 50)).astype(np.int64)
>>> c = repro.compress(y)                      # default codec: "neats"
>>> bool(np.array_equal(c.decompress(), y))
True
>>> int(c.access(1234)) == int(y[1234])        # random access, no decode
True
>>> g = repro.compress(y, codec="gorilla")     # same API, any codec
>>> c.compression_ratio() < g.compression_ratio()
True

Persistence (any codec, one self-describing archive format)::

    repro.save("series.rpac", c, digits=2)     # atomic: temp + fsync + rename
    archive = repro.open("series.rpac")        # knows its codec and digits
    archive.access(1234); archive.decompress_range(100, 200)

Cold-query fast path: ``repro.open(path, lazy=True)`` memory-maps the
archive and parses it zero-copy on first touch — every codec loads its
native byte layout directly off the map, no recompression, crc checked on
first decode.

Streaming ingest: :func:`append_open` opens (or creates) an *appendable*
archive — every ``append(values)`` compresses only the new chunk and lands
it as one fsync'd tail record, O(new values) however large the sealed
history, and ``seal()`` compacts the records into a one-shot archive.
``repro.open`` reads appendable archives transparently (eager or lazy,
with per-record crc checks), and a tail record torn by a crash is detected
and skipped with every sealed record intact::

    log = repro.append_open("ingest.rpal", codec="gorilla")
    log.append(batch); log.append(more)        # durable on return
    repro.open("ingest.rpal").decompress()     # one logical series
    log.seal()                                 # compact to RPAC0001

Many series at once: :func:`compress_many` fans compression out over a
process pool, and :class:`SeriesDB` is a durable shard-per-series store
(one tiered-store shard per series id, batch ingest in one compression
pass, background compaction)::

    out = repro.compress_many(series_by_id, codec="gorilla", workers=4)
    db = repro.SeriesDB("dbdir", hot_codec="gorilla", cold_codec="neats")
    db.ingest_many(series_by_id); db.compact(); db.flush()

Past one directory: :class:`PartitionedSeriesDB` shards the keyspace over
N independent SeriesDB partitions (hash-placed series, per-partition
locks and group logs, one fsync per partition per ingest batch, process
fan-out for compaction, scatter-gather reads), behind the same
``SeriesStore`` protocol — :func:`open_store` opens either kind::

    pdb = repro.PartitionedSeriesDB("bigdir", partitions=4)
    pdb.ingest_many(series_by_id)   # one fsync per partition
    repro.open_store("bigdir").access("cpu", 123)

Integrity tooling: :func:`fsck` structurally verifies any archive or
SeriesDB directory offline (``deep=True`` decodes every frame), and
:func:`run_lint` runs the repo's AST-based invariant linter — both also
exposed as ``repro fsck`` / ``repro lint`` on the CLI::

    report = repro.fsck("series.rpac", deep=True)
    report.ok, report.exit_code                # scripting-friendly

Lower-level entry points remain available: :class:`NeaTS` for direct use,
``repro.codecs`` for the registry, ``repro.store`` for the store
subsystem, ``repro.analysis`` for the integrity tools, ``repro.bench``
for the paper's harness.
"""

from .analysis import FsckReport, fsck_path as fsck, run_lint

from .baselines import Compressed, LossyCompressed
from .codecs import (
    AppendableArchive,
    Archive,
    append_open,
    available_codecs,
    codec_spec,
    compress,
    get_codec,
    open_archive,
    register_codec,
    save,
)
from .codecs import open_archive as open  # noqa: A001  (facade: repro.open)
from .core import (
    CompressedSeries,
    LossySeries,
    NeaTS,
    NeaTSLossy,
    TieredStore,
    default_eps_set,
)
from .data import dataset_names, load
from .store import (
    PartitionedSeriesDB,
    SeriesDB,
    SeriesStore,
    compress_many,
    compress_many_frames,
    open_store,
)

__version__ = "2.6.0"

# REPRO_SANITIZE=1 turns on the runtime sanitizer for the whole process:
# mmap/lock instrumentation with a leak report at interpreter exit (see
# repro.analysis.sanitizer).  Opt-in via environment so production imports
# carry zero overhead.
import os as _os

if _os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
    "", "0", "false", "off",
):
    from .analysis.sanitizer import enable as _sanitizer_enable

    _sanitizer_enable(report_at_exit=True)

# NOTE: "open" is deliberately absent from __all__ — `from repro import *`
# must not shadow the builtin; use repro.open or open_archive explicitly.
__all__ = [
    "compress",
    "compress_many",
    "compress_many_frames",
    "SeriesDB",
    "SeriesStore",
    "PartitionedSeriesDB",
    "open_store",
    "save",
    "open_archive",
    "append_open",
    "Archive",
    "AppendableArchive",
    "Compressed",
    "LossyCompressed",
    "available_codecs",
    "codec_spec",
    "get_codec",
    "register_codec",
    "NeaTS",
    "NeaTSLossy",
    "TieredStore",
    "CompressedSeries",
    "LossySeries",
    "default_eps_set",
    "load",
    "dataset_names",
    "fsck",
    "FsckReport",
    "run_lint",
    "__version__",
]
