"""The on-disk archive container: ``repro.save`` / ``repro.open``.

A repro archive is a self-describing file holding one compressed time series
from *any* registered codec::

    +----------+--------+-------+-----------+--------------------------+
    | RPAC0001 | digits | crc32 | frame len | codec frame (serialize)  |
    +----------+--------+-------+-----------+--------------------------+

The inner frame records the codec id, its parameters, and the payload, so
``repro.open`` needs no out-of-band knowledge; the crc32 catches bit rot and
truncation before any codec parsing runs.  ``digits`` is the dataset's
decimal scaling (§II of the paper), kept at the container level because it
describes the *values*, not the codec.

Two open modes exist:

* **eager** (the default) — read the whole file, verify the crc, and parse
  the frame up front.  Errors surface at :func:`open_archive` time.
* **lazy** (``open_archive(path, lazy=True)``, i.e. ``repro.open(path,
  lazy=True)``) — ``mmap`` the file and validate only the fixed container
  header.  The compressed object is parsed from a ``memoryview`` over the
  map on first touch (no full-file copy — native payloads adopt the mapped
  bytes directly), and the crc is verified once, on the first operation
  that decodes values (``access``/``decompress``/``decompress_range``/
  ``values``).  The map is held by the archive and by any arrays parsed
  out of it, so it stays valid for the life of those objects; corruption
  therefore surfaces at first decode instead of at open.

``save`` writes atomically (temp file + fsync + rename), matching the
SeriesDB shard-flush discipline: a crash mid-save leaves either the old
archive or the new one, never a truncated file.

The streaming-ingest counterpart is the **appendable archive** (magic
``RPAL0001``): a header naming the codec, followed by a sequence of
self-describing, individually crc'd frame records::

    +----------+--------+----------+--------+
    | RPAL0001 | digits | codec id | params |                    (header)
    +----------+--------+----------+--------+
    | frame len | crc32 | cumulative count | codec frame |       (record 0)
    | frame len | crc32 | cumulative count | codec frame |       (record 1)
    | ...

:class:`AppendableArchive` (or the :func:`append_open` facade) writes it:
each ``append(values)`` compresses *only* the new chunk and does one
fsync'd tail write — O(new values), no rewrite of sealed history, which is
what the paper's §IV-C1 streaming pipeline needs.  :func:`open_archive`
auto-detects the magic in both modes and exposes the record sequence as
one multi-run :class:`Compressed` view (binary search over the cumulative
counts).  Because each record carries its own crc, a lazy open verifies a
record on the first decode of *that* record only; and because appends are
strictly tail writes, a crash mid-append can only tear the final record —
openers detect the torn tail, ignore it, and keep every sealed record,
while the next writer truncates it away.  ``seal()`` compacts the record
sequence into a one-shot ``RPAC0001`` archive (one recompressed frame).

Archives written by the seed CLI (magic ``NTSF0001``, NeaTS-only) remain
readable in both modes: the container transparently upgrades them to a
:class:`~repro.core.compressor.CompressedSeries` tagged as ``neats``.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from ..baselines.base import Compressed
from . import serialize
from .registry import codec_spec, get_codec, load_compressed

__all__ = [
    "ARCHIVE_MAGIC",
    "APPEND_MAGIC",
    "GROUP_MAGIC",
    "LEGACY_MAGIC",
    "Archive",
    "AppendableArchive",
    "GroupLog",
    "read_group_log",
    "save",
    "open_archive",
    "append_open",
    "write_atomic",
    "mmap_view",
]

ARCHIVE_MAGIC = b"RPAC0001"
APPEND_MAGIC = b"RPAL0001"
GROUP_MAGIC = b"RPGW0001"
LEGACY_MAGIC = b"NTSF0001"

_HEADER = struct.Struct("<8siIQ")  # magic, digits, crc32(frame), frame length
_APPEND_HEADER = struct.Struct("<8siHI")  # magic, digits, codec id len, params len
_RECORD = struct.Struct("<QIQ")  # frame length, crc32(frame), cumulative count
_GROUP_HEADER = struct.Struct("<8sHI")  # magic, codec id len, params len
_GROUP_RECORD = struct.Struct("<HiQI")  # sid len, digits, frame len, crc32(frame)


def write_atomic(path, blob: bytes) -> None:
    """Durable atomic write: temp file + fsync + rename + directory fsync.

    Readers never see a torn file, and once the rename is visible the data
    blocks are on disk — power loss cannot leave a truncated archive (or a
    manifest pointing at a zero-length shard) behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def mmap_view(path) -> memoryview | None:
    """A read-only ``memoryview`` over ``path`` via mmap, or ``None``.

    ``None`` means the file cannot be mapped (empty file, mmap-hostile
    filesystem) and the caller should fall back to an eager read.  The view
    keeps the underlying map alive (``view.obj``); the map is unmapped when
    the last reference to the view — or anything parsed out of it — dies.
    """
    try:
        with open(path, "rb") as fh:
            return memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
    except (ValueError, OSError):
        return None


class _LazyValues:
    """Read-only float view of an archive that decodes blocks on demand.

    Returned by :meth:`Archive.values` on lazily-opened archives.  Integer
    indexing routes through :meth:`Archive.access` and contiguous slices
    through :meth:`Archive.decompress_range`, so only the touched block(s)
    of a block-structured codec are decoded.  Whole-array uses (iteration,
    ``np.asarray``, fancy indexing, ``.flags``) materialise the full decoded
    array once and behave like the eager cache from then on.
    """

    __slots__ = ("_archive", "_scale", "_full")

    dtype = np.dtype(np.float64)
    ndim = 1

    def __init__(self, archive: "Archive") -> None:
        self._archive = archive
        self._scale = 10.0 ** archive.digits
        self._full: np.ndarray | None = None

    def _materialise(self) -> np.ndarray:
        if self._full is None:
            archive = self._archive
            archive._verify()
            vals = archive.compressed.decompress() / self._scale
            vals.setflags(write=False)
            self._full = vals
        return self._full

    def __getitem__(self, key):
        if self._full is not None:
            return self._full[key]
        if isinstance(key, (int, np.integer)):
            k = int(key)
            n = len(self._archive)
            if k < 0:
                k += n
            if not 0 <= k < n:
                raise IndexError(key)
            return self._archive.access(k) / self._scale
        if isinstance(key, slice):
            lo, hi, step = key.indices(len(self._archive))
            if step == 1:
                return self._archive.decompress_range(lo, max(lo, hi)) / self._scale
        return self._materialise()[key]

    def __len__(self) -> int:
        return len(self._archive)

    def __iter__(self):
        return iter(self._materialise())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        full = self._materialise()
        if dtype is not None and np.dtype(dtype) != full.dtype:
            return full.astype(dtype)
        if copy:
            return full.copy()
        return full

    @property
    def shape(self) -> tuple[int]:
        return (len(self._archive),)

    @property
    def flags(self):
        """Ndarray flags of the materialised cache (always read-only)."""
        return self._materialise().flags


class Archive:
    """An opened archive: the compressed series plus container metadata.

    Delegates the :class:`Compressed` query protocol, so an archive can be
    used wherever a compressed series can.  Lazily-opened archives (see
    module docstring) materialise :attr:`compressed` on first touch and
    crc-check on first decode; eager archives are fully validated already.
    """

    def __init__(
        self,
        compressed: Compressed | None = None,
        digits: int = 0,
        codec_id: str = "",
        params: dict | None = None,
        path: Path | None = None,
    ) -> None:
        self._compressed = compressed
        self.digits = digits
        self.codec_id = codec_id
        self.params = {} if params is None else params
        self.path = path
        self._values: "np.ndarray | _LazyValues | None" = None
        self._closed = False

    #: lazy subclasses serve :meth:`values` through a block-decoding proxy
    _lazy_values = False

    @property
    def compressed(self) -> Compressed:
        """The compressed series (parsed on first access when lazy)."""
        self._check_open()
        if self._compressed is None:
            self._compressed = self._materialise()
        return self._compressed

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; every decode raises from then on."""
        return self._closed

    def close(self) -> None:
        """Release the archive's backing resources (idempotent).

        Eager archives drop their parsed payload and cached values; lazy
        archives additionally release the memory map.  Arrays already
        decoded (or adopted zero-copy) before the close stay valid — numpy
        arrays parsed off the map hold their own buffer reference, so the
        map pages are unmapped only when the last such array dies.  Any
        *archive* operation after close raises ``ValueError``.
        """
        if self._closed:
            return
        self._closed = True
        compressed, self._compressed = self._compressed, None
        self._values = None
        close = getattr(compressed, "close", None)
        if callable(close):
            close()
        self._release()

    def __enter__(self) -> "Archive":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"{self.path}: archive is closed")

    def _materialise(self) -> Compressed:
        raise ValueError("archive holds no compressed payload")

    def _release(self) -> None:
        """Resource hook: lazy archives unmap here."""

    def _verify(self) -> None:
        """Integrity hook: lazy archives crc-check here, once."""
        self._check_open()

    def decompress(self) -> np.ndarray:
        """The original int64 values."""
        self._verify()
        return self.compressed.decompress()

    def access(self, k: int) -> int:
        """Random access to position ``k``."""
        self._verify()
        return self.compressed.access(k)

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        """Values at positions ``[lo, hi)``."""
        self._verify()
        return self.compressed.decompress_range(lo, hi)

    def size_bits(self) -> int:
        """Compressed size in bits (of the in-memory representation)."""
        return self.compressed.size_bits()

    def size_bytes(self) -> int:
        """Compressed size in bytes, rounded up."""
        return self.compressed.size_bytes()

    def compression_ratio(self, n: int | None = None) -> float:
        """Compressed bits / uncompressed bits."""
        return self.compressed.compression_ratio(n)

    def values(self) -> "np.ndarray | _LazyValues":
        """The decoded series as floats, decimal scaling applied.

        Eager archives decode once and cache a read-only array.  Lazy
        archives return a cached :class:`_LazyValues` proxy instead:
        ``values()[k]`` and contiguous slices decode only the touched
        block(s); whole-array uses materialise on first need.
        """
        if self._values is None:
            if self._lazy_values:
                self._values = _LazyValues(self)
            else:
                self._verify()
                vals = self.compressed.decompress() / 10.0**self.digits
                vals.setflags(write=False)
                self._values = vals
        return self._values

    def __len__(self) -> int:
        return len(self.compressed)


class _LazyArchive(Archive):
    """Archive over an mmapped file: parse on first touch, crc on first decode."""

    _lazy_values = True

    def __init__(
        self,
        *,
        digits: int,
        path: Path,
        mapped: mmap.mmap,
        frame_view: memoryview,
        frame: serialize.Frame,
        crc: int,
    ) -> None:
        super().__init__(
            compressed=None,
            digits=digits,
            codec_id=frame.codec_id,
            params=dict(frame.params),
            path=path,
        )
        # Keeps the map alive alongside parsed views; dropped on close.
        self._mmap: mmap.mmap | None = mapped
        self._frame_view: memoryview | None = frame_view
        self._frame = frame
        self._crc = crc
        self._verified = False

    def _materialise(self) -> Compressed:
        assert self._frame is not None  # _check_open ran first
        # Decodes from the header parsed at open: no second parse.
        return load_compressed(self._frame)

    def _verify(self) -> None:
        self._check_open()
        if not self._verified:
            if zlib.crc32(self._frame_view) != self._crc:
                raise ValueError(
                    f"{self.path}: archive checksum mismatch (corrupt payload)"
                )
            self._verified = True

    def _release(self) -> None:
        view, self._frame_view = self._frame_view, None
        mapped, self._mmap = self._mmap, None
        self._frame = None  # its payload slice also references the map
        try:
            if view is not None:
                view.release()
            if mapped is not None:
                mapped.close()
        except BufferError:
            # Arrays parsed zero-copy off the map are still alive; dropping
            # our reference defers the unmap to when the last of them dies.
            pass

    def __len__(self) -> int:
        # The frame header records the count; no need to parse the payload.
        self._check_open()
        if self._compressed is None:
            return self._frame.n
        return len(self._compressed)


def save(path, compressed: Compressed, digits: int | None = None) -> int:
    """Write ``compressed`` to ``path`` as a self-describing archive.

    Returns the number of bytes written.  Accepts any object implementing
    the :class:`Compressed` serialisation protocol (or an :class:`Archive`,
    unwrapped transparently).  The write is atomic: the archive appears
    under ``path`` complete and fsynced, or not at all.

    ``digits`` defaults to ``None``, meaning "keep the archive's recorded
    scaling" when saving an :class:`Archive` and 0 otherwise — so an
    explicit ``digits=0`` really *sets* zero, it is not mistaken for
    "unspecified".  Saving a lazily-opened archive verifies its checksum
    first: re-serialising signs the frame with a fresh crc32, and signing
    unverified bytes would launder corruption into a valid-looking file.
    """
    if isinstance(compressed, Archive):
        if digits is None:
            digits = compressed.digits
        compressed._verify()
        compressed = compressed.compressed
    digits = 0 if digits is None else int(digits)
    frame = compressed.to_bytes()
    blob = _HEADER.pack(ARCHIVE_MAGIC, digits, zlib.crc32(frame), len(frame)) + frame
    write_atomic(path, blob)
    return len(blob)


def open_archive(path, *, lazy: bool = False) -> Archive:
    """Read an archive written by :func:`save` (or by the legacy seed CLI).

    With ``lazy=True`` the file is memory-mapped instead of read: the
    container header is validated up front, the compressed object is parsed
    from the map on first use, and the crc is checked on first decode (see
    the module docstring for the full contract).  The default stays eager —
    fully read, verified, and parsed before returning.
    """
    path = Path(path)
    if lazy:
        return _open_lazy(path)
    data = path.read_bytes()
    if len(data) >= 8 and data[:8] == LEGACY_MAGIC:
        return _open_legacy(path, data)
    if len(data) >= 8 and data[:8] == APPEND_MAGIC:
        return _open_append(path, data, lazy=False)
    if len(data) < _HEADER.size:
        raise ValueError(f"{path}: not a repro archive (file too short)")
    magic, digits, crc, frame_len = _HEADER.unpack_from(data)
    if magic != ARCHIVE_MAGIC:
        raise ValueError(f"{path}: not a repro archive (bad magic)")
    frame = data[_HEADER.size :]
    if len(frame) != frame_len:
        raise ValueError(
            f"{path}: truncated or padded archive "
            f"(header says {frame_len} frame bytes, found {len(frame)})"
        )
    if zlib.crc32(frame) != crc:
        raise ValueError(f"{path}: archive checksum mismatch (corrupt payload)")
    compressed = load_compressed(frame)
    return Archive(
        compressed=compressed,
        digits=digits,
        codec_id=compressed.codec_id or "",
        params=dict(compressed.codec_params or {}),
        path=path,
    )


def _open_lazy(path: Path) -> Archive:
    view = mmap_view(path)
    if view is None:
        # Empty file or mmap-hostile filesystem: the eager path raises the
        # proper diagnostics (or handles the short file).
        return open_archive(path, lazy=False)
    mapped = view.obj
    if view.nbytes >= 8 and view[:8] == LEGACY_MAGIC:
        # The legacy format has no frame/crc to defer; parse it straight off
        # the map (zero-copy: NeaTSStorage adopts the mapped arrays).
        return _open_legacy(path, view)
    if view.nbytes >= 8 and view[:8] == APPEND_MAGIC:
        # Record headers parse zero-copy off the map; each record's frame
        # is crc-checked and decoded on its own first touch.
        return _open_append(path, view, lazy=True)
    if view.nbytes < _HEADER.size:
        raise ValueError(f"{path}: not a repro archive (file too short)")
    magic, digits, crc, frame_len = _HEADER.unpack_from(view)
    if magic != ARCHIVE_MAGIC:
        raise ValueError(f"{path}: not a repro archive (bad magic)")
    frame_view = view[_HEADER.size :]
    if frame_view.nbytes != frame_len:
        raise ValueError(
            f"{path}: truncated or padded archive "
            f"(header says {frame_len} frame bytes, found {frame_view.nbytes})"
        )
    # Parses only the fixed frame header; payload decoding is deferred.
    frame = serialize.read_frame(frame_view)
    return _LazyArchive(
        digits=digits,
        path=path,
        mapped=mapped,
        frame_view=frame_view,
        frame=frame,
        crc=crc,
    )


# -- the appendable multi-frame container (RPAL0001) ---------------------------


def _scan_append(buf, path):
    """Parse an ``RPAL0001`` buffer: header plus every *complete* record.

    Returns ``(digits, codec_id, params, records, end)`` where ``records``
    is a list of ``(frame start, frame length, crc32, cumulative count)``
    and ``end`` is the offset just past the last complete record.  Bytes
    beyond ``end`` are a tail torn by an interrupted append: appends are
    strictly ordered fsync'd tail writes, so only the final record can be
    incomplete — it is ignored here and truncated by the next writer.
    Structural damage inside the header (not appendable, bad params)
    raises; a torn tail never does.
    """
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    if view.nbytes < _APPEND_HEADER.size:
        raise ValueError(f"{path}: truncated appendable archive header")
    magic, digits, idlen, plen = _APPEND_HEADER.unpack_from(view)
    if magic != APPEND_MAGIC:
        raise ValueError(f"{path}: not an appendable archive (bad magic)")
    pos = _APPEND_HEADER.size
    if view.nbytes < pos + idlen + plen:
        raise ValueError(f"{path}: truncated appendable archive header")
    codec_id = bytes(view[pos : pos + idlen]).decode("utf-8")
    try:
        params = json.loads(bytes(view[pos + idlen : pos + idlen + plen]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt appendable archive params") from exc
    if not isinstance(params, dict):
        raise ValueError(f"{path}: corrupt appendable archive params")
    pos += idlen + plen
    records, total, end = [], 0, pos
    while view.nbytes - pos >= _RECORD.size:
        frame_len, crc, cum = _RECORD.unpack_from(view, pos)
        start = pos + _RECORD.size
        if start + frame_len > view.nbytes or cum <= total:
            break  # torn tail: the record header never finished landing
        try:
            span = serialize.frame_span(view[start : start + frame_len])
        except ValueError:
            break  # frame header torn mid-write
        if span != frame_len:
            break
        records.append((start, frame_len, crc, cum))
        total = cum
        pos = end = start + frame_len
    return digits, codec_id, params, records, end


class _AppendRun:
    """One record of an appendable archive: a frame slice plus its crc."""

    __slots__ = ("frame", "crc", "count", "compressed", "verified")

    def __init__(self, frame, crc: int, count: int) -> None:
        self.frame = frame
        self.crc = crc
        self.count = count
        self.compressed: Compressed | None = None
        self.verified = False


class _MultiRunCompressed(Compressed):
    """The record sequence of an appendable archive as one ``Compressed``.

    ``access``/``decompress_range`` binary-search the cumulative counts
    (the :class:`~repro.core.tiered.RunIndex` machinery shared with the
    tiered store) to touch only the records a query needs.  Each record is
    crc-verified and parsed on the first decode of *that* record — the
    per-record analogue of the lazy archive contract — so a point query
    into a 100-record archive pays for one record, not one hundred.
    """

    def __init__(
        self,
        runs: list[_AppendRun],
        *,
        codec_id: str,
        codec_params: dict,
        path=None,
        source=None,
    ) -> None:
        from ..core.tiered import RunIndex

        self._runs = runs
        self._index = RunIndex([run.count for run in runs])
        self._n = self._index.total
        self._path = path
        self._source = source  # keeps an mmap alive alongside the views
        self._closed = False
        self.truncated_bytes = 0  # torn-tail bytes ignored at open, if any
        self.codec_id = codec_id
        self.codec_params = dict(codec_params)

    @property
    def num_runs(self) -> int:
        """Number of append records (one per :meth:`AppendableArchive.append`)."""
        return len(self._runs)

    def close(self) -> None:
        """Drop every record's frame view and release the backing map."""
        if self._closed:
            return
        self._closed = True
        for run in self._runs:
            run.compressed = None
            run.frame = None
        source, self._source = self._source, None
        if source is None:
            return
        obj = source.obj
        try:
            source.release()
            if isinstance(obj, mmap.mmap):
                obj.close()
        except BufferError:
            pass  # decoded arrays still reference the map: deferred close

    def _run(self, i: int) -> Compressed:
        if self._closed:
            raise ValueError(f"{self._path}: archive is closed")
        run = self._runs[i]
        if run.compressed is None:
            if not run.verified:
                if zlib.crc32(run.frame) != run.crc:
                    raise ValueError(
                        f"{self._path}: appendable archive record {i} "
                        "checksum mismatch (corrupt record)"
                    )
                run.verified = True
            compressed = load_compressed(run.frame)
            if len(compressed) != run.count:
                raise ValueError(
                    f"{self._path}: appendable archive record {i} holds "
                    f"{len(compressed)} values, record header says {run.count}"
                )
            run.compressed = compressed
        return run.compressed

    def _load_all(self) -> None:
        """Verify and parse every record (the eager open path)."""
        for i in range(len(self._runs)):
            self._run(i)

    def access(self, k: int) -> int:
        if not 0 <= k < self._n:
            raise IndexError(k)
        i, local = self._index.locate(k)
        return self._run(i).access(local)

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi <= self._n:
            raise IndexError((lo, hi))
        out = [
            self._run(i).decompress_range(a, b)
            for i, a, b in self._index.spans(lo, hi)
        ]
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)

    def decompress(self) -> np.ndarray:
        return self.decompress_range(0, self._n)

    def size_bits(self) -> int:
        return sum(self._run(i).size_bits() for i in range(len(self._runs)))

    def to_bytes(self) -> bytes:
        """One frame covering every record — what sealing compacts to.

        Appendable codecs are lossless (enforced at :meth:`create` time),
        so recompressing the concatenated values with the recorded codec
        and params yields exactly the frame a one-shot compression of the
        full series would have produced.
        """
        fresh = get_codec(self.codec_id, **self.codec_params).compress(
            self.decompress()
        )
        return fresh.to_bytes()


def _open_append(path: Path, buf, *, lazy: bool) -> Archive:
    """An :class:`Archive` over an ``RPAL0001`` buffer (bytes or mmap view)."""
    digits, codec_id, params, records, end = _scan_append(buf, path)
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    runs, total = [], 0
    for start, frame_len, crc, cum in records:
        runs.append(_AppendRun(view[start : start + frame_len], crc, cum - total))
        total = cum
    compressed = _MultiRunCompressed(
        runs,
        codec_id=codec_id,
        codec_params=params,
        path=path,
        source=view if lazy else None,
    )
    compressed.truncated_bytes = view.nbytes - end
    if not lazy:
        compressed._load_all()  # eager contract: errors surface at open time
    return Archive(
        compressed=compressed,
        digits=digits,
        codec_id=codec_id,
        params=dict(params),
        path=path,
    )


class AppendableArchive:
    """The writer handle of an ``RPAL0001`` appendable archive.

    Create one with :meth:`create` (new file) or :meth:`open` (resume an
    existing one) — or :func:`append_open`, which picks.  Each
    :meth:`append` compresses only the new values and lands them as one
    fsync'd tail record: O(new values) work however large the sealed
    history is.  Reading goes through :func:`open_archive`, which serves
    the records as a single logical series; :meth:`seal` compacts the
    archive into a one-shot ``RPAC0001`` file.

    The handle is single-writer: two handles appending to the same file
    interleave records and corrupt the tail.  Opening a file whose final
    record was torn by a crash truncates the torn tail before the first
    new append, so sealed records are never overwritten.
    """

    def __init__(self) -> None:  # use create()/open()/append_open()
        self.path: Path = Path()
        self.digits = 0
        self.codec_id = ""
        self.params: dict = {}
        self._total = 0
        self._num_records = 0
        self._end = 0
        self._compressor = None
        self._sealed = False

    @classmethod
    def create(cls, path, *, codec: str = "gorilla", digits: int = 0, **params):
        """Start a new appendable archive at ``path`` (header only, atomic).

        ``codec`` must be a lossless registry id: appends and seals
        recompress decoded values, and recompressing an *approximation*
        would compound a lossy codec's error beyond its ε guarantee.
        """
        if codec_spec(codec).lossy:
            raise ValueError(
                f"appendable archives require a lossless codec, got {codec!r}: "
                "sealing recompresses decoded values, which would "
                "re-approximate an approximation"
            )
        get_codec(codec, **params)  # probe: bad params must fail before I/O
        path = Path(path)
        if path.exists():
            raise ValueError(
                f"{path} already exists; use AppendableArchive.open (or "
                "append_open) to resume it"
            )
        cid = codec.encode("utf-8")
        pjson = json.dumps(params or {}, sort_keys=True).encode("utf-8")
        header = _APPEND_HEADER.pack(APPEND_MAGIC, int(digits), len(cid),
                                     len(pjson)) + cid + pjson
        write_atomic(path, header)
        archive = cls()
        archive.path = path
        archive.digits = int(digits)
        archive.codec_id = codec
        archive.params = dict(params)
        archive._end = len(header)
        return archive

    @classmethod
    def open(cls, path):
        """Resume an existing appendable archive for writing.

        Scans the record headers (no payload decoding — O(records) seeks),
        positions the write cursor after the last complete record, and
        drops any torn tail so the next append lands on sealed ground.
        """
        path = Path(path)
        data = path.read_bytes()
        if data[:8] == ARCHIVE_MAGIC:
            raise ValueError(
                f"{path} is a sealed one-shot archive (RPAC0001); it cannot "
                "be appended to — create a new appendable archive instead"
            )
        digits, codec_id, params, records, end = _scan_append(data, path)
        archive = cls()
        archive.path = path
        archive.digits = digits
        archive.codec_id = codec_id
        archive.params = dict(params)
        archive._total = records[-1][3] if records else 0
        archive._num_records = len(records)
        archive._end = end
        if len(data) > end:  # torn tail from a crashed append: drop it now
            with open(path, "r+b") as fh:
                fh.truncate(end)
                fh.flush()
                os.fsync(fh.fileno())
        return archive

    def __len__(self) -> int:
        return self._total

    @property
    def num_records(self) -> int:
        """Records written so far (one per successful :meth:`append`)."""
        return self._num_records

    def _codec(self):
        if self._compressor is None:
            self._compressor = get_codec(self.codec_id, **self.params)
        return self._compressor

    def append(self, values) -> int:
        """Compress ``values`` and append them as one fsync'd tail record.

        Returns the new total value count.  The record is on disk when
        this returns; a crash mid-write tears only this record, which
        openers skip and the next writer truncates.  Appending an empty
        array is a no-op.
        """
        if self._sealed:
            raise ValueError(
                f"{self.path} was sealed into a one-shot archive; this "
                "handle can no longer append"
            )
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise ValueError("expected a 1-D array")
        if len(values) == 0:
            return self._total
        frame = self._codec().compress(values).to_bytes()
        new_total = self._total + len(values)
        record = _RECORD.pack(len(frame), zlib.crc32(frame), new_total) + frame
        with open(self.path, "r+b") as fh:
            fh.seek(self._end)
            fh.write(record)
            fh.flush()
            os.fsync(fh.fileno())
        self._end += len(record)
        self._total = new_total
        self._num_records += 1
        return new_total

    def seal(self, dst=None) -> Path:
        """Compact the record sequence into a one-shot ``RPAC0001`` archive.

        Decodes every record (verifying each crc), recompresses the full
        series as a single frame, and writes it atomically to ``dst``
        (default: in place, replacing the appendable file).  The handle
        refuses further appends afterwards.
        """
        if self._total == 0:
            raise ValueError(f"cannot seal {self.path}: no records appended yet")
        archive = open_archive(self.path)  # eager: every record verified
        target = Path(dst) if dst is not None else self.path
        save(target, archive)
        self._sealed = True
        return target


def append_open(
    path, *, codec: str | None = None, digits: int | None = None, **params
):
    """Open ``path`` for appending, creating the archive when missing.

    The facade of the streaming ingest path (``repro.append_open``).  For
    an existing archive the recorded configuration wins; passing ``codec``,
    ``digits``, or ``params`` that contradict it raises instead of silently
    mixing frames from different compressors or decimal scalings.  When
    creating, ``codec`` defaults to ``"gorilla"`` and ``digits`` to 0.
    """
    path = Path(path)
    if path.exists():
        archive = AppendableArchive.open(path)
        if codec is not None and codec != archive.codec_id:
            raise ValueError(
                f"{path} was created with codec {archive.codec_id!r}; "
                f"cannot append with {codec!r}"
            )
        if digits is not None and int(digits) != archive.digits:
            raise ValueError(
                f"{path} records digits={archive.digits}; appending "
                f"digits={int(digits)} values would mix scales"
            )
        if params and dict(params) != archive.params:
            raise ValueError(
                f"{path} was created with params {archive.params!r}; "
                f"cannot append with {dict(params)!r}"
            )
        return archive
    return AppendableArchive.create(
        path, codec=codec or "gorilla", digits=digits or 0, **params
    )


def _scan_group(data, path):
    """Parse an ``RPGW0001`` buffer: header plus every *complete* record.

    Returns ``(codec_id, params, records, end)`` where ``records`` is a
    list of ``(series id, digits, frame start, frame length, crc32)`` and
    ``end`` is the offset just past the last complete record.  Like
    :func:`_scan_append`, bytes beyond ``end`` are a tail torn by an
    interrupted group write — ignored here, truncated by the next writer.
    Structural damage in the header raises; a torn tail never does.
    """
    view = memoryview(data)
    if view.nbytes < _GROUP_HEADER.size:
        raise ValueError(f"{path}: truncated group log header")
    magic, idlen, plen = _GROUP_HEADER.unpack_from(view)
    if magic != GROUP_MAGIC:
        raise ValueError(f"{path}: not a group log (bad magic)")
    pos = _GROUP_HEADER.size
    if view.nbytes < pos + idlen + plen:
        raise ValueError(f"{path}: truncated group log header")
    codec_id = bytes(view[pos : pos + idlen]).decode("utf-8")
    try:
        params = json.loads(bytes(view[pos + idlen : pos + idlen + plen]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt group log params") from exc
    if not isinstance(params, dict):
        raise ValueError(f"{path}: corrupt group log params")
    pos += idlen + plen
    records, end = [], pos
    while view.nbytes - pos >= _GROUP_RECORD.size:
        sid_len, digits, frame_len, crc = _GROUP_RECORD.unpack_from(view, pos)
        sid_start = pos + _GROUP_RECORD.size
        frame_start = sid_start + sid_len
        if sid_len == 0 or frame_start + frame_len > view.nbytes:
            break  # torn tail: the record never finished landing
        try:
            sid = bytes(view[sid_start:frame_start]).decode("utf-8")
        except UnicodeDecodeError:
            break  # series id torn mid-write
        try:
            span = serialize.frame_span(view[frame_start : frame_start + frame_len])
        except ValueError:
            break  # frame header torn mid-write
        if span != frame_len:
            break
        records.append((sid, digits, frame_start, frame_len, crc))
        pos = end = frame_start + frame_len
    return codec_id, params, records, end


class GroupLog:
    """The write-ahead log of a SeriesDB directory (``RPGW0001``).

    One shared log per directory: every record carries its series id and
    digits alongside the codec frame, so one ``ingest_many`` batch —
    however many series it touches — lands as a single tail write with a
    single ``fsync`` (the group commit).  Layout::

        +----------+----------+--------+
        | RPGW0001 | codec id | params |                       (header)
        +----------+----------+--------+
        | sid len | digits | frame len | crc32 | sid | frame | (record 0)
        | sid len | digits | frame len | crc32 | sid | frame | (record 1)
        | ...

    Records from different series interleave in ingest order; recovery
    (:func:`read_group_log`) regroups them per series.  The torn-tail
    contract matches :class:`AppendableArchive`: strictly ordered tail
    writes mean a crash can only tear the final write's suffix, which
    openers skip and the next writer truncates.
    """

    def __init__(self) -> None:  # use create()/open()
        self.path: Path = Path()
        self.codec_id = ""
        self.params: dict = {}
        self._num_records = 0
        self._end = 0

    @classmethod
    def create(cls, path, *, codec: str = "gorilla", **params) -> "GroupLog":
        """Start a new group log at ``path`` (header only, atomic)."""
        if codec_spec(codec).lossy:
            raise ValueError(
                f"group logs require a lossless codec, got {codec!r}: "
                "replay re-ingests decoded values, which would "
                "re-approximate an approximation"
            )
        get_codec(codec, **params)  # probe: bad params must fail before I/O
        path = Path(path)
        if path.exists():
            raise ValueError(
                f"{path} already exists; use GroupLog.open to resume it"
            )
        cid = codec.encode("utf-8")
        pjson = json.dumps(params or {}, sort_keys=True).encode("utf-8")
        header = _GROUP_HEADER.pack(GROUP_MAGIC, len(cid), len(pjson))
        write_atomic(path, header + cid + pjson)
        log = cls()
        log.path = path
        log.codec_id = codec
        log.params = dict(params)
        log._end = _GROUP_HEADER.size + len(cid) + len(pjson)
        return log

    @classmethod
    def open(cls, path) -> "GroupLog":
        """Resume an existing group log for writing (drops any torn tail)."""
        path = Path(path)
        data = path.read_bytes()
        codec_id, params, records, end = _scan_group(data, path)
        log = cls()
        log.path = path
        log.codec_id = codec_id
        log.params = dict(params)
        log._num_records = len(records)
        log._end = end
        if len(data) > end:  # torn tail from a crashed write: drop it now
            with open(path, "r+b") as fh:
                fh.truncate(end)
                fh.flush()
                os.fsync(fh.fileno())
        return log

    @property
    def num_records(self) -> int:
        """Records written so far (one per appended frame)."""
        return self._num_records

    def append_group(self, records) -> int:
        """Land a whole ingest batch as one fsync'd tail write.

        ``records`` is an iterable of ``(series_id, digits, frame)``
        triples, ``frame`` being the ``Compressed.to_bytes`` layout of the
        record's values in this log's codec — the caller compresses, so a
        hot block it also adopts into a shard is encoded once.  Each triple
        becomes one record, and ALL of them share a single write +
        ``fsync`` — the group commit.  Returns the number of records
        written.
        """
        blob, written = bytearray(), 0
        for series_id, digits, frame in records:
            if not series_id:
                raise ValueError("group log records need a non-empty series id")
            # The recovery scan cuts the log at the first record whose frame
            # header disagrees with its length, taking every later record
            # with it: refuse such a frame here instead.
            span = serialize.frame_span(frame)
            if span != len(frame):
                raise ValueError(
                    f"series {series_id!r}: frame is {len(frame)} bytes but "
                    f"its header spans {span}; not one whole codec frame"
                )
            sid = series_id.encode("utf-8")
            blob += _GROUP_RECORD.pack(
                len(sid), int(digits), len(frame), zlib.crc32(frame)
            )
            blob += sid + frame
            written += 1
        if not written:
            return 0
        with open(self.path, "r+b") as fh:
            fh.seek(self._end)
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        self._end += len(blob)
        self._num_records += written
        return written


def read_group_log(path):
    """Decode a group log into ``[(series_id, digits, values), ...]``.

    The recovery-side reader: every complete record is crc-verified and
    decompressed; a torn tail is skipped exactly as :meth:`GroupLog.open`
    would truncate it.  A crc mismatch on a *sealed* record is real
    corruption (not a crash artefact) and raises.
    """
    path = Path(path)
    data = path.read_bytes()
    codec_id, params, records, _end = _scan_group(data, path)
    view = memoryview(data)
    out = []
    for sid, digits, start, frame_len, crc in records:
        frame = view[start : start + frame_len]
        if zlib.crc32(frame) != crc:
            raise ValueError(
                f"{path}: crc mismatch in group log record for series {sid!r}"
            )
        values = load_compressed(bytes(frame)).decompress()
        out.append((sid, digits, np.asarray(values, dtype=np.int64)))
    return out


def _open_legacy(path: Path, data) -> Archive:
    """Decode the seed CLI's ``NTSF0001`` format (NeaTS storage + digits)."""
    from ..core.compressor import CompressedSeries
    from ..core.storage import NeaTSStorage

    if len(data) < 12:
        raise ValueError(f"{path}: truncated legacy NeaTS archive")
    (digits,) = struct.unpack_from("<i", data, 8)
    storage = NeaTSStorage.from_bytes(data[12:])
    compressed = CompressedSeries(storage, [], 64 * storage.n)
    compressed.codec_id = "neats"
    compressed.codec_params = {}
    return Archive(
        compressed=compressed, digits=digits, codec_id="neats", params={}, path=path
    )
