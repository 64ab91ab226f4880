"""Two-tier ingestion store: fast streaming writes, NeaTS at rest.

§IV-C1 of the paper sketches the deployment NeaTS is designed for: "we could
imagine using a lightweight compressor like ALP or Gorilla when the time
series is first ingested, and running NeaTS later on (or in the background)
to provide much more effective compression and efficient query operations in
the long run".  :class:`TieredStore` is that architecture:

* appends land in an uncompressed **write buffer**;
* full buffers are sealed into a **hot tier** with a cheap streaming codec
  (``"gorilla"`` by default — microsecond sealing, weak ratio), which must
  be lossless: the store refuses a lossy hot codec;
* :meth:`consolidate` migrates sealed hot blocks into the **cold tier**
  (``"neats"`` by default) — the "background" recompression step.  With a
  lossless cold codec the whole tier is re-merged into one run; with a
  *lossy* cold codec (error-bounded, e.g. ``"neats_l"``) each consolidation
  appends a **new** cold run covering only the migrated hot values, and
  existing runs are never decoded and re-approximated — approximating an
  approximation would compound the error beyond the codec's ε guarantee,
  so every cold run is always an ε-approximation of the *original* values
  it holds.

Both tiers take *any* codec from the registry, by id::

    store = TieredStore(hot_codec="zstd", cold_codec="leats")

and every sealed block implements the unified ``Compressed`` protocol, so
the whole store serialises: :meth:`to_bytes` / :meth:`from_bytes` persist
cold runs and hot blocks in their native framed layouts, and a non-empty
write buffer as one more frame of the hot codec (the *tail frame*), so a
flushed tail is stored compressed, never as raw int64.  A reloaded store
answers from the tail frame and decodes it into the write buffer only on
its first append; block boundaries never depend on when a snapshot was
taken.

All three tiers answer ``access``/``range`` transparently.

A :class:`TieredStore` is the per-series engine inside every
``repro.store`` database: one per series in a single-dir
:class:`~repro.store.seriesdb.SeriesDB`, and one per series *per
partition* behind the :class:`~repro.store.partitioned.PartitionedSeriesDB`
façade — the partitioning layer routes to a store like this one and never
changes its tiering behaviour.
"""

from __future__ import annotations

import json
import zlib
from array import array
from typing import Callable

import numpy as np

from ..baselines._native import INT64, UINT32

__all__ = ["RunIndex", "TieredStore"]

_MAGIC = b"RPTS0001"


class RunIndex:
    """Binary search over the cumulative value counts of ordered runs.

    The multi-run machinery shared by everything that stitches a sequence
    of independently compressed blocks into one logical series: the tiered
    store's cold-runs + hot-blocks chain, and the appendable archive's
    record sequence (:mod:`repro.codecs.container`).  ``locate`` maps a
    global position to ``(run index, local position)`` in O(log runs);
    ``spans`` decomposes a global ``[lo, hi)`` range into per-run slices.
    """

    __slots__ = ("_cum",)

    def __init__(self, counts) -> None:
        self._cum = np.cumsum(np.asarray(list(counts), dtype=np.int64))

    def __len__(self) -> int:
        return len(self._cum)

    @property
    def total(self) -> int:
        """Total values across every run."""
        return int(self._cum[-1]) if len(self._cum) else 0

    def start(self, i: int) -> int:
        """Global position of the first value of run ``i``."""
        return int(self._cum[i - 1]) if i else 0

    def locate(self, k: int) -> tuple[int, int]:
        """``(run index, local position)`` of global position ``k``."""
        i = int(np.searchsorted(self._cum, k, side="right"))
        return i, k - self.start(i)

    def spans(self, lo: int, hi: int):
        """Yield ``(run index, local lo, local hi)`` covering ``[lo, hi)``."""
        if lo >= hi:
            return
        first = int(np.searchsorted(self._cum, lo, side="right"))
        for i in range(first, len(self._cum)):
            start = self.start(i)
            if start >= hi:
                break
            yield i, max(lo, start) - start, min(hi, int(self._cum[i])) - start


def _is_lossy(codec, codec_id: str | None) -> bool:
    """Whether a tier codec is error-bounded (the registry flag wins)."""
    from .. import codecs
    from ..baselines.base import LossyCompressor

    if codec_id is not None:
        return codecs.codec_spec(codec_id).lossy
    # A pre-built instance may be a registry proxy (get_codec output): its
    # spec knows; otherwise unwrap and check the compressor itself.
    spec = getattr(codec, "spec", None)
    if isinstance(spec, codecs.CodecSpec):
        return spec.lossy
    inner = getattr(codec, "_inner", codec)
    return isinstance(inner, LossyCompressor)


def _resolve(codec, params: dict | None):
    """A (compressor, codec_id, params) triple from an id or an instance."""
    from ..codecs import get_codec

    if isinstance(codec, str):
        params = dict(params or {})
        return get_codec(codec, **params), codec, params
    # A pre-built compressor instance (legacy API): usable, but the store
    # cannot name it in a persisted header.
    return codec, None, {}


class TieredStore:
    """An append-only time series store with background consolidation.

    Parameters
    ----------
    seal_threshold:
        Buffer size (values) at which a hot block is sealed.
    hot_codec / cold_codec:
        Registry id (e.g. ``"gorilla"``, ``"zstd"``, ``"neats"``) or a
        pre-built compressor instance.  Ids are required for
        :meth:`to_bytes` persistence.  The hot codec must be lossless: a
        snapshot encodes the write buffer with it and consolidation decodes
        it, so a lossy one would approximate values twice.
    hot_params / cold_params:
        Constructor params forwarded to the codec factories.
    """

    def __init__(
        self,
        seal_threshold: int = 4096,
        hot_codec="gorilla",
        cold_codec="neats",
        *,
        hot_params: dict | None = None,
        cold_params: dict | None = None,
        hot_compressor=None,
        cold_compressor=None,
    ) -> None:
        if seal_threshold < 1:
            raise ValueError("seal_threshold must be positive")
        # Legacy keyword aliases (pre-registry API) take precedence when given.
        if hot_compressor is not None:
            hot_codec = hot_compressor
        if cold_compressor is not None:
            cold_codec = cold_compressor
        self._seal_threshold = seal_threshold
        self._hot_codec, self._hot_id, self._hot_params = _resolve(
            hot_codec, hot_params
        )
        if _is_lossy(self._hot_codec, self._hot_id):
            raise ValueError(
                f"hot tier cannot use lossy codec {self._hot_id or hot_codec!r}: "
                "snapshots encode the write buffer with it and consolidation "
                "decodes it, and re-approximating an approximation would "
                "compound the error beyond any bound"
            )
        self._cold_codec, self._cold_id, self._cold_params = _resolve(
            cold_codec, cold_params
        )
        # Native int64, 8 B per value (a list of ints costs ~36 B): a
        # SeriesDB keeps every dirty shard's buffer in memory until it flushes.
        self._buffer = array("q")
        # The write buffer as :meth:`from_bytes` found it: a hot-codec frame,
        # answered from in place until the first mutation decodes it into
        # ``_buffer`` (see :meth:`_thaw`).  ``_buffer`` is empty meanwhile.
        self._tail = None
        self._hot: list = []  # sealed Compressed blocks, in order
        self._hot_counts: list[int] = []
        self._cold: list = []  # consolidated Compressed runs, in order
        self._cold_counts: list[int] = []
        self._run_index: RunIndex | None = None  # rebuilt after mutations
        # External-synchronisation contract: a TieredStore is NOT
        # thread-safe; whoever shares one across threads owns the locking
        # (SeriesDB holds its RLock around every store call).  An owner —
        # or the REPRO_SANITIZE sanitizer — can arm this hook and every
        # mutating entry point (append/extend/adopt_sealed/consolidate)
        # will call it first, so unsynchronised mutation is detectable
        # instead of silently corrupting tiers.
        self._guard: Callable[[], None] | None = None

    def _assert_guarded(self) -> None:
        if self._guard is not None:
            self._guard()

    # -- ingestion ------------------------------------------------------------

    def append(self, value: int) -> None:
        """Append one value; seals the buffer when it reaches the threshold.

        Not thread-safe: callers sharing this store synchronise externally
        (see ``_guard``).
        """
        self._assert_guarded()
        self._thaw()
        self._buffer.append(int(value))
        if len(self._buffer) >= self._seal_threshold:
            self._seal()

    def extend(self, values) -> None:
        """Append many values, sealing full blocks in bulk.

        Equivalent to calling :meth:`append` once per value (block
        boundaries land in the same places), but full
        ``seal_threshold``-sized chunks are compressed directly from the
        input array instead of round-tripping through the Python-level
        write buffer — this is the batch-ingest hot path.

        Not thread-safe: callers sharing this store synchronise externally
        (see ``_guard``).
        """
        self._assert_guarded()
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise ValueError("expected a 1-D array")
        self._thaw()
        pos, n = 0, len(values)
        # Top up a partially filled buffer first so chunk boundaries match
        # the per-value path exactly.
        if self._buffer:
            pos = min(self._seal_threshold - len(self._buffer), n)
            self._buffer.frombytes(values[:pos].tobytes())
            if len(self._buffer) >= self._seal_threshold:
                self._seal()
        while n - pos >= self._seal_threshold:
            chunk = values[pos : pos + self._seal_threshold]
            self._hot.append(self._hot_codec.compress(chunk))
            self._hot_counts.append(len(chunk))
            self._run_index = None
            pos += self._seal_threshold
        self._buffer.frombytes(values[pos:].tobytes())

    def adopt_sealed(self, block) -> None:
        """Append an already-compressed hot block (the parallel ingest path).

        ``block`` is any :class:`~repro.baselines.base.Compressed` holding
        values compressed with this store's hot codec — e.g. a frame
        produced by a :func:`repro.store.compress_many_frames` worker.  The
        write buffer is sealed first so global ordering is preserved.

        Not thread-safe: callers sharing this store synchronise externally
        (see ``_guard``).
        """
        self._assert_guarded()
        if (
            self._hot_id is not None
            and block.codec_id is not None
            and block.codec_id != self._hot_id
        ):
            raise ValueError(
                f"adopted block was compressed with {block.codec_id!r}, "
                f"but this store's hot tier is {self._hot_id!r}"
            )
        n = len(block)  # O(1) for registry codecs and loaded frames
        if n < 1:
            raise ValueError("adopted block must hold at least one value")
        self._thaw()
        self._seal()
        self._hot.append(block)
        self._hot_counts.append(n)
        self._run_index = None

    def _thaw(self) -> None:
        """Decode an adopted tail frame into the write buffer.

        Runs before every mutation, so values are only ever sealed from the
        raw buffer and hot blocks stay byte-identical to serial ingest.
        """
        if self._tail is not None:
            values = np.asarray(self._tail.decompress(), dtype=np.int64)
            self._buffer.frombytes(values.tobytes())
            self._tail = None
            self._run_index = None

    def _seal(self) -> None:
        if not self._buffer:
            return
        chunk = np.array(self._buffer, dtype=np.int64)
        self._hot.append(self._hot_codec.compress(chunk))
        self._hot_counts.append(len(chunk))
        self._run_index = None
        del self._buffer[:]

    def consolidate(self) -> None:
        """Migrate all sealed hot blocks into the cold tier.

        This is the paper's "run NeaTS later on (or in the background)"
        step.  A lossless cold codec decodes the hot tier (and any
        previous cold runs) and recompresses everything into a single
        run.  A lossy cold codec only ever compresses *exact* values —
        the decoded hot blocks — into a fresh run appended after the
        existing ones, so repeated consolidation never re-approximates an
        approximation and the ε guarantee holds against the originals.

        Not thread-safe: callers sharing this store synchronise externally
        (see ``_guard``).
        """
        self._assert_guarded()
        if not self._hot:
            return
        parts = []
        remerge = bool(self._cold) and not _is_lossy(self._cold_codec, self._cold_id)
        if remerge:
            parts.extend(run.decompress() for run in self._cold)
        parts.extend(block.decompress() for block in self._hot)
        merged = np.concatenate(parts)
        run = self._cold_codec.compress(merged)
        if remerge:
            self._cold = [run]
            self._cold_counts = [len(merged)]
        else:
            self._cold.append(run)
            self._cold_counts.append(len(merged))
        self._hot.clear()
        self._hot_counts.clear()
        self._run_index = None

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(self._cold_counts) + sum(self._hot_counts) + self._buffered()

    def _buffered(self) -> int:
        """Values in the write buffer, raw or still in the tail frame."""
        return len(self._buffer) if self._tail is None else len(self._tail)

    def _index(self) -> RunIndex:
        """The cumulative-count index over cold runs, hot blocks, tail frame."""
        if self._run_index is None:
            tail = [] if self._tail is None else [len(self._tail)]
            self._run_index = RunIndex(self._cold_counts + self._hot_counts + tail)
        return self._run_index

    def _run_at(self, i: int):
        """The ``i``-th frame in global order: cold, then hot, then the tail."""
        if i < len(self._cold):
            return self._cold[i]
        i -= len(self._cold)
        return self._hot[i] if i < len(self._hot) else self._tail

    def access(self, k: int) -> int:
        """The value at global position ``k``, whatever tier holds it."""
        if not 0 <= k < len(self):
            raise IndexError(k)
        index = self._index()
        if k < index.total:
            i, local = index.locate(k)
            return self._run_at(i).access(local)
        return self._buffer[k - index.total]

    def range(self, lo: int, hi: int) -> np.ndarray:
        """Values at global positions ``[lo, hi)`` across tiers."""
        if not 0 <= lo <= hi <= len(self):
            raise IndexError((lo, hi))
        index = self._index()
        out = [
            self._run_at(i).decompress_range(a, b)
            for i, a, b in index.spans(lo, min(hi, index.total))
        ]
        if hi > index.total:  # tail lives in the raw write buffer
            local_lo = max(lo, index.total) - index.total
            out.append(
                np.array(self._buffer[local_lo : hi - index.total], dtype=np.int64)
            )
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)

    def decompress(self) -> np.ndarray:
        """Every stored value, in order."""
        return self.range(0, len(self))

    # -- accounting ------------------------------------------------------------------

    def size_bits(self) -> int:
        """Total compressed footprint plus the write buffer.

        A raw buffer counts 64 bits per value, a tail frame its own size.
        """
        total = 64 * len(self._buffer)
        if self._tail is not None:
            total += self._tail.size_bits()
        total += sum(block.size_bits() for block in self._hot)
        total += sum(run.size_bits() for run in self._cold)
        return total

    def tier_report(self) -> dict:
        """Value and block counts by tier; :meth:`size_bits` gives the footprint."""
        return {
            "buffer_values": self._buffered(),
            "hot_blocks": len(self._hot),
            "hot_values": sum(self._hot_counts),
            "cold_runs": len(self._cold),
            "cold_values": sum(self._cold_counts),
            "hot_codec": self._hot_id,
            "cold_codec": self._cold_id,
        }

    # -- persistence ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the whole store: cold runs, hot blocks, and buffer.

        Sealed blocks are written in their codecs' framed layouts (see
        :mod:`repro.codecs.serialize`), so nothing is recompressed.  A
        non-empty write buffer is written as one frame of the hot codec
        after the hot blocks: encoded here from the raw buffer, or the
        adopted tail frame written back as-is.  ``buffer_len`` in the
        header counts its values, and ``tail_frame_len`` (present only
        with a tail frame) its bytes, so a store with an empty buffer
        serialises as it always did.  Requires both tiers to be
        configured by codec id.
        """
        if self._hot_id is None or self._cold_id is None:
            raise ValueError(
                "persistence requires codec ids; construct the store with "
                "hot_codec/cold_codec strings (e.g. 'gorilla', 'neats') "
                "instead of compressor instances"
            )
        frames = [block.to_bytes() for block in self._hot]
        cold_frames = [run.to_bytes() for run in self._cold]
        tail = self._tail
        if tail is None and self._buffer:
            tail = self._hot_codec.compress(np.array(self._buffer, dtype=np.int64))
        meta = {
            "seal_threshold": self._seal_threshold,
            "hot_codec": self._hot_id,
            "hot_params": self._hot_params,
            "cold_codec": self._cold_id,
            "cold_params": self._cold_params,
            "hot_counts": self._hot_counts,
            "cold_counts": self._cold_counts,
            "buffer_len": self._buffered(),
            "frame_lens": [len(f) for f in frames],
            "cold_frame_lens": [len(f) for f in cold_frames],
        }
        if tail is not None:
            frames.append(tail.to_bytes())
            meta["tail_frame_len"] = len(frames[-1])
        meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
        body = bytearray(INT64.pack(len(meta_b)))
        body += meta_b
        for frame in cold_frames:
            body += frame
        for frame in frames:
            body += frame
        # Same integrity story as the archive container: crc32 over the body
        # so bit rot in a snapshot fails loudly instead of decoding wrong.
        return _MAGIC + UINT32.pack(zlib.crc32(bytes(body))) + bytes(body)

    @classmethod
    def from_bytes(cls, data) -> "TieredStore":
        """Rebuild a store serialised with :meth:`to_bytes`.

        ``data`` may be any byte buffer; passing a ``memoryview`` (e.g. over
        an mmapped shard file) parses the sealed frames zero-copy — they
        keep referencing the underlying buffer, which must stay alive.  A
        tail frame is adopted the same way and answers reads in place; the
        first ``append``/``extend``/``adopt_sealed`` decodes it into the
        write buffer.  A snapshot with a raw int64 buffer (written before
        tail frames) loads into the write buffer, and its next
        :meth:`to_bytes` encodes it.  A tail frame whose value count is not
        ``buffer_len``, or whose codec is not the hot codec, is refused.
        """
        from ..baselines.base import Compressed

        if len(data) < 20 or data[:8] != _MAGIC:
            raise ValueError("not a TieredStore byte string")
        (crc,) = UINT32.unpack_from(data, 8)
        if zlib.crc32(data[12:]) != crc:
            raise ValueError("TieredStore snapshot checksum mismatch (corrupt)")
        (meta_len,) = INT64.unpack_from(data, 12)
        pos = 20
        try:
            meta = json.loads(bytes(data[pos : pos + meta_len]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError("corrupt TieredStore header") from exc
        pos += meta_len
        store = cls(
            seal_threshold=meta["seal_threshold"],
            hot_codec=meta["hot_codec"],
            cold_codec=meta["cold_codec"],
            hot_params=meta["hot_params"],
            cold_params=meta["cold_params"],
        )
        # The crc only proves the bytes are what to_bytes wrote, not that the
        # metadata is coherent; a crc-valid snapshot with inconsistent counts
        # must raise here, not decode to wrong answers later.
        hot_counts = [int(c) for c in meta["hot_counts"]]
        frame_lens = list(meta["frame_lens"])
        if len(frame_lens) != len(hot_counts):
            raise ValueError(
                f"corrupt TieredStore snapshot: {len(frame_lens)} hot frames "
                f"but {len(hot_counts)} hot counts"
            )
        if "cold_counts" in meta:
            cold_counts = [int(c) for c in meta["cold_counts"]]
            cold_frame_lens = list(meta["cold_frame_lens"])
        else:  # pre-multi-run snapshot: one optional cold run, singular keys
            cold_counts = [int(meta["cold_count"])] if meta["cold_count"] else []
            cold_frame_lens = (
                [meta["cold_frame_len"]] if meta["cold_frame_len"] else []
            )
        if len(cold_frame_lens) != len(cold_counts):
            raise ValueError(
                f"corrupt TieredStore snapshot: {len(cold_frame_lens)} cold "
                f"frames but {len(cold_counts)} cold counts"
            )
        buf_len = int(meta["buffer_len"])
        # A tail frame holds the write buffer after the hot blocks; without
        # one (an empty buffer, or a snapshot written before tail frames)
        # the buffer is raw int64 right after the header.
        tail_frame_lens = [meta["tail_frame_len"]] if "tail_frame_len" in meta else []
        tail_counts = [buf_len] * len(tail_frame_lens)
        if buf_len < 0 or any(c < 1 for c in hot_counts + cold_counts + tail_counts):
            raise ValueError("corrupt TieredStore snapshot: negative tier count")
        if not tail_frame_lens:
            buffer = np.frombuffer(data, dtype=np.int64, count=buf_len, offset=pos)
            store._buffer.frombytes(buffer.tobytes())
            pos += 8 * buf_len
        tail: list = []
        for what, frames, counts, blocks in (
            ("cold run", cold_frame_lens, cold_counts, store._cold),
            ("hot block", frame_lens, hot_counts, store._hot),
            ("tail frame", tail_frame_lens, tail_counts, tail),
        ):
            for frame_len, count in zip(frames, counts):
                end = pos + frame_len
                block = Compressed.from_bytes(data[pos:end])
                if len(block) != count:
                    raise ValueError(
                        f"corrupt TieredStore snapshot: {what} holds "
                        f"{len(block)} values, metadata says {count}"
                    )
                blocks.append(block)
                pos = end
        if tail and tail[0].codec_id != store._hot_id:
            raise ValueError(
                f"corrupt TieredStore snapshot: tail frame was compressed with "
                f"{tail[0].codec_id!r}, but the hot tier is {store._hot_id!r}"
            )
        store._tail = tail[0] if tail else None
        store._hot_counts = hot_counts
        store._cold_counts = cold_counts
        if pos != len(data):
            raise ValueError("corrupt TieredStore byte string: trailing bytes")
        return store
