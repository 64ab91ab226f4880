"""Common interface implemented by every compressor in the repo.

Every compressed series — NeaTS, the 7 special-purpose and the 5
general-purpose baselines — implements :class:`Compressed`, so the benchmark
harness (``repro.bench``), the tiered store, the CLI, and the archive
container all drive the paper's three operations (full decompression, random
access, range queries) plus serialisation through one protocol.

Serialisation is part of the protocol: :meth:`Compressed.to_bytes` emits a
self-describing frame (codec id + params + payload) and
:meth:`Compressed.from_bytes` decodes a frame from *any* registered codec.
Codecs with a compact private layout override :meth:`Compressed.to_payload`;
everyone else inherits the generic values fallback, which round-trips by
re-running the deterministic compressor on load.

Error-bounded compression is a peer of lossless compression here:
:class:`LossyCompressed` extends the protocol with the guaranteed L∞ bound
``eps`` (``|f(x_k) - y_k| <= eps`` for every point, §III-B of the paper) and
the measured-error metrics of §IV-B, and :class:`LossyCompressor` is the
factory counterpart of :class:`LosslessCompressor`.  Lossy objects never use
the generic values fallback — their ``decompress()`` returns the
*approximation*, so re-running the codec on decoded values would not
reproduce the object — which is why :meth:`LossyCompressed.to_bytes` insists
on a native payload.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Compressed",
    "LossyCompressed",
    "LosslessCompressor",
    "LossyCompressor",
    "validate_eps",
]


def validate_eps(eps) -> float:
    """Validate an L∞ error bound: a positive, finite number.

    Every lossy constructor funnels through here so a nonsense bound (zero,
    negative, NaN, infinite, non-numeric) fails at construction time with
    one consistent message instead of silently producing a meaningless
    guarantee.
    """
    try:
        eps = float(eps)
    except (TypeError, ValueError):
        raise ValueError(
            f"eps must be a positive finite error bound, got {eps!r}"
        ) from None
    if not math.isfinite(eps) or eps <= 0:
        raise ValueError(f"eps must be a positive finite error bound, got {eps!r}")
    return eps


class Compressed(ABC):
    """A compressed time series supporting the paper's three operations."""

    #: registry id of the codec that produced this object (set by the
    #: registry wrapper / facade; None when constructed outside the registry)
    codec_id: str | None = None
    #: constructor params of that codec (JSON-serialisable)
    codec_params: dict | None = None
    #: True when to_payload/from_payload use a codec-specific byte layout
    payload_is_native: bool = False
    #: number of values, recorded at construction for O(1) metrics
    _n: int | None = None

    @abstractmethod
    def size_bits(self) -> int:
        """Total compressed size in bits (including access metadata)."""

    @abstractmethod
    def decompress(self) -> np.ndarray:
        """The original int64 values."""

    @abstractmethod
    def access(self, k: int) -> int:
        """The value at 0-based position ``k`` (random access)."""

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        """Values at positions ``[lo, hi)``: random access + scan.

        Subclasses override this when they can do better than a full
        decompression; the fallback is correct but slow by design, mirroring
        how compressors without random access behave.
        """
        return self.decompress()[lo:hi]

    @property
    def n(self) -> int:
        """Number of original values, without decompressing when recorded."""
        if self._n is None:
            self._n = int(len(self.decompress()))
        return self._n

    def __len__(self) -> int:
        return self.n

    def size_bytes(self) -> int:
        """Compressed size in bytes, rounded up."""
        return (self.size_bits() + 7) // 8

    def compression_ratio(self, n: int | None = None) -> float:
        """Compressed bits / uncompressed bits (64 per value) — O(1)."""
        n = n if n is not None else self.n
        return self.size_bits() / (64 * n)

    # -- serialisation ---------------------------------------------------------

    def to_payload(self) -> bytes:
        """The frame payload.  Generic fallback: the (deflated) values."""
        from ..codecs import serialize

        return serialize.encode_values(self.decompress())

    def to_bytes(self) -> bytes:
        """Serialise to a self-describing frame (codec id + params + payload)."""
        from ..codecs import serialize
        from ..codecs.registry import codec_spec

        if self.codec_id is None:
            raise ValueError(
                f"{type(self).__name__} has no codec id; obtain compressed "
                "objects through repro.compress(...) or repro.codecs.get_codec "
                "so serialisation knows which codec to record"
            )
        # The native layout is only written when the registry can load it
        # back; a codec registered without a native loader (e.g. a custom
        # registration of a built-in compressor class) gets the generic
        # values frame, which always round-trips.
        spec = codec_spec(self.codec_id)
        if self.payload_is_native and spec.load_native is not None:
            kind, payload = serialize.KIND_NATIVE, self.to_payload()
        else:
            values = self.decompress()
            if self._n is None:
                self._n = int(len(values))
            kind, payload = serialize.KIND_VALUES, serialize.encode_values(values)
        return serialize.write_frame(
            self.codec_id, self.codec_params or {}, self.n, kind, payload
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Compressed":
        """Decode a frame produced by :meth:`to_bytes`, whatever its codec."""
        from ..codecs.registry import load_compressed

        return load_compressed(data)


class LossyCompressed(Compressed):
    """A compressed series with a guaranteed L∞ error bound (§III-B).

    The contract extending :class:`Compressed`:

    * :attr:`eps` — the guaranteed bound: every reconstructed value is
      within ``eps`` of the original;
    * :meth:`decompress` returns the *approximation* (float64), and
      :meth:`access` the approximated value at one position;
    * :meth:`max_error` / :meth:`mape` measure the realised error against
      the original values (the paper's Table II side metrics);
    * serialisation is always native (:attr:`payload_is_native`): the frame
      payload holds the fitted segments themselves, so a saved archive
      reproduces the exact approximation without re-running the compressor.
      The frame params additionally record ``eps`` and the segment count,
      making archives inspectable without parsing the payload.
    """

    #: the guaranteed L∞ bound, in original value units (set at construction)
    eps: float = 0.0
    payload_is_native = True

    @abstractmethod
    def reconstruct(self) -> np.ndarray:
        """Evaluate the approximation at every position (float64)."""

    @property
    @abstractmethod
    def num_segments(self) -> int:
        """Number of fitted pieces (fragments/segments) in the partition."""

    def decompress(self) -> np.ndarray:
        """The approximation — within ``eps`` of every original value."""
        return self.reconstruct()

    def max_error(self, y: np.ndarray) -> float:
        """Measured L∞ error against the original values ``y``."""
        from ..core.piecewise import max_abs_error

        return max_abs_error(np.asarray(y, dtype=np.float64), self.reconstruct())

    def mape(self, y: np.ndarray) -> float:
        """Mean Absolute Percentage Error against the original values (§IV-B)."""
        from ..core.piecewise import mape

        return mape(np.asarray(y, dtype=np.float64), self.reconstruct())

    @staticmethod
    def _segment_at(segments, k: int):
        """The segment covering position ``k``: binary search over starts."""
        lo, hi = 0, len(segments) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if segments[mid].start <= k:
                lo = mid
            else:
                hi = mid - 1
        return segments[lo]

    def _check_position(self, k: int) -> int:
        k = int(k)
        if not 0 <= k < self.n:
            raise IndexError(k)
        return k

    def to_bytes(self) -> bytes:
        """Serialise to a native frame; lossy codecs have no values fallback.

        The recorded params are augmented with the guaranteed ``eps`` and
        the segment count, so the frame header describes the approximation
        (and the loader can cross-check it) without touching the payload.
        """
        from ..codecs import serialize
        from ..codecs.registry import codec_spec

        if self.codec_id is None:
            raise ValueError(
                f"{type(self).__name__} has no codec id; obtain compressed "
                "objects through repro.compress(...) or repro.codecs.get_codec "
                "so serialisation knows which codec to record"
            )
        spec = codec_spec(self.codec_id)
        if not self.payload_is_native or spec.load_native is None:
            raise ValueError(
                f"lossy codec {self.codec_id!r} cannot serialise without a "
                "native payload loader: decompression is approximate, so the "
                "values fallback would not reproduce this object"
            )
        params = dict(self.codec_params or {})
        params.setdefault("eps", self.eps)
        params.setdefault("segments", int(self.num_segments))
        return serialize.write_frame(
            self.codec_id, params, self.n, serialize.KIND_NATIVE, self.to_payload()
        )


class LosslessCompressor(ABC):
    """A factory producing :class:`Compressed` objects from int64 arrays."""

    #: display name used in benchmark tables
    name: str = "?"
    #: whether random access is native (no block-wise adapter involved)
    native_random_access: bool = False

    @abstractmethod
    def compress(self, values: np.ndarray) -> Compressed:
        """Compress a 1-D int64 array losslessly."""

    def compress_many(self, series) -> list[Compressed]:
        """Compress each array in ``series``; codecs that can batch the
        work (Gorilla) override this."""
        return [self.compress(values) for values in series]

    @staticmethod
    def _check_input(values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("expected a 1-D array")
        if len(values) == 0:
            raise ValueError("cannot compress an empty series")
        return values.astype(np.int64)


class LossyCompressor(ABC):
    """A factory producing :class:`LossyCompressed` objects under a bound.

    Parameters
    ----------
    eps:
        The guaranteed L∞ error bound, in original value units.  Must be
        positive and finite (validated by :func:`validate_eps`).
    """

    #: display name used in benchmark tables
    name: str = "?"
    native_random_access: bool = False

    def __init__(self, eps: float) -> None:
        self.eps = validate_eps(eps)

    @abstractmethod
    def compress(self, values: np.ndarray) -> LossyCompressed:
        """Compress a 1-D int64 array under the L∞ bound ``eps``."""

    _check_input = staticmethod(LosslessCompressor._check_input)
