"""Fixed-width packed integer arrays.

The paper stores every auxiliary array (``B``, ``K`` when uniform, the
parameter arrays ``P``) in "cells whose bit size is just enough to contain the
largest value stored in them" (§III-C).  :class:`PackedArray` is that cell
array: ``m`` unsigned integers of exactly ``width`` bits each, with O(1)
random access.

A vectorised bulk decoder (:meth:`PackedArray.to_numpy`) is provided because
full decompression (Algorithm 2) touches every correction and would otherwise
be bottlenecked by per-element Python calls.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .io import BitReader, BitWriter

__all__ = ["PackedArray", "from_bits", "min_width", "to_bits"]


def min_width(max_value: int) -> int:
    """Smallest bit width able to store ``max_value`` (0 -> 0 bits)."""
    if max_value < 0:
        raise ValueError("packed arrays store non-negative integers")
    return int(max_value).bit_length()


class PackedArray(Sequence[int]):
    """An immutable sequence of ``width``-bit unsigned integers."""

    __slots__ = ("_reader", "_width", "_length")

    def __init__(self, values: Iterable[int], width: int | None = None) -> None:
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
            if width is None:
                width = min_width(int(values.max()) if len(values) else 0)
            if 0 <= width <= 64:
                self._init_packed(values, width)
                return
            values = values.tolist()
        values = list(values)
        if width is None:
            width = min_width(max(values, default=0))
        writer = BitWriter()
        for v in values:
            if v < 0 or (width < 64 and v >> width):
                raise ValueError(f"value {v} does not fit in {width} bits")
            writer.write(v, width)
        self._reader = BitReader(writer.getbuffer(), writer.bit_length)
        self._width = width
        self._length = len(values)

    def _init_packed(self, values: np.ndarray, width: int) -> None:
        """Compress-side fast path: vectorised packing of an integer array.

        Produces the exact word buffer the per-element ``BitWriter`` loop
        would, so serialised layouts do not depend on which path packed
        them; the loop remains for non-array inputs and out-of-range
        widths.
        """
        from ..kernels.bitpack import pack_bits  # deferred: import cycle

        unsigned = values.astype(np.uint64)
        bad = np.zeros(len(values), dtype=bool)
        if values.dtype.kind == "i":
            bad |= values < 0
        if width < 64 and len(values):
            bad |= (unsigned >> np.uint64(width)) != 0
        if bad.any():
            v = int(values[int(np.argmax(bad))])
            raise ValueError(f"value {v} does not fit in {width} bits")
        words = pack_bits(unsigned, width)
        self._reader = BitReader(words, len(values) * width)
        self._width = width
        self._length = len(values)

    @classmethod
    def from_words(cls, words: np.ndarray, width: int, length: int) -> "PackedArray":
        """Rebuild an array directly from its packed word buffer.

        This is the deserialisation fast path: ``words`` is the buffer a
        previous array exposed through ``_reader.words`` (e.g. read back from
        a native codec frame), adopted without the per-element
        :class:`~repro.bits.io.BitWriter` loop of ``__init__``.  Bits past
        ``length * width`` must be zero, as the writer guarantees.
        """
        if width < 0 or width > 64:
            raise ValueError(f"width must be in [0, 64], got {width}")
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        words = np.asarray(words, dtype=np.uint64)
        if len(words) * 64 < length * width:
            raise ValueError(
                f"packed buffer holds {len(words) * 64} bits, "
                f"{length}x{width}-bit elements need {length * width}"
            )
        self = object.__new__(cls)
        self._reader = BitReader(words, length * width)
        self._width = width
        self._length = length
        return self

    @property
    def width(self) -> int:
        """Bits per element."""
        return self._width

    @property
    def words(self) -> np.ndarray:
        """The underlying packed word buffer (for serialisation)."""
        return self._reader.words

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._reader.peek_at(index * self._width, self._width)

    def __iter__(self) -> Iterator[int]:
        for i in range(self._length):
            yield self._reader.peek_at(i * self._width, self._width)

    def to_numpy(self) -> np.ndarray:
        """Decode the whole array into a ``uint64`` numpy vector (vectorised)."""
        return unpack_bits(self._reader.words, self._width, self._length)

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Decode elements ``[start, stop)`` into a ``uint64`` vector."""
        if not 0 <= start <= stop <= self._length:
            raise IndexError((start, stop))
        return unpack_bits(
            self._reader.words, self._width, stop - start, start * self._width
        )

    def size_bits(self) -> int:
        """Space occupancy: payload plus the width byte."""
        return self._length * self._width + 8


def to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` low bits of each value, LSB first, as one 0/1 ``uint8`` array.

    The bit-array form of ``width``-bit fields (``np.packbits(...,
    bitorder="little")`` turns it into the :class:`~repro.bits.io.BitWriter`
    byte layout); values must be non-negative and below ``2**width``.
    """
    shifts = np.arange(width, dtype=np.int64)
    fields = np.asarray(values, dtype=np.int64)[:, None] >> shifts
    return (fields & 1).astype(np.uint8).ravel()


_WEIGHTS = [np.left_shift(1, np.arange(w, dtype=np.int64)) for w in range(63)]


def from_bits(bits: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`to_bits`: ``count`` fields of ``width <= 62`` bits as int64."""
    return bits[: count * width].reshape(count, width) @ _WEIGHTS[width]


def unpack_bits(
    words: np.ndarray, width: int, count: int, bit_offset: int = 0
) -> np.ndarray:
    """Vectorised extraction of ``count`` contiguous ``width``-bit fields.

    Fields are LSB-first starting at absolute ``bit_offset``, matching
    :class:`~repro.bits.io.BitWriter` layout.
    """
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    # Only the words the fields cover: unpack_fields copies its input.
    first = bit_offset >> 6
    words = words[first : -(-(bit_offset + count * width) // 64)]
    starts = (bit_offset - 64 * first) + np.arange(count, dtype=np.int64) * width
    return unpack_fields(words, starts, width)


def unpack_fields(words: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Vectorised extraction of ``width``-bit fields at arbitrary bit offsets."""
    count = len(starts)
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    if width > 57:
        # Cross-word fields wider than 57 bits cannot be fetched with a single
        # unaligned 8-byte load; fall back to a scalar loop (rare: only P
        # arrays could be this wide, and those are small).
        reader = BitReader(words, len(words) * 64)
        return np.array(
            [reader.peek_at(int(s), width) for s in starts], dtype=np.uint64
        )
    data = words.tobytes()
    # Ensure an 8-byte load at the last field's byte offset stays in bounds.
    data += b"\x00" * 8
    raw = np.frombuffer(data, dtype=np.uint8)
    byte_off = starts >> 3
    bit_off = (starts & 7).astype(np.uint64)
    # Gather 8 bytes per field as a little-endian u64, then shift and mask.
    gathered = np.lib.stride_tricks.sliding_window_view(raw, 8)[byte_off]
    as_u64 = gathered.view(np.uint64).reshape(count)
    mask = np.uint64((1 << width) - 1)
    return (as_u64 >> bit_off) & mask
