"""Bit-packing kernels: vectorised fixed-width pack and unpack.

The unpack side (:func:`unpack_bits` / :func:`unpack_fields`) is the
bit-offset-aware bulk extractor shared by every fixed-width consumer —
``PackedArray``/``BitVector`` slices, DAC/LeCo/ALP range decoding, NeaTS
corrections, and the XOR block kernels.  It lives in
:mod:`repro.bits.packed` (next to the structures whose layout it decodes)
and is re-exported here so kernel users have one import point.

The pack side is the compress-time counterpart: :func:`pack_bits` lays
``n`` ``width``-bit fields into a ``uint64`` word buffer with two
vectorised scatters instead of a per-element
:class:`~repro.bits.io.BitWriter` loop, producing a buffer byte-identical
to the writer's (including the trailing spare word, so serialised layouts
do not depend on the backend that packed them).
"""

from __future__ import annotations

import numpy as np

from ..bits.packed import unpack_bits, unpack_fields

__all__ = [
    "FieldGather",
    "pack_bits",
    "scatter_fields",
    "unpack_bits",
    "unpack_fields",
]


class FieldGather:
    """Repeated unaligned field extraction over one word buffer.

    :func:`unpack_fields` copies the buffer to bytes on every call; the
    batch block decoders gather dozens of width groups (plus split halves
    of 64-bit fields) from the *same* stream, so this helper builds the
    padded byte window once and amortises it across calls.
    """

    __slots__ = ("_win",)

    def __init__(self, words: np.ndarray) -> None:
        data = np.ascontiguousarray(words, dtype=np.uint64).tobytes()
        raw = np.frombuffer(data + b"\x00" * 16, dtype=np.uint8)
        self._win = np.lib.stride_tricks.sliding_window_view(raw, 8)

    def __call__(self, starts: np.ndarray, width: int) -> np.ndarray:
        """``width``-bit fields at absolute bit offsets ``starts``."""
        count = len(starts)
        if count == 0 or width == 0:
            return np.zeros(count, dtype=np.uint64)
        if width > 57:
            # Too wide for one unaligned 8-byte load: two vectorised halves.
            lo = self(starts, 32)
            hi = self(starts + 32, width - 32)
            return lo | (hi << np.uint64(32))
        gathered = self._win[starts >> 3].view(np.uint64).reshape(count)
        off = (np.asarray(starts) & 7).astype(np.uint64)
        return (gathered >> off) & np.uint64((1 << width) - 1)


def pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack ``values`` as contiguous LSB-first ``width``-bit fields.

    ``values`` must be ``uint64`` with every element below ``2**width``
    (callers validate; out-of-range bits would corrupt neighbouring
    fields).  Returns the exact word buffer ``BitWriter`` would produce
    for the same sequence of ``write(v, width)`` calls: ``total_bits // 64
    + 1`` words, bits past the payload zero.
    """
    if width < 0 or width > 64:
        raise ValueError(f"width must be in [0, 64], got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(values)
    total = n * width
    words = np.zeros(total // 64 + 1, dtype=np.uint64)
    if width == 0 or n == 0:
        return words
    scatter_fields(words, np.arange(n, dtype=np.int64) * width, values)
    return words


def scatter_fields(words: np.ndarray, starts: np.ndarray, values: np.ndarray) -> None:
    """OR each ``uint64`` value into ``words`` at bit offset ``starts``.

    The fields must not overlap, and each value must fit the field it is
    written to (callers validate; stray high bits would corrupt the next
    field).  A field may cross one word boundary.
    """
    idx = starts >> 6
    off = (starts & 63).astype(np.uint64)
    # Low part: shifting uint64 left is modular, exactly the in-word bits.
    np.bitwise_or.at(words, idx, values << off)
    # The bits past a field's first word (two shifts keep each below 64).
    # Fields never overlap, so at most one spills into each word.
    hi = (values >> np.uint64(1)) >> (np.uint64(63) - off)
    spill = hi != 0
    words[idx[spill] + 1] |= hi[spill]
