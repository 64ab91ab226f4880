"""Directly Addressable Codes (Brisaboa, Ladra, Navarro, IPM 2013).

DAC splits each (zigzag-encoded) value into fixed-width chunks, stores the
``l``-th chunks of all values that need them contiguously at level ``l``, and
marks with a per-level bitmap whether a value continues to the next level.
``rank`` on the bitmaps navigates from a position to its higher-order chunks,
giving O(levels) *native* random access — DAC is the random-access champion
in the paper's Table III (bottom), at the cost of a weak compression ratio.

Level widths are chosen with the optimal dynamic program from the DAC paper
(minimising total size given the distribution of value bit lengths).
"""

from __future__ import annotations

import numpy as np

from ..bits import BitVector, PackedArray
from ._native import (
    DAC_HDR as _DAC_HDR,
    DAC_LEVEL as _LEVEL_HDR,
    pack_bitvector,
    pack_packed_array,
    unpack_bitvector,
    unpack_packed_array,
)
from .base import Compressed, LosslessCompressor

__all__ = ["DacCompressor", "optimal_level_widths"]

_MAX_WIDTH = 64

def optimal_level_widths(bit_lengths: np.ndarray, max_levels: int = 8) -> list[int]:
    """Optimal chunk widths per level for the given value bit lengths.

    ``dp[j]`` is the minimum cost of encoding all bits at positions ``>= j``
    of every value whose length exceeds ``j``; each level of width ``b``
    starting at depth ``j`` costs ``count(len > j) * (b + 1)`` bits (chunk
    plus continuation bit).
    """
    max_len = int(bit_lengths.max()) if len(bit_lengths) else 1
    max_len = max(max_len, 1)
    # exceed[j] = number of values with bit length > j.
    hist = np.bincount(np.maximum(bit_lengths, 1), minlength=max_len + 1)
    exceed = np.concatenate([np.cumsum(hist[::-1])[::-1][1:], [0]])

    INF = float("inf")
    dp = [INF] * (max_len + 1)
    choice = [0] * (max_len + 1)
    dp[max_len] = 0.0
    for j in range(max_len - 1, -1, -1):
        values_here = int(exceed[j]) if j < len(exceed) else 0
        for b in range(1, max_len - j + 1):
            cont_bit = 0 if j + b == max_len else 1  # last level has no bitmap
            cost = values_here * (b + cont_bit) + dp[j + b]
            if cost < dp[j]:
                dp[j] = cost
                choice[j] = b
    widths = []
    j = 0
    while j < max_len and len(widths) < max_levels - 1:
        widths.append(choice[j])
        j += choice[j]
    if j < max_len:
        widths.append(max_len - j)  # cap the level count with one wide level
    return widths


class _DacCompressed(Compressed):
    def __init__(
        self,
        levels: list[PackedArray],
        bitmaps: list[BitVector | None],
        widths: list[int],
        n: int,
    ) -> None:
        self._levels = levels
        self._bitmaps = bitmaps
        self._widths = widths
        self._n = n

    def size_bits(self) -> int:
        total = 64 * 2
        for arr in self._levels:
            total += arr.size_bits()
        for bm in self._bitmaps:
            if bm is not None:
                total += bm.size_bits()
        return total

    def access(self, k: int) -> int:
        if not 0 <= k < self._n:
            raise IndexError(k)
        value = 0
        shift = 0
        idx = k
        for lvl, width in enumerate(self._widths):
            value |= self._levels[lvl][idx] << shift
            shift += width
            bm = self._bitmaps[lvl]
            if bm is None or not bm[idx]:
                break
            idx = bm.rank1(idx)
        return _unzigzag(value)

    def decompress(self) -> np.ndarray:
        out = np.zeros(self._n, dtype=np.uint64)
        idx = np.arange(self._n, dtype=np.int64)
        shift = 0
        for lvl, width in enumerate(self._widths):
            chunks = self._levels[lvl].to_numpy()
            out[idx] |= chunks << np.uint64(shift)
            shift += width
            bm = self._bitmaps[lvl]
            if bm is None:
                break
            cont = bm.to_numpy().astype(bool)
            idx = idx[cont]
            if len(idx) == 0:
                break
        # zigzag decode: (v >> 1) ^ -(v & 1)
        half = (out >> np.uint64(1)).astype(np.int64)
        sign = (out & np.uint64(1)).astype(np.int64)
        return half ^ -sign

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        """Decode ``[lo, hi)`` level by level.

        Survivors keep their relative order across levels, so the slice at
        level ``l+1`` is exactly ``[rank1(lo_l), rank1(hi_l))`` — two rank
        queries per level, then contiguous chunk extraction.
        """
        if not 0 <= lo <= hi <= self._n:
            raise IndexError((lo, hi))
        count = hi - lo
        out = np.zeros(count, dtype=np.uint64)
        idx = np.arange(count, dtype=np.int64)  # positions within the output
        a, b = lo, hi
        shift = 0
        for lvl, width in enumerate(self._widths):
            chunks = self._levels[lvl].slice(a, b)
            out[idx] |= chunks << np.uint64(shift)
            shift += width
            bm = self._bitmaps[lvl]
            if bm is None or b == a:
                break
            cont = bm.slice(a, b).astype(bool)
            idx = idx[cont]
            a, b = bm.rank1(a), bm.rank1(b)
            if len(idx) == 0:
                break
        half = (out >> np.uint64(1)).astype(np.int64)
        sign = (out & np.uint64(1)).astype(np.int64)
        return half ^ -sign

    def to_payload(self) -> bytes:
        """Native frame payload: per-level chunk arrays and bitmaps."""
        parts = [_DAC_HDR.pack(self._n, len(self._levels))]
        for level, bitmap, width in zip(self._levels, self._bitmaps, self._widths):
            parts.append(_LEVEL_HDR.pack(width, 0 if bitmap is None else 1))
            parts.append(pack_packed_array(level))
            if bitmap is not None:
                parts.append(pack_bitvector(bitmap))
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload) -> "_DacCompressed":
        """Rebuild from :meth:`to_payload` output — a direct parse, no
        recompression (works over any byte buffer, e.g. an mmapped frame)."""
        view = memoryview(payload) if not isinstance(payload, memoryview) else payload
        if len(view) < _DAC_HDR.size:
            raise ValueError("corrupt DAC payload: header incomplete")
        n, nlevels = _DAC_HDR.unpack_from(view)
        if n < 0 or nlevels < 1:
            raise ValueError(f"corrupt DAC payload: {nlevels} levels, n={n}")
        pos = _DAC_HDR.size
        levels: list[PackedArray] = []
        bitmaps: list[BitVector | None] = []
        widths: list[int] = []
        expected = n
        for _ in range(nlevels):
            if pos + _LEVEL_HDR.size > len(view):
                raise ValueError("corrupt DAC payload: truncated level header")
            width, has_bitmap = _LEVEL_HDR.unpack_from(view, pos)
            pos += _LEVEL_HDR.size
            level, pos = unpack_packed_array(view, pos, "DAC payload")
            if len(level) != expected:
                raise ValueError(
                    f"corrupt DAC payload: level holds {len(level)} chunks, "
                    f"expected {expected}"
                )
            levels.append(level)
            widths.append(width)
            if has_bitmap:
                bitmap, pos = unpack_bitvector(view, pos, "DAC payload")
                if bitmap.length != expected:
                    raise ValueError(
                        "corrupt DAC payload: bitmap length disagrees with "
                        "its level"
                    )
                bitmaps.append(bitmap)
                expected = bitmap.count_ones
            else:
                bitmaps.append(None)
        if pos != len(view):
            raise ValueError("corrupt DAC payload: trailing bytes")
        return cls(levels, bitmaps, widths, n)


def _unzigzag(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


class DacCompressor(LosslessCompressor):
    """DAC with optimal level widths and native random access."""

    name = "DAC"
    native_random_access = True

    def __init__(self, max_levels: int = 8) -> None:
        self._max_levels = max_levels

    def compress(self, values: np.ndarray) -> _DacCompressed:
        values = self._check_input(values)
        # zigzag so small magnitudes (positive or negative) get short codes
        unsigned = (values.astype(np.int64) << 1) ^ (values.astype(np.int64) >> 63)
        unsigned = unsigned.astype(np.uint64)
        bit_lengths = np.array(
            [max(int(v).bit_length(), 1) for v in unsigned.tolist()], dtype=np.int64
        )
        widths = optimal_level_widths(bit_lengths, self._max_levels)

        levels: list[PackedArray] = []
        bitmaps: list[BitVector | None] = []
        current = unsigned.tolist()
        consumed = 0
        for lvl, width in enumerate(widths):
            mask = (1 << width) - 1
            chunks = [v & mask for v in current]
            rest = [v >> width for v in current]
            levels.append(PackedArray(chunks, width=width))
            consumed += width
            last_level = lvl == len(widths) - 1
            if last_level:
                bitmaps.append(None)
                break
            cont = [1 if r else 0 for r in rest]
            bitmaps.append(BitVector(cont))
            current = [r for r in rest if r]
            if not current:
                # No survivors: drop the remaining planned levels.
                break
        return _DacCompressed(levels, bitmaps, widths[: len(levels)], len(values))
