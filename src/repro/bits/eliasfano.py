"""Elias-Fano encoding of monotone integer sequences.

``m`` non-decreasing integers bounded by ``u`` take
``m * (2 + ceil(log2(u/m)))`` bits and support

* ``access(i)`` in O(1) (a ``select1`` on the high bits), and
* ``rank(x)`` — the number of elements ``<= x`` — in
  O(min(log m, log(u/m))) via a ``select0`` jump plus a bounded scan.

The paper stores NeaTS's fragment starts ``S`` and correction offsets ``O``
this way (§III-C).  Here ``NeaTSStorage.size_bits()`` builds both only to
charge that space, while its fragment lookup bisects a plain start list;
LeCo ranks its block starts, and the timestamp codec stores its timestamps,
with this class.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .bitvector import BitVector
from .io import BitWriter
from .packed import PackedArray

__all__ = ["EliasFano"]


class EliasFano(Sequence[int]):
    """Compressed storage of a non-decreasing sequence of integers."""

    def __init__(self, values: Sequence[int], universe: int | None = None) -> None:
        values = list(values)
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("Elias-Fano requires a non-decreasing sequence")
        if values and values[0] < 0:
            raise ValueError("Elias-Fano stores non-negative integers")
        self._m = len(values)
        if universe is None:
            universe = (values[-1] + 1) if values else 1
        if values and universe <= values[-1]:
            raise ValueError("universe must exceed the maximum value")
        self._u = universe
        m = max(self._m, 1)
        self._low_bits = max(0, (universe // m).bit_length() - 1)
        low_mask = (1 << self._low_bits) - 1
        self._low = PackedArray(
            (v & low_mask for v in values), width=self._low_bits
        )
        writer = BitWriter()
        prev_high = 0
        for v in values:
            high = v >> self._low_bits
            writer.write_run(0, high - prev_high)
            writer.write(1, 1)
            prev_high = high
        # Trailing zeros so that select0 can always find a bucket boundary.
        writer.write_run(0, (universe >> self._low_bits) + 1 - prev_high)
        self._high = BitVector((writer.getbuffer(), writer.bit_length))

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._m

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._m))]
        if index < 0:
            index += self._m
        if not 0 <= index < self._m:
            raise IndexError(index)
        high = self._high.select1(index) - index
        return (high << self._low_bits) | self._low[index]

    # -- queries ---------------------------------------------------------------

    @property
    def universe(self) -> int:
        """The exclusive upper bound on stored values."""
        return self._u

    def rank(self, x: int) -> int:
        """Number of stored elements ``<= x``."""
        if self._m == 0 or x < 0:
            return 0
        if x >= self._u:
            return self._m
        hx = x >> self._low_bits
        # Elements with high part < hx all precede position `lo`.
        if hx == 0:
            lo = 0
        else:
            # select0(hx - 1) is the end of bucket hx-1 in the high bits.
            pos = self._high.select0(hx - 1)
            lo = self._high.rank1(pos)
        # Elements with high part <= hx end at position `hi`.
        pos = self._high.select0(hx)
        hi = self._high.rank1(pos)
        # Scan the (short) bucket for the predecessor among equal-high values.
        count = lo
        low_x = x & ((1 << self._low_bits) - 1)
        for i in range(lo, hi):
            if self._low_bits == 0 or self._low[i] <= low_x:
                count = i + 1
            else:
                break
        return count

    def predecessor(self, x: int) -> int:
        """Largest stored value ``<= x``; raises if none exists."""
        r = self.rank(x)
        if r == 0:
            raise ValueError(f"no element <= {x}")
        return self[r - 1]

    def successor(self, x: int) -> int:
        """Smallest stored value ``>= x``; raises if none exists."""
        r = self.rank(x - 1)
        if r >= self._m:
            raise ValueError(f"no element >= {x}")
        return self[r]

    def to_list(self) -> list[int]:
        """Decode the full sequence."""
        if self._m == 0:
            return []
        lows = self._low.to_numpy().astype(np.int64)
        highs = np.zeros(self._m, dtype=np.int64)
        idx = 0
        high = 0
        bits = self._high.to_numpy()
        for b in bits:
            if b:
                highs[idx] = high
                idx += 1
                if idx == self._m:
                    break
            else:
                high += 1
        return ((highs << self._low_bits) | lows).tolist()

    def size_bits(self) -> int:
        """Space occupancy of low and high parts (with rank directories)."""
        return self._low.size_bits() + self._high.size_bits() + 64
