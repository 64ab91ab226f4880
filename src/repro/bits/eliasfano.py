"""Elias-Fano encoding of monotone integer sequences.

``m`` non-decreasing integers bounded by ``u`` take
``m * (2 + ceil(log2(u/m)))`` bits and support

* ``access(i)`` in O(1) (a ``select1`` on the high bits), and
* ``rank(x)`` — the number of elements ``<= x`` — in
  O(min(log m, log(u/m))) via a ``select0`` jump plus a bounded scan.

The paper stores NeaTS's fragment starts ``S`` this way (§III-C), and so
does the ``NeaTS102`` frame: :func:`encode_bits` and :func:`decode_bits`
write and read the code as a bit array with numpy, with the same low width
as :class:`EliasFano` (Vigna, *Quasi-succinct indices*, WSDM 2013).  A
loaded frame bisects its decoded start list, so no query builds an
:class:`EliasFano`; LeCo ranks its block starts with this class.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .bitvector import BitVector
from .io import BitWriter
from .packed import PackedArray, from_bits, to_bits

__all__ = ["EliasFano", "decode_bits", "encode_bits", "encoded_bits", "low_width"]


def low_width(m: int, universe: int) -> int:
    """Bits of each value's low part: ``max(0, floor(log2(universe / m)))``."""
    return max(0, (universe // max(m, 1)).bit_length() - 1)


def encoded_bits(m: int, universe: int) -> int:
    """Length of :func:`encode_bits` for ``m`` values in ``[0, universe)``."""
    if m == 0:
        return 0
    low = low_width(m, universe)
    return m * (low + 1) + ((universe - 1) >> low) + 1


def encode_bits(values: np.ndarray, universe: int) -> np.ndarray:
    """The Elias-Fano code of ``values`` as one 0/1 ``uint8`` bit array.

    ``values`` are non-decreasing integers in ``[0, universe)`` (callers
    check).  The ``m`` low parts come first, ``low_width`` bits each, LSB
    first; then the high part, where the ``i``-th value sets bit
    ``(v >> low) + i``.  Its length depends only on ``m`` and ``universe``
    (:func:`encoded_bits`).
    """
    values = np.asarray(values, dtype=np.int64)
    m = len(values)
    bits = np.zeros(encoded_bits(m, universe), dtype=np.uint8)
    if m:
        low = low_width(m, universe)
        bits[: m * low] = to_bits(values & ((1 << low) - 1), low)
        bits[m * low + (values >> low) + np.arange(m)] = 1
    return bits


def decode_bits(bits: np.ndarray, m: int, universe: int) -> np.ndarray:
    """The ``m`` int64 values of an :func:`encode_bits` code at the front of ``bits``.

    Raises ``ValueError`` when the high part does not hold exactly ``m``
    ones: such a code decodes no sequence of ``m`` values.
    """
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    low = low_width(m, universe)
    ones = np.flatnonzero(bits[m * low : encoded_bits(m, universe)])
    if len(ones) != m:
        raise ValueError(
            f"Elias-Fano high part holds {len(ones)} ones for {m} values"
        )
    return ((ones - np.arange(m)) << low) | from_bits(bits, m, low)


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
        self._low_bits = low_width(self._m, universe)
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
