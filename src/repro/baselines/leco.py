"""LeCo: lightweight compression via learning serial correlations (SIGMOD'24).

LeCo compresses a sequence by partitioning it into variable-length blocks,
fitting a regression model per block (we use its linear model, the one its
paper applies to time-series-like data), and bit-packing the residuals with a
frame-of-reference code.  Unlike NeaTS, the partitioning is a *heuristic*:
blocks start at a fixed size and neighbouring blocks are greedily merged
whenever the merge lowers the estimated size — exactly the split/merge scheme
the paper criticises as sub-optimal (§V.b), and the reason NeaTS beats LeCo
on compression ratio.

Random access is native (no block-wise adapter): each access is one
predecessor search over the block starts plus one residual fetch.  The size
is charged for LeCo's own layout, an Elias-Fano sequence over the starts;
lookups bisect a plain list of them, and :meth:`size_bits` builds the
Elias-Fano sequence only to measure it.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..bits import EliasFano
from ..bits.packed import PackedArray, min_width
from ._native import (
    LECO_BLOCK as _LECO_BLOCK,
    LECO_HDR as _LECO_HDR,
    pack_packed_array,
    unpack_packed_array,
)
from .base import Compressed, LosslessCompressor

__all__ = ["LeCoCompressor"]

_INITIAL_BLOCK = 128
_BLOCK_OVERHEAD_BITS = 2 * 64 + 64 + 8 + 32  # slope, intercept, base, width, start

def _fit_block(values: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Least-squares line over positions 0..len-1; returns residuals too."""
    n = len(values)
    xs = np.arange(n, dtype=np.float64)
    ys = values.astype(np.float64)
    if n == 1:
        slope, intercept = 0.0, ys[0]
    else:
        xm = xs.mean()
        ym = ys.mean()
        den = float(((xs - xm) ** 2).sum())
        slope = float(((xs - xm) * (ys - ym)).sum() / den) if den else 0.0
        intercept = ym - slope * xm
    pred = np.floor(slope * xs + intercept).astype(np.int64)
    return slope, intercept, values - pred


def _block_cost(values: np.ndarray) -> int:
    """Estimated bit size of one block under the linear+FOR encoding."""
    _, _, resid = _fit_block(values)
    width = min_width(int(resid.max() - resid.min()))
    return _BLOCK_OVERHEAD_BITS + width * len(values)


class _LeCoBlock:
    __slots__ = ("start", "slope", "intercept", "base", "resid")

    def __init__(self, start: int, slope: float, intercept: float,
                 base: int, resid: PackedArray) -> None:
        self.start = start
        self.slope = slope
        self.intercept = intercept
        self.base = base
        self.resid = resid


class _LeCoCompressed(Compressed):
    def __init__(self, blocks: list[_LeCoBlock], n: int) -> None:
        self._blocks = blocks
        self._n = n
        self._starts = [b.start for b in blocks]

    def size_bits(self) -> int:
        starts = EliasFano(self._starts, universe=max(self._n, 1))
        total = 64 + starts.size_bits()
        for b in self._blocks:
            total += 2 * 64 + 64 + 8 + b.resid.size_bits()
        return total

    def _block_of(self, k: int) -> int:
        return bisect_right(self._starts, k) - 1

    def access(self, k: int) -> int:
        if not 0 <= k < self._n:
            raise IndexError(k)
        i = self._block_of(k)
        b = self._blocks[i]
        off = k - b.start
        pred = int(np.floor(b.slope * off + b.intercept))
        return pred + b.base + b.resid[off]

    def _decode_block(self, i: int) -> np.ndarray:
        b = self._blocks[i]
        end = self._blocks[i + 1].start if i + 1 < len(self._blocks) else self._n
        n = end - b.start
        xs = np.arange(n, dtype=np.float64)
        pred = np.floor(b.slope * xs + b.intercept).astype(np.int64)
        return pred + b.base + b.resid.to_numpy().astype(np.int64)

    def decompress(self) -> np.ndarray:
        return np.concatenate(
            [self._decode_block(i) for i in range(len(self._blocks))]
        )

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi <= self._n:
            raise IndexError((lo, hi))
        if lo == hi:
            return np.empty(0, dtype=np.int64)
        out = []
        i = self._block_of(lo)
        pos = lo
        while pos < hi:
            b = self._blocks[i]
            end = self._blocks[i + 1].start if i + 1 < len(self._blocks) else self._n
            a, c = max(b.start, lo), min(end, hi)
            xs = np.arange(a - b.start, c - b.start, dtype=np.float64)
            pred = np.floor(b.slope * xs + b.intercept).astype(np.int64)
            resid = b.resid.slice(a - b.start, c - b.start).astype(np.int64)
            out.append(pred + b.base + resid)
            pos = c
            i += 1
        return np.concatenate(out)

    def to_payload(self) -> bytes:
        """Native frame payload: per-block model params + packed residuals."""
        parts = [_LECO_HDR.pack(self._n, len(self._blocks))]
        for b in self._blocks:
            parts.append(_LECO_BLOCK.pack(b.start, b.slope, b.intercept, b.base))
            parts.append(pack_packed_array(b.resid))
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload) -> "_LeCoCompressed":
        """Rebuild from :meth:`to_payload` output — a direct parse, no
        recompression (works over any byte buffer, e.g. an mmapped frame)."""
        view = memoryview(payload) if not isinstance(payload, memoryview) else payload
        if len(view) < _LECO_HDR.size:
            raise ValueError("corrupt LeCo payload: header incomplete")
        n, nblocks = _LECO_HDR.unpack_from(view)
        if n < 0 or nblocks < 1:
            raise ValueError(f"corrupt LeCo payload: {nblocks} blocks, n={n}")
        pos = _LECO_HDR.size
        blocks: list[_LeCoBlock] = []
        prev_start = -1
        for _ in range(nblocks):
            if pos + _LECO_BLOCK.size > len(view):
                raise ValueError("corrupt LeCo payload: truncated block header")
            start, slope, intercept, base = _LECO_BLOCK.unpack_from(view, pos)
            pos += _LECO_BLOCK.size
            ok = (start == 0) if not blocks else (prev_start < start < n)
            if not ok:
                raise ValueError(f"corrupt LeCo payload: bad block start {start}")
            resid, pos = unpack_packed_array(view, pos, "LeCo payload")
            blocks.append(_LeCoBlock(start, slope, intercept, base, resid))
            prev_start = start
        if pos != len(view):
            raise ValueError("corrupt LeCo payload: trailing bytes")
        return cls(blocks, n)


class LeCoCompressor(LosslessCompressor):
    """LeCo with linear models and greedy merge partitioning."""

    name = "LeCo"
    native_random_access = True

    def __init__(self, initial_block: int = _INITIAL_BLOCK, merge_passes: int = 2):
        self._initial_block = initial_block
        self._merge_passes = merge_passes

    def compress(self, values: np.ndarray) -> _LeCoCompressed:
        values = self._check_input(values)
        n = len(values)
        bounds = list(range(0, n, self._initial_block)) + [n]

        # Greedy merging: accept a merge when it shrinks the estimate.
        for _ in range(self._merge_passes):
            merged = [bounds[0]]
            i = 0
            changed = False
            while i + 1 < len(bounds):
                if i + 2 < len(bounds):
                    a, b, c = bounds[i], bounds[i + 1], bounds[i + 2]
                    cost_split = _block_cost(values[a:b]) + _block_cost(values[b:c])
                    cost_merge = _block_cost(values[a:c])
                    if cost_merge < cost_split:
                        merged.append(c)
                        i += 2
                        changed = True
                        continue
                merged.append(bounds[i + 1])
                i += 1
            bounds = merged
            if not changed:
                break

        blocks: list[_LeCoBlock] = []
        for a, c in zip(bounds, bounds[1:]):
            chunk = values[a:c]
            slope, intercept, resid = _fit_block(chunk)
            base = int(resid.min())
            width = min_width(int(resid.max()) - base)
            packed = PackedArray((resid - base).tolist(), width=width)
            blocks.append(_LeCoBlock(a, slope, intercept, base, packed))
        return _LeCoCompressed(blocks, n)
