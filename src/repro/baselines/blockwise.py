"""Block-wise random-access adapter for stream compressors (§IV-A2).

The paper evaluates compressors that lack native random access by splitting
the series into blocks of 1000 consecutive values, compressing each block
independently, and keeping "an array that maps each block index to a pointer
referencing the starting byte of the block in the compressed output".  Random
access then decompresses exactly one block; a range query decompresses the
covering blocks.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ._native import INT64, INT64_TRIPLE
from .base import Compressed, LosslessCompressor

__all__ = [
    "BlockwiseCompressed",
    "ByteCompressor",
    "BlockwiseCompressor",
    "check_block_size",
]

DEFAULT_BLOCK = 1000


def check_block_size(block_size) -> int:
    """``block_size`` as an int, refused unless a positive integer.

    Every block-wise constructor checks it: zero would fail deep inside
    ``range``, and a negative size would build objects holding no blocks.
    """
    if isinstance(block_size, (int, np.integer)) and block_size >= 1:
        return int(block_size)
    raise ValueError(f"block_size must be a positive integer, got {block_size!r}")


class ByteCompressor:
    """A pair of bytes->bytes functions (e.g. ``zlib.compress``/``decompress``)."""

    def __init__(
        self,
        name: str,
        compress: Callable[[bytes], bytes],
        decompress: Callable[[bytes], bytes],
    ) -> None:
        self.name = name
        self.compress = compress
        self.decompress = decompress


class BlockwiseCompressed(Compressed):
    """Compressed blocks + pointer array, as described in the paper."""

    def __init__(
        self, codec: ByteCompressor, blocks: list[bytes], n: int, block_size: int
    ) -> None:
        self._codec = codec
        self._blocks = blocks
        self._n = n
        self._block_size = block_size
        self._cache_idx = -1
        self._cache_vals: np.ndarray | None = None

    def size_bits(self) -> int:
        payload = sum(len(b) for b in self._blocks) * 8
        pointers = 64 * (len(self._blocks) + 1)  # block pointer array
        return payload + pointers

    def _decode_block(self, idx: int) -> np.ndarray:
        if idx == self._cache_idx and self._cache_vals is not None:
            return self._cache_vals
        raw = self._codec.decompress(self._blocks[idx])
        vals = np.frombuffer(raw, dtype=np.int64)
        self._cache_idx = idx
        self._cache_vals = vals
        return vals

    def decompress(self) -> np.ndarray:
        parts = [
            np.frombuffer(self._codec.decompress(b), dtype=np.int64)
            for b in self._blocks
        ]
        return np.concatenate(parts)

    def access(self, k: int) -> int:
        if not 0 <= k < self._n:
            raise IndexError(k)
        idx, off = divmod(k, self._block_size)
        # NOTE: no caching here — the paper's measurement is the cost of one
        # cold access (decompress the whole block, then index).
        raw = self._codec.decompress(self._blocks[idx])
        return int(np.frombuffer(raw, dtype=np.int64)[off])

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi <= self._n:
            raise IndexError((lo, hi))
        if lo == hi:
            return np.empty(0, dtype=np.int64)
        first = lo // self._block_size
        last = (hi - 1) // self._block_size
        parts = [self._decode_block(i) for i in range(first, last + 1)]
        vals = np.concatenate(parts) if len(parts) > 1 else parts[0]
        base = first * self._block_size
        return vals[lo - base : hi - base].copy()

    def to_payload(self) -> bytes:
        """Native frame payload: the compressed blocks, length-prefixed."""
        parts = [INT64_TRIPLE.pack(self._n, self._block_size, len(self._blocks))]
        for block in self._blocks:
            parts.append(INT64.pack(len(block)))
            parts.append(block)
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload: bytes, codec: ByteCompressor) -> "BlockwiseCompressed":
        """Rebuild from :meth:`to_payload` output plus the byte codec."""
        if len(payload) < 24:
            raise ValueError("corrupt block-wise payload: header incomplete")
        n, block_size, nblocks = INT64_TRIPLE.unpack_from(payload)
        pos = 24
        blocks: list[bytes] = []
        for _ in range(nblocks):
            if pos + 8 > len(payload):
                raise ValueError("corrupt block-wise payload: truncated block")
            (length,) = INT64.unpack_from(payload, pos)
            pos += 8
            if length < 0 or pos + length > len(payload):
                raise ValueError("corrupt block-wise payload: bad block length")
            blocks.append(payload[pos : pos + length])
            pos += length
        return cls(codec, blocks, n, block_size)


class BlockwiseCompressor(LosslessCompressor):
    """Wrap a byte codec into the paper's block-wise scheme."""

    def __init__(self, codec: ByteCompressor, block_size: int = DEFAULT_BLOCK) -> None:
        self._codec = codec
        self._block_size = check_block_size(block_size)
        self.name = codec.name

    def compress(self, values: np.ndarray) -> BlockwiseCompressed:
        values = self._check_input(values)
        blocks = []
        for start in range(0, len(values), self._block_size):
            chunk = values[start : start + self._block_size]
            blocks.append(self._codec.compress(chunk.tobytes()))
        return BlockwiseCompressed(self._codec, blocks, len(values), self._block_size)
