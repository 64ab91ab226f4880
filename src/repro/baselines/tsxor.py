"""TSXor (Bruno et al., SPIRE 2021): byte-oriented window XOR compression.

TSXor keeps a window of the previous 127 values and encodes each new value as
one of three byte-aligned cases:

* an exact match in the window      -> 1 byte (the window index);
* an XOR with the *most similar*    -> ``0x7F`` + reference index + one
  window value whose significant       offset/length byte + the significant
  bytes span at most 8 bytes           XOR bytes;
* anything else                     -> ``0xFF`` + the 8 raw bytes.

Everything is byte-aligned, which is what gives TSXor its speed in the
original paper; the window scan is vectorised here with numpy.
"""

from __future__ import annotations

import numpy as np

from ._native import INT64_PAIR, INT64_TRIPLE
from .base import Compressed, LosslessCompressor
from .blockwise import DEFAULT_BLOCK, check_block_size

__all__ = ["TSXorCompressor"]

_WINDOW = 127
_XOR_HDR = 0x7F
_RAW_HDR = 0xFF


def tsxor_encode(values: np.ndarray) -> bytes:
    """Encode an uint64 array into a TSXor byte stream."""
    out = bytearray()
    n = len(values)
    window = np.zeros(min(n, _WINDOW), dtype=np.uint64)
    wlen = 0
    wpos = 0
    for i in range(n):
        v = values[i]
        if wlen:
            active = window[:wlen]
            xors = active ^ v
            exact = np.nonzero(xors == 0)[0]
            if len(exact):
                slot = int(exact[-1])
                # Translate the slot into "distance from newest" (0-based).
                age = (wpos - 1 - slot) % wlen
                out.append(age)
                _push(window, v, wlen, wpos)
                wlen, wpos = _advance(wlen, wpos, len(window))
                continue
            # Pick the reference minimising the significant byte span.
            spans, firsts = _byte_spans(xors)
            best = int(np.argmin(spans))
            if spans[best] <= 6:
                xor = int(xors[best])
                first = int(firsts[best])
                length = int(spans[best])
                age = (wpos - 1 - best) % wlen
                out.append(_XOR_HDR)
                out.append(age)
                out.append((first << 4) | (length - 1))
                out += (xor >> (8 * first)).to_bytes(length, "little")
                _push(window, v, wlen, wpos)
                wlen, wpos = _advance(wlen, wpos, len(window))
                continue
        out.append(_RAW_HDR)
        out += int(v).to_bytes(8, "little")
        _push(window, v, wlen, wpos)
        wlen, wpos = _advance(wlen, wpos, len(window))
    return bytes(out)


def _push(window: np.ndarray, v: np.uint64, wlen: int, wpos: int) -> None:
    if len(window):
        window[wpos if wlen == len(window) else wlen] = v


def _advance(wlen: int, wpos: int, cap: int) -> tuple[int, int]:
    if wlen < cap:
        return wlen + 1, wpos
    return wlen, (wpos + 1) % cap


def _byte_spans(xors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Significant byte span (count) and first significant byte per XOR."""
    as_bytes = xors.view(np.uint8).reshape(-1, 8)
    nonzero = as_bytes != 0
    any_nz = nonzero.any(axis=1)
    first = np.where(any_nz, nonzero.argmax(axis=1), 0)
    last = np.where(any_nz, 7 - nonzero[:, ::-1].argmax(axis=1), 0)
    span = np.where(any_nz, last - first + 1, 8)  # zero XOR handled earlier
    return span.astype(np.int64), first.astype(np.int64)


def tsxor_decode(data: bytes, count: int) -> np.ndarray:
    """Decode ``count`` values from a TSXor byte stream."""
    out = np.empty(count, dtype=np.uint64)
    history: list[int] = []
    pos = 0
    for i in range(count):
        hdr = data[pos]
        pos += 1
        if hdr == _RAW_HDR:
            v = int.from_bytes(data[pos : pos + 8], "little")
            pos += 8
        elif hdr == _XOR_HDR:
            age = data[pos]
            ol = data[pos + 1]
            pos += 2
            first = ol >> 4
            length = (ol & 0x0F) + 1
            xor = int.from_bytes(data[pos : pos + length], "little") << (8 * first)
            pos += length
            v = history[-1 - age] ^ xor
        else:
            v = history[-1 - hdr]
        history.append(v)
        if len(history) > _WINDOW:
            history.pop(0)
        out[i] = v
    return out


#: decoded blocks kept hot per compressed object (LRU)
_BLOCK_CACHE = 8


class _TSXorCompressed(Compressed):
    def __init__(self, blocks: list[tuple[bytes, int]], n: int, block_size: int):
        from ..core.tiered import RunIndex

        self._blocks = blocks
        self._n = n
        self._block_size = block_size
        self._index = RunIndex(count for _, count in blocks)
        self._cache: dict[int, np.ndarray] = {}
        self.blocks_decoded = 0

    def size_bits(self) -> int:
        return sum(len(b) * 8 for b, _ in self._blocks) + 64 * (len(self._blocks) + 1)

    def _decode_block(self, idx: int) -> np.ndarray:
        cached = self._cache.pop(idx, None)
        if cached is None:
            self.blocks_decoded += 1
            from .. import kernels

            blob, count = self._blocks[idx]
            cached = kernels.decode_tsxor_block(blob, count)
        self._cache[idx] = cached  # re-insert: dict order is the LRU order
        if len(self._cache) > _BLOCK_CACHE:
            self._cache.pop(next(iter(self._cache)))
        return cached

    def decompress(self) -> np.ndarray:
        if not self._blocks:
            return np.empty(0, dtype=np.int64)
        from .. import kernels

        self.blocks_decoded += len(self._blocks)
        return kernels.decode_tsxor_blocks(self._blocks).astype(np.int64)

    def access(self, k: int) -> int:
        if not 0 <= k < self._n:
            raise IndexError(k)
        idx, off = self._index.locate(k)
        return int(self._decode_block(idx)[off].astype(np.int64))

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi <= self._n:
            raise IndexError((lo, hi))
        parts = [
            self._decode_block(idx)[a:b] for idx, a, b in self._index.spans(lo, hi)
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts).astype(np.int64)

    def to_payload(self) -> bytes:
        """Native frame payload: the byte-aligned TSXor streams per block."""
        parts = [INT64_TRIPLE.pack(self._n, self._block_size, len(self._blocks))]
        for blob, count in self._blocks:
            parts.append(INT64_PAIR.pack(count, len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload: bytes) -> "_TSXorCompressed":
        """Rebuild from :meth:`to_payload` output (no context needed).

        Every block must hold at least one value and the block counts must
        sum to the header's ``n``.
        """
        if len(payload) < 24:
            raise ValueError("corrupt TSXor payload: header incomplete")
        n, block_size, nblocks = INT64_TRIPLE.unpack_from(payload)
        pos = 24
        blocks = []
        for idx in range(nblocks):
            if pos + 16 > len(payload):
                raise ValueError("corrupt TSXor payload: truncated block header")
            count, length = INT64_PAIR.unpack_from(payload, pos)
            pos += 16
            if length < 0 or pos + length > len(payload):
                raise ValueError("corrupt TSXor payload: bad block length")
            if count < 1:
                raise ValueError(
                    f"corrupt TSXor payload: block {idx} holds {count} values"
                )
            blocks.append((payload[pos : pos + length], count))
            pos += length
        total = sum(count for _, count in blocks)
        if total != n:
            raise ValueError(
                f"corrupt TSXor payload: blocks hold {total} values, header says {n}"
            )
        return cls(blocks, n, block_size)


class TSXorCompressor(LosslessCompressor):
    """TSXor, block-wise (as in the paper's evaluation)."""

    name = "TSXor"

    def __init__(self, block_size: int = DEFAULT_BLOCK) -> None:
        self._block_size = check_block_size(block_size)

    def compress(self, values: np.ndarray) -> _TSXorCompressed:
        values = self._check_input(values).astype(np.uint64)
        blocks = []
        for start in range(0, len(values), self._block_size):
            chunk = values[start : start + self._block_size]
            blocks.append((tsxor_encode(chunk), len(chunk)))
        return _TSXorCompressed(blocks, len(values), self._block_size)
