"""Gorilla value compression (Pelkonen et al., VLDB 2015).

The classic XOR scheme used by Facebook's in-memory TSDB: each value is XORed
with its predecessor and the result is encoded with a control code exploiting
leading/trailing zeros:

* ``0``            — XOR is zero (value repeats);
* ``10`` + bits    — the meaningful bits of the XOR fall inside the previous
  meaningful-bit window: re-use that window, write only its bits;
* ``11`` + 5-bit leading-zero count + 6-bit length + bits — a new window.

Gorilla is the fastest-but-weakest point of the paper's trade-off plots
(Figure 2/3: top-right corner, ratio above 70%).  Random access goes through
the block-wise adapter like all XOR compressors (§IV-A2).
"""

from __future__ import annotations

import numpy as np

from ..bits import BitReader, BitWriter
from ._native import INT64_TRIPLE
from .base import Compressed, LosslessCompressor
from .blockwise import DEFAULT_BLOCK, check_block_size

__all__ = ["GorillaCompressor", "gorilla_encode", "gorilla_decode"]

_U64 = (1 << 64) - 1


def _clz(x: int) -> int:
    """Count of leading zeros in a 64-bit value (64 for x == 0)."""
    return 64 - x.bit_length()


def _ctz(x: int) -> int:
    """Count of trailing zeros in a 64-bit value (64 for x == 0)."""
    return (x & -x).bit_length() - 1 if x else 64


def gorilla_encode(values: list[int], writer: BitWriter) -> None:
    """Encode unsigned 64-bit ``values`` into ``writer``."""
    first = values[0]
    writer.write(first, 64)
    prev = first
    prev_lz = -1
    prev_len = 0
    for v in values[1:]:
        xor = prev ^ v
        prev = v
        if xor == 0:
            writer.write(0, 1)
            continue
        lz = min(_clz(xor), 31)
        tz = _ctz(xor)
        if (
            prev_lz >= 0
            and lz >= prev_lz
            and 64 - tz <= prev_lz + prev_len
        ):
            # Meaningful bits fit in the previous window: control '10'.
            writer.write(0b01, 2)  # LSB-first: reads as 1 then 0
            writer.write(xor >> (64 - prev_lz - prev_len), prev_len)
        else:
            length = 64 - lz - tz
            writer.write(0b11, 2)
            writer.write(lz, 5)
            writer.write(length - 1, 6)
            writer.write(xor >> tz, length)
            prev_lz = lz
            prev_len = length


def gorilla_decode(reader: BitReader, count: int) -> list[int]:
    """Decode ``count`` unsigned 64-bit values from ``reader``."""
    first = reader.read(64)
    out = [first]
    prev = first
    prev_lz = 0
    prev_len = 0
    for _ in range(count - 1):
        if not reader.read_bool():
            out.append(prev)
            continue
        if reader.read_bool():
            prev_lz = reader.read(5)
            prev_len = reader.read(6) + 1
        bits = reader.read(prev_len)
        xor = bits << (64 - prev_lz - prev_len)
        prev ^= xor
        out.append(prev)
    return out


#: decoded blocks kept hot per compressed object (LRU)
_BLOCK_CACHE = 8


class _XorBlockCompressed(Compressed):
    """Shared container for block-encoded XOR streams (Gorilla/Chimp/...).

    Block decoding dispatches through :mod:`repro.kernels` when the block's
    ``family`` is one of the vectorised XOR kernels; an explicit
    ``decode_fn`` remains the scalar fallback for unknown families.  Point
    and range queries binary-search the per-block counts
    (:class:`~repro.core.tiered.RunIndex`) and keep a small LRU of decoded
    blocks, so repeated access into the same region decodes nothing;
    ``blocks_decoded`` counts actual (non-cached) block decodes, which is
    what the lazy-decode tests assert on.
    """

    payload_is_native = True

    def __init__(self, blocks, n, block_size, decode_fn, family=None):
        from ..core.tiered import RunIndex

        self._blocks = blocks  # list of (words, bit_length, count)
        self._n = n
        self._block_size = block_size
        self._decode = decode_fn
        self._family = family
        self._index = RunIndex(count for _, _, count in blocks)
        self._cache: dict[int, np.ndarray] = {}
        self.blocks_decoded = 0

    def size_bits(self) -> int:
        payload = sum(bl for _, bl, _ in self._blocks)
        return payload + 64 * (len(self._blocks) + 1)

    def _decode_block(self, idx: int) -> np.ndarray:
        cached = self._cache.pop(idx, None)
        if cached is None:
            self.blocks_decoded += 1
            words, bit_length, count = self._blocks[idx]
            if self._family is not None:
                from .. import kernels

                cached = kernels.decode_xor_block(
                    self._family, words, bit_length, count
                )
            else:
                cached = np.array(
                    self._decode(BitReader(words, bit_length), count),
                    dtype=np.uint64,
                )
        self._cache[idx] = cached  # re-insert: dict order is the LRU order
        if len(self._cache) > _BLOCK_CACHE:
            self._cache.pop(next(iter(self._cache)))
        return cached

    def decompress(self) -> np.ndarray:
        if not self._blocks:
            return np.empty(0, dtype=np.int64)
        if self._family is not None:
            from .. import kernels

            self.blocks_decoded += len(self._blocks)
            out = kernels.decode_xor_blocks(self._family, self._blocks)
            return out.astype(np.int64)
        parts = [self._decode_block(idx) for idx in range(len(self._blocks))]
        return np.concatenate(parts).astype(np.int64)

    def access(self, k: int) -> int:
        if not 0 <= k < self._n:
            raise IndexError(k)
        idx, off = self._index.locate(k)
        vals = self._decode_block(idx)
        return int(vals[off].astype(np.int64))

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
        """Native frame payload: per-block XOR bit streams."""
        parts = [INT64_TRIPLE.pack(self._n, self._block_size, len(self._blocks))]
        for words, bit_length, count in self._blocks:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            parts.append(INT64_TRIPLE.pack(count, bit_length, len(words)))
            parts.append(words.tobytes())
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload, decode_fn, family=None) -> "_XorBlockCompressed":
        """Rebuild from :meth:`to_payload` output plus the family's decoder.

        Zero-copy: block word buffers are adopted as (read-only) views of
        ``payload``, which may be any byte buffer, e.g. an mmapped frame.
        Every block must hold at least one value and the block counts must
        sum to the header's ``n``.
        """
        if len(payload) < 24:
            raise ValueError("corrupt XOR payload: header incomplete")
        n, block_size, nblocks = INT64_TRIPLE.unpack_from(payload)
        pos = 24
        blocks = []
        for idx in range(nblocks):
            if pos + 24 > len(payload):
                raise ValueError("corrupt XOR payload: truncated block header")
            count, bit_length, nwords = INT64_TRIPLE.unpack_from(payload, pos)
            pos += 24
            end = pos + 8 * nwords
            if nwords < 0 or end > len(payload):
                raise ValueError("corrupt XOR payload: bad block length")
            if count < 1:
                raise ValueError(
                    f"corrupt XOR payload: block {idx} holds {count} values"
                )
            words = np.frombuffer(payload, dtype=np.uint64, count=nwords, offset=pos)
            blocks.append((words, bit_length, count))
            pos = end
        total = sum(count for _, _, count in blocks)
        if total != n:
            raise ValueError(
                f"corrupt XOR payload: blocks hold {total} values, header says {n}"
            )
        return cls(blocks, n, block_size, decode_fn, family)


class GorillaCompressor(LosslessCompressor):
    """Gorilla, applied block-wise for random access (paper §IV-A2).

    Blocks are written by the vectorised
    :func:`repro.kernels.encode_gorilla_blocks`, byte-identical to
    :func:`gorilla_encode`; :meth:`compress_many` encodes the blocks of
    many series in one call.
    """

    name = "Gorilla"

    def __init__(self, block_size: int = DEFAULT_BLOCK) -> None:
        self._block_size = check_block_size(block_size)

    def compress(self, values: np.ndarray) -> _XorBlockCompressed:
        return self.compress_many([values])[0]

    def compress_many(self, series) -> list[_XorBlockCompressed]:
        from .. import kernels

        size = self._block_size
        lengths: list[int] = []

        def blocks():  # lazy: one input copy is live at a time
            for values in series:
                values = self._check_input(values)
                lengths.append(len(values))
                for start in range(0, len(values), size):
                    yield values[start : start + size]

        encoded = kernels.encode_gorilla_blocks(blocks())
        out: list[_XorBlockCompressed] = []
        pos = 0
        for n in lengths:
            nblocks = -(-n // size)
            out.append(_XorBlockCompressed(
                encoded[pos : pos + nblocks], n, size, gorilla_decode,
                family="gorilla",
            ))
            pos += nblocks
        return out
