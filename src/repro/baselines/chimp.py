"""Chimp and Chimp128 (Liakos et al., PVLDB 2022).

Chimp refines Gorilla's XOR scheme with a 2-bit flag and a quantised
leading-zero table, exploiting the observation that XORs of consecutive
values often have *many trailing zeros*:

* ``00`` — XOR is zero;
* ``01`` — XOR has more than 6 trailing zeros: write a 3-bit quantised
  leading-zero code, a 6-bit count of centre bits, and the centre bits;
* ``10`` — leading-zero count equals the previous one: write ``64 - lz`` bits;
* ``11`` — new leading-zero count: 3-bit code plus ``64 - lz`` bits.

Chimp128 additionally searches the previous 128 values for the reference
producing the most trailing zeros (located through a hash of the low bits of
the value, as in the original), paying a 7-bit index.

Both are applied block-wise for random access (paper §IV-A2).
"""

from __future__ import annotations

import numpy as np

from ..bits import BitReader, BitWriter
from .base import LosslessCompressor
from .blockwise import DEFAULT_BLOCK, check_block_size
from .gorilla import _XorBlockCompressed, _clz, _ctz

__all__ = ["ChimpCompressor", "Chimp128Compressor"]

#: quantisation of leading-zero counts to 3 bits (from the Chimp paper)
_LZ_ROUND = [0, 8, 12, 16, 18, 20, 22, 24]
_LZ_CODE = {}
for _code, _v in enumerate(_LZ_ROUND):
    _LZ_CODE[_v] = _code


def _round_lz(lz: int) -> int:
    """Largest table entry not exceeding ``lz``."""
    best = 0
    for v in _LZ_ROUND:
        if v <= lz:
            best = v
    return best


def chimp_encode(values: list[int], writer: BitWriter) -> None:
    """Encode unsigned 64-bit ``values`` with the Chimp scheme."""
    first = values[0]
    writer.write(first, 64)
    prev = first
    prev_lz = -1
    for v in values[1:]:
        xor = prev ^ v
        prev = v
        if xor == 0:
            writer.write(0b00, 2)
            prev_lz = -1
            continue
        tz = _ctz(xor)
        lz = _round_lz(min(_clz(xor), 31))
        if tz > 6:
            center = 64 - lz - tz
            writer.write(0b10, 2)  # LSB-first: flag bits (0, 1)
            writer.write(_LZ_CODE[lz], 3)
            writer.write(center, 6)
            writer.write(xor >> tz, center)
            prev_lz = -1
        elif lz == prev_lz:
            writer.write(0b01, 2)  # flag bits (1, 0)
            writer.write(xor, 64 - lz)
        else:
            writer.write(0b11, 2)  # flag bits (1, 1)
            writer.write(_LZ_CODE[lz], 3)
            writer.write(xor, 64 - lz)
            prev_lz = lz


def chimp_decode(reader: BitReader, count: int) -> list[int]:
    """Decode ``count`` values encoded by :func:`chimp_encode`."""
    first = reader.read(64)
    out = [first]
    prev = first
    prev_lz = -1
    for _ in range(count - 1):
        b0 = reader.read_bool()
        b1 = reader.read_bool()
        if not b0 and not b1:  # 00
            out.append(prev)
            prev_lz = -1
            continue
        if not b0 and b1:  # 01 in stream order = our "10" literal => tz case
            lz = _LZ_ROUND[reader.read(3)]
            center = reader.read(6)
            xor = reader.read(center) << (64 - lz - center)
            prev ^= xor
            prev_lz = -1
        elif b0 and not b1:  # same leading zeros
            xor = reader.read(64 - prev_lz_value(prev_lz))
            prev ^= xor
        else:  # new leading zeros
            prev_lz = _LZ_ROUND[reader.read(3)]
            xor = reader.read(64 - prev_lz)
            prev ^= xor
        out.append(prev)
    return out


def prev_lz_value(prev_lz: int) -> int:
    """Guard against decoding '10' before any '11' set a leading-zero count."""
    if prev_lz < 0:
        raise ValueError("corrupt Chimp stream: window flag before window")
    return prev_lz


class ChimpCompressor(LosslessCompressor):
    """Chimp, block-wise."""

    name = "Chimp"

    def __init__(self, block_size: int = DEFAULT_BLOCK) -> None:
        self._block_size = check_block_size(block_size)

    def compress(self, values: np.ndarray) -> _XorBlockCompressed:
        values = self._check_input(values)
        unsigned = values.astype(np.uint64).tolist()
        blocks = []
        for start in range(0, len(unsigned), self._block_size):
            chunk = unsigned[start : start + self._block_size]
            writer = BitWriter()
            chimp_encode(chunk, writer)
            blocks.append((writer.getbuffer(), writer.bit_length, len(chunk)))
        return _XorBlockCompressed(
            blocks, len(values), self._block_size, chimp_decode, family="chimp"
        )


# ---------------------------------------------------------------------------
# Chimp128
# ---------------------------------------------------------------------------

_WINDOW = 128
_HASH_BITS = 14
_HASH_MASK = (1 << _HASH_BITS) - 1


def chimp128_encode(values: list[int], writer: BitWriter) -> None:
    """Encode with a 128-value reference window located by an LSB hash."""
    first = values[0]
    writer.write(first, 64)
    ring: list[int] = [first]
    indices: dict[int, int] = {first & _HASH_MASK: 0}
    prev_lz = -1
    for pos in range(1, len(values)):
        v = values[pos]
        key = v & _HASH_MASK
        cand = indices.get(key, -1)
        ref_off = 0
        use_window = False
        if cand >= 0 and pos - cand <= _WINDOW:
            ref = ring[cand % _WINDOW] if len(ring) >= _WINDOW else ring[cand]
            xor = ref ^ v
            if xor == 0 or _ctz(xor) > 6:
                use_window = True
                ref_off = pos - cand - 1  # 0..127
        if use_window:
            if xor == 0:
                writer.write(0b00, 2)
                writer.write(ref_off, 7)
            else:
                tz = _ctz(xor)
                lz = _round_lz(min(_clz(xor), 31))
                center = 64 - lz - tz
                writer.write(0b10, 2)
                writer.write(ref_off, 7)
                writer.write(_LZ_CODE[lz], 3)
                writer.write(center, 6)
                writer.write(xor >> tz, center)
            prev_lz = -1
        else:
            ref = ring[(pos - 1) % _WINDOW] if len(ring) >= _WINDOW else ring[pos - 1]
            xor = ref ^ v
            lz = _round_lz(min(_clz(xor), 31))
            if lz == prev_lz:
                writer.write(0b01, 2)
                writer.write(xor, 64 - lz)
            else:
                writer.write(0b11, 2)
                writer.write(_LZ_CODE[lz], 3)
                writer.write(xor, 64 - lz)
                prev_lz = lz
        if len(ring) >= _WINDOW:
            ring[pos % _WINDOW] = v
        else:
            ring.append(v)
        indices[key] = pos


def chimp128_decode(reader: BitReader, count: int) -> list[int]:
    """Decode a :func:`chimp128_encode` stream."""
    first = reader.read(64)
    out = [first]
    prev_lz = -1
    for pos in range(1, count):
        b0 = reader.read_bool()
        b1 = reader.read_bool()
        if not b0 and not b1:  # exact window match
            ref_off = reader.read(7)
            out.append(out[pos - 1 - ref_off])
            prev_lz = -1
        elif not b0 and b1:  # window match with centre bits
            ref_off = reader.read(7)
            lz = _LZ_ROUND[reader.read(3)]
            center = reader.read(6)
            xor = reader.read(center) << (64 - lz - center)
            out.append(out[pos - 1 - ref_off] ^ xor)
            prev_lz = -1
        elif b0 and not b1:  # previous value, same leading zeros
            xor = reader.read(64 - prev_lz_value(prev_lz))
            out.append(out[pos - 1] ^ xor)
        else:  # previous value, new leading zeros
            prev_lz = _LZ_ROUND[reader.read(3)]
            xor = reader.read(64 - prev_lz)
            out.append(out[pos - 1] ^ xor)
    return out


class Chimp128Compressor(LosslessCompressor):
    """Chimp128, block-wise."""

    name = "Chimp128"

    def __init__(self, block_size: int = DEFAULT_BLOCK) -> None:
        self._block_size = check_block_size(block_size)

    def compress(self, values: np.ndarray) -> _XorBlockCompressed:
        values = self._check_input(values)
        unsigned = values.astype(np.uint64).tolist()
        blocks = []
        for start in range(0, len(unsigned), self._block_size):
            chunk = unsigned[start : start + self._block_size]
            writer = BitWriter()
            chimp128_encode(chunk, writer)
            blocks.append((writer.getbuffer(), writer.bit_length, len(chunk)))
        return _XorBlockCompressed(
            blocks, len(values), self._block_size, chimp128_decode, family="chimp128"
        )
