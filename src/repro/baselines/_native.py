"""Struct helpers shared by the codecs' native frame payloads.

DAC, LeCo, and ALP store their compressed state in the repo's succinct
structures (:class:`~repro.bits.packed.PackedArray`,
:class:`~repro.bits.BitVector`); their native payloads serialise those
structures by word buffer, so loading is a direct O(size) parse — no
recompression — and works over any byte buffer, including a ``memoryview``
of a memory-mapped archive.

The lossy codecs (NeaTS-L, PLA, AA) persist *fitted pieces* instead: a run
of ``[start, end)`` ranges with their float64 parameters, optionally tagged
with a model/family name.  The record helpers here serialise one such piece;
parameters are stored as raw IEEE doubles, so a round-trip reproduces the
exact approximation bit for bit.

Layouts (little-endian):

* packed array — ``width:u8, length:i64, nwords:i64`` + words;
* bitvector    — ``length:i64, nwords:i64`` + words;
* name         — ``len:u8`` + utf-8 bytes;
* segment      — ``start:i64, end:i64, n_params:u8`` + n_params doubles.
"""

from __future__ import annotations

import struct

import numpy as np

from ..bits import BitVector, PackedArray

__all__ = [
    "INT64",
    "INT64_PAIR",
    "INT64_TRIPLE",
    "UINT32",
    "FLOAT64",
    "AA_HDR",
    "ALP_HDR",
    "ALP_BLOCK",
    "DAC_HDR",
    "DAC_LEVEL",
    "LECO_HDR",
    "LECO_BLOCK",
    "LOSSY_HDR",
    "NEATS_HDR",
    "NEATS102_HDR",
    "TSI64_HDR",
    "pack_packed_array",
    "unpack_packed_array",
    "pack_bitvector",
    "unpack_bitvector",
    "read_words",
    "pack_name",
    "unpack_name",
    "pack_segment",
    "unpack_segment",
]

_PACKED_HDR = struct.Struct("<Bqq")  # width, length, nwords
_BV_HDR = struct.Struct("<qq")  # length, nwords
_SEG_HDR = struct.Struct("<qqB")  # start, end, n_params

# Primitive little-endian layouts shared by every native payload.  The
# linter confines raw ``struct`` to this module (rule RPR102): codecs name
# their fields here instead of scattering format strings.
INT64 = struct.Struct("<q")
INT64_PAIR = struct.Struct("<qq")
INT64_TRIPLE = struct.Struct("<qqq")  # blockwise directory: n, block, count
UINT32 = struct.Struct("<I")
FLOAT64 = struct.Struct("<d")

# Per-codec native payload headers (field meanings in each codec module).
AA_HDR = struct.Struct("<qdI")  # n, eps, n_segments
ALP_HDR = struct.Struct("<qdq")  # n, scale, number of integer patches
ALP_BLOCK = struct.Struct("<BBqqq")  # e, f, base, count, exception count
DAC_HDR = struct.Struct("<qB")  # n, number of levels
DAC_LEVEL = struct.Struct("<BB")  # chunk width, has-bitmap flag
LECO_HDR = struct.Struct("<qq")  # n, number of blocks
LECO_BLOCK = struct.Struct("<qddq")  # start, slope, intercept, base
LOSSY_HDR = struct.Struct("<qqdI")  # n, shift, eps, n_segments/fragments
# NeaTS101 frames (read only).  The last field is a legacy flag, 0 or 1 (1
# marked a frame from the retired bitvector rank; its arrays are the same).
NEATS_HDR = struct.Struct("<qqqqB")  # n, m, shift, name_len, flag
NEATS102_HDR = struct.Struct("<qqqq")  # n, m, shift, correction bits
TSI64_HDR = struct.Struct("<qi")  # value count, decimal digits


def read_words(view, pos: int, nwords: int, what: str) -> tuple[np.ndarray, int]:
    """``nwords`` little-endian u64 words at ``pos`` — zero-copy when possible."""
    if nwords < 0 or pos + 8 * nwords > len(view):
        raise ValueError(f"corrupt {what}: bad word count {nwords}")
    words = np.frombuffer(view, dtype=np.uint64, count=nwords, offset=pos)
    return words, pos + 8 * nwords


def pack_packed_array(arr: PackedArray) -> bytes:
    """Serialise a :class:`PackedArray` (header + word buffer)."""
    words = arr.words
    return _PACKED_HDR.pack(arr.width, len(arr), len(words)) + words.tobytes()


def unpack_packed_array(view, pos: int, what: str) -> tuple[PackedArray, int]:
    """Inverse of :func:`pack_packed_array`, reading at ``pos`` in ``view``."""
    if pos + _PACKED_HDR.size > len(view):
        raise ValueError(f"corrupt {what}: truncated packed array header")
    width, length, nwords = _PACKED_HDR.unpack_from(view, pos)
    words, pos = read_words(view, pos + _PACKED_HDR.size, nwords, what)
    return PackedArray.from_words(words, width, length), pos


def pack_bitvector(bv: BitVector) -> bytes:
    """Serialise a :class:`BitVector` (header + word buffer)."""
    words = bv.words
    return _BV_HDR.pack(bv.length, len(words)) + words.tobytes()


def unpack_bitvector(view, pos: int, what: str) -> tuple[BitVector, int]:
    """Inverse of :func:`pack_bitvector`, reading at ``pos`` in ``view``."""
    if pos + _BV_HDR.size > len(view):
        raise ValueError(f"corrupt {what}: truncated bitvector header")
    length, nwords = _BV_HDR.unpack_from(view, pos)
    if length < 0 or nwords != (length + 63) // 64:
        raise ValueError(f"corrupt {what}: bitvector holds {nwords} words "
                         f"for {length} bits")
    words, pos = read_words(view, pos + _BV_HDR.size, nwords, what)
    return BitVector((words, length)), pos


def pack_name(name: str) -> bytes:
    """Serialise a short identifier (model kind, AA family) as len + utf-8."""
    raw = name.encode("utf-8")
    if len(raw) > 255:
        raise ValueError(f"name too long to serialise: {name!r}")
    return bytes([len(raw)]) + raw


def unpack_name(view, pos: int, what: str) -> tuple[str, int]:
    """Inverse of :func:`pack_name`, reading at ``pos`` in ``view``."""
    if pos + 1 > len(view):
        raise ValueError(f"corrupt {what}: truncated name")
    nlen = view[pos]
    pos += 1
    if pos + nlen > len(view):
        raise ValueError(f"corrupt {what}: truncated name")
    return bytes(view[pos : pos + nlen]).decode("utf-8"), pos + nlen


def pack_segment(start: int, end: int, params) -> bytes:
    """Serialise one fitted piece: its range and raw float64 parameters."""
    params = tuple(float(p) for p in params)
    if len(params) > 255:
        raise ValueError(f"too many parameters to serialise: {len(params)}")
    return _SEG_HDR.pack(start, end, len(params)) + struct.pack(
        f"<{len(params)}d", *params
    )


def unpack_segment(view, pos: int, what: str) -> tuple[tuple, int]:
    """Inverse of :func:`pack_segment`: ``(start, end, params), new_pos``."""
    if pos + _SEG_HDR.size > len(view):
        raise ValueError(f"corrupt {what}: truncated segment header")
    start, end, n_params = _SEG_HDR.unpack_from(view, pos)
    pos += _SEG_HDR.size
    if not 0 <= start < end:
        raise ValueError(f"corrupt {what}: bad segment range [{start}, {end})")
    if pos + 8 * n_params > len(view):
        raise ValueError(f"corrupt {what}: truncated segment parameters")
    params = struct.unpack_from(f"<{n_params}d", view, pos)
    return (start, end, params), pos + 8 * n_params
