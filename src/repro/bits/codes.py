"""The LEB128 varint: the byte-oriented integer code of the PyLZ baseline."""

from __future__ import annotations

__all__ = ["encode_varint", "decode_varint"]


def encode_varint(value: int, out: bytearray) -> None:
    """LEB128 encoding of a non-negative integer into ``out``."""
    if value < 0:
        raise ValueError("varint codes non-negative integers")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(data: bytes | bytearray, pos: int) -> tuple[int, int]:
    """Decode a LEB128 varint at ``pos``; returns ``(value, next_pos)``."""
    value = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
