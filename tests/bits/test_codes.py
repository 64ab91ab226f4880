"""Unit tests for the LEB128 varint."""

import pytest

from repro.bits import decode_varint, encode_varint


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 16383, 16384, 10**15])
    def test_roundtrip(self, value):
        buf = bytearray()
        encode_varint(value, buf)
        decoded, pos = decode_varint(buf, 0)
        assert decoded == value
        assert pos == len(buf)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            encode_varint(-1, bytearray())

    def test_single_byte_for_small(self):
        buf = bytearray()
        encode_varint(127, buf)
        assert len(buf) == 1

    def test_stream_of_varints(self):
        values = [0, 300, 7, 1 << 40, 128]
        buf = bytearray()
        for v in values:
            encode_varint(v, buf)
        pos = 0
        out = []
        for _ in values:
            v, pos = decode_varint(buf, pos)
            out.append(v)
        assert out == values
