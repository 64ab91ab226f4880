"""Property-based tests (hypothesis) for the succinct data structures."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bits import BitReader, BitVector, BitWriter, EliasFano, PackedArray

SETTINGS = dict(max_examples=60, deadline=None)


@st.composite
def field_lists(draw):
    widths = draw(st.lists(st.integers(1, 64), min_size=1, max_size=80))
    return [(draw(st.integers(0, (1 << w) - 1)), w) for w in widths]


class TestBitIO:
    @given(fields=field_lists())
    @settings(**SETTINGS)
    def test_write_read_roundtrip(self, fields):
        w = BitWriter()
        for value, width in fields:
            w.write(value, width)
        r = BitReader(w.getbuffer(), w.bit_length)
        for value, width in fields:
            assert r.read(width) == value

    @given(values=st.lists(st.integers(0, 300), min_size=1, max_size=50))
    @settings(**SETTINGS)
    def test_unary_roundtrip(self, values):
        w = BitWriter()
        for v in values:
            w.write_unary(v)
        r = BitReader(w.getbuffer(), w.bit_length)
        assert [r.read_unary() for _ in values] == values


class TestPackedArrayProps:
    @given(
        values=st.lists(st.integers(0, (1 << 30) - 1), max_size=200),
    )
    @settings(**SETTINGS)
    def test_roundtrip_and_vectorised_agreement(self, values):
        pa = PackedArray(values)
        assert list(pa) == values
        assert pa.to_numpy().tolist() == values

    @given(
        values=st.lists(st.integers(0, 255), min_size=2, max_size=100),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_slice_matches(self, values, data):
        pa = PackedArray(values, width=8)
        a = data.draw(st.integers(0, len(values)))
        b = data.draw(st.integers(a, len(values)))
        assert pa.slice(a, b).tolist() == values[a:b]


class TestBitVectorProps:
    @given(bits=st.lists(st.booleans(), max_size=400))
    @settings(**SETTINGS)
    def test_rank_select_inverse(self, bits):
        bv = BitVector([1 if b else 0 for b in bits])
        ones = [i for i, b in enumerate(bits) if b]
        assert bv.count_ones == len(ones)
        for k, pos in enumerate(ones):
            assert bv.select1(k) == pos
            assert bv.rank1(pos) == k
            assert bv.rank1(pos + 1) == k + 1

    @given(bits=st.lists(st.booleans(), min_size=1, max_size=300), data=st.data())
    @settings(**SETTINGS)
    def test_rank_monotone(self, bits, data):
        bv = BitVector([1 if b else 0 for b in bits])
        i = data.draw(st.integers(0, len(bits)))
        j = data.draw(st.integers(i, len(bits)))
        assert bv.rank1(i) <= bv.rank1(j)
        assert bv.rank1(j) - bv.rank1(i) <= j - i


class TestEliasFanoProps:
    @given(
        values=st.lists(st.integers(0, 10**6), max_size=200).map(sorted),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_access_and_rank(self, values, data):
        ef = EliasFano(values)
        assert ef.to_list() == values
        x = data.draw(st.integers(-10, 10**6 + 10))
        import bisect

        assert ef.rank(x) == bisect.bisect_right(values, x)

    @given(values=st.lists(st.integers(0, 10**5), min_size=1, max_size=150).map(sorted))
    @settings(**SETTINGS)
    def test_predecessor_law(self, values):
        ef = EliasFano(values)
        for x in (values[0], values[-1], values[len(values) // 2]):
            p = ef.predecessor(x)
            assert p <= x
            assert p in values
