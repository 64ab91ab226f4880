"""XOR-kernel parity: every decode backend and the Gorilla block encoder
are byte-identical to the scalar codecs."""

import tracemalloc

import numpy as np
import pytest

import repro.kernels as kernels
import repro.kernels.xor as xor_mod
from repro.kernels.xor import _LZ_ROUND, resolve_chains
from repro.baselines import chimp as chimp_mod
from repro.baselines.chimp import chimp128_encode, chimp_encode
from repro.baselines.gorilla import (
    GorillaCompressor,
    _XorBlockCompressed,
    gorilla_decode,
    gorilla_encode,
)
from repro.baselines.tsxor import tsxor_decode, tsxor_encode
from repro.bits import BitReader, BitWriter

ENCODERS = {
    "gorilla": gorilla_encode,
    "chimp": chimp_encode,
    "chimp128": chimp128_encode,
}


def _mixed_values(n, seed=0):
    """Repeats, near-repeats, and wild jumps: every control path."""
    rng = np.random.default_rng(seed)
    vals = np.empty(n, dtype=np.uint64)
    v = np.uint64(0x4059000000000000)
    for i in range(n):
        roll = rng.random()
        if roll < 0.25:
            pass  # exact repeat
        elif roll < 0.7:
            v ^= np.uint64(int(rng.integers(0, 2**14)) << int(rng.integers(0, 20)))
        else:
            v = rng.integers(0, 2**63, dtype=np.uint64)
        vals[i] = v
    return vals


def _encode(family, values):
    writer = BitWriter()
    ENCODERS[family](values.tolist(), writer)
    return writer.getbuffer(), writer.bit_length


class TestXorBlockParity:
    @pytest.mark.parametrize("family", kernels.XOR_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 500])
    def test_all_backends_identical(self, family, n):
        values = _mixed_values(n, seed=n)
        words, bits = _encode(family, values)
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                out = kernels.decode_xor_block(family, words, bits, n)
            assert out.dtype == np.uint64
            assert np.array_equal(out, values), (family, backend)

    @pytest.mark.parametrize("family", kernels.XOR_FAMILIES)
    def test_batch_equals_per_block(self, family):
        blocks = []
        expected = []
        for b in range(40):  # above _BATCH_MIN_BLOCKS: the lockstep path
            n = 17 + (b * 13) % 50
            values = _mixed_values(n, seed=b)
            words, bits = _encode(family, values)
            blocks.append((words, bits, n))
            expected.append(values)
        want = np.concatenate(expected)
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                out = kernels.decode_xor_blocks(family, blocks)
            assert np.array_equal(out, want), (family, backend)

    @pytest.mark.parametrize("family", kernels.XOR_FAMILIES)
    def test_zero_count_decodes_nothing(self, family):
        words, bits = _encode(family, _mixed_values(5))
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                out = kernels.decode_xor_block(family, words, bits, 0)
            assert out.dtype == np.uint64 and len(out) == 0, (family, backend)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown XOR family"):
            kernels.decode_xor_block("zigzag", np.zeros(2, np.uint64), 64, 1)


class TestTSXorParity:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 500])
    def test_all_backends_identical(self, n):
        values = _mixed_values(n, seed=n + 1000)
        blob = tsxor_encode(values)
        want = tsxor_decode(blob, n)
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                out = kernels.decode_tsxor_block(blob, n)
            assert np.array_equal(out, want), backend
        assert np.array_equal(want, values)

    def test_batch_equals_per_block(self):
        blocks = []
        expected = []
        for b in range(40):
            n = 11 + (b * 7) % 60
            values = _mixed_values(n, seed=b + 500)
            blocks.append((tsxor_encode(values), n))
            expected.append(values)
        want = np.concatenate(expected)
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                out = kernels.decode_tsxor_blocks(blocks)
            assert np.array_equal(out, want), backend


class TestCorruptStreams:
    """The vectorised scans must fail as loudly as the scalar decoders."""

    def test_chimp_window_flag_before_window(self):
        # ctl == 1 (same-lz) as the very first control pair: no window yet.
        writer = BitWriter()
        writer.write(0x4041000000000000 >> 0, 64)  # first value, raw
        writer.write(0b01, 2)  # LSB-first ctl == 1
        writer.write(0, 30)
        words, bits = writer.getbuffer(), writer.bit_length
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                with pytest.raises(ValueError, match="corrupt Chimp stream"):
                    kernels.decode_xor_block("chimp", words, bits, 2)

    def test_chimp_corrupt_inside_batch(self):
        good_blocks = []
        for b in range(40):
            values = _mixed_values(20, seed=b)
            words, bits = _encode("chimp", values)
            good_blocks.append((words, bits, 20))
        writer = BitWriter()
        writer.write(123456789, 64)
        writer.write(0b01, 2)
        writer.write(0, 30)
        bad = (writer.getbuffer(), writer.bit_length, 2)
        with kernels.use_backend("numpy"):
            with pytest.raises(ValueError, match="corrupt Chimp stream"):
                kernels.decode_xor_blocks("chimp", good_blocks + [bad])


class TestResolveChains:
    def test_matches_scalar_resolution(self):
        rng = np.random.default_rng(3)
        n = 2000
        values = rng.integers(0, 2**63, n, dtype=np.uint64)
        parents = np.empty(n, dtype=np.int64)
        for i in range(n):
            if i == 0 or rng.random() < 0.1:
                parents[i] = -1
            elif rng.random() < 0.6:
                parents[i] = i - 1
            else:
                parents[i] = rng.integers(max(0, i - 127), i)
        want = np.empty(n, dtype=np.uint64)
        for i in range(n):
            p = parents[i]
            want[i] = values[i] if p < 0 else values[i] ^ want[p]
        got = resolve_chains(values.copy(), parents, depth=n)
        assert np.array_equal(got, want)

    def test_all_roots_and_single_run(self):
        values = np.array([7, 9, 12, 40], dtype=np.uint64)
        roots = resolve_chains(values.copy(), np.full(4, -1, dtype=np.int64), 4)
        assert np.array_equal(roots, values)
        chain = resolve_chains(
            values.copy(), np.array([-1, 0, 1, 2], dtype=np.int64), 4
        )
        assert np.array_equal(chain, np.bitwise_xor.accumulate(values))


def test_lz_round_table_matches_chimp_reference():
    """The kernel's leading-zero rounding table must track the codec's."""
    assert _LZ_ROUND == tuple(
        chimp_mod._round_lz(lz) for lz in _LZ_ROUND
    )
    for lz in range(65):
        assert chimp_mod._round_lz(lz) in _LZ_ROUND


# -- Gorilla block encode ------------------------------------------------------

I64_MIN, I64_MAX = -(2**63), 2**63 - 1


def _scalar_gorilla(block):
    """The reference: ``gorilla_encode`` into a fresh ``BitWriter``."""
    writer = BitWriter()
    gorilla_encode(np.asarray(block).astype(np.uint64).tolist(), writer)
    return writer.getbuffer(), writer.bit_length, len(block)


def _assert_matches_scalar(blocks):
    got = kernels.encode_gorilla_blocks(blocks)
    assert len(got) == len(blocks)
    for block, (words, bit_length, count) in zip(blocks, got):
        want_words, want_bits, want_count = _scalar_gorilla(block)
        assert (bit_length, count) == (want_bits, want_count)
        assert words.dtype == np.uint64
        assert np.array_equal(words, want_words)
    return got


def _scalar_payload(values, block_size=1000):
    blocks = [
        _scalar_gorilla(values[i : i + block_size])
        for i in range(0, len(values), block_size)
    ]
    return _XorBlockCompressed(
        blocks, len(values), block_size, gorilla_decode, family="gorilla"
    ).to_payload()


class TestGorillaEncode:
    """``encode_gorilla_blocks`` writes what ``gorilla_encode`` writes."""

    def test_one_value_blocks(self):
        _assert_matches_scalar([np.array([42]), np.array([1, 2, 3]), np.array([-1])])

    def test_all_equal_block(self):
        [(_, bit_length, _)] = _assert_matches_scalar([np.full(100, -7)])
        assert bit_length == 64 + 99  # the first value, then 99 '0' flags

    def test_leading_zero_count_clamps_at_31(self):
        # XOR 1 has 63 leading zeros; the 5-bit field holds at most 31
        [(words, bit_length, _)] = _assert_matches_scalar([np.array([0, 1, 3, 2])])
        reader = BitReader(words, bit_length)
        reader.read(64)
        assert reader.read(2) == 0b11
        assert reader.read(5) == 31

    def test_full_width_xor(self):
        # 0 ^ (MIN + 1) sets bits 63 and 0: a 64-bit window, whose length
        # field is 63; the next XOR reuses it with a 2-bit header
        block = np.array([0, I64_MIN + 1, 0, I64_MIN + 1, -1, 0])
        [(words, bit_length, _)] = _assert_matches_scalar([block])
        reader = BitReader(words, bit_length)
        reader.read(64)
        assert reader.read(2) == 0b11
        assert reader.read(5) == 0
        assert reader.read(6) == 63

    def test_fields_straddle_word_boundaries(self):
        # k repeats shift every later field by k bits: over k = 0..63 each
        # header and payload crosses a word boundary at every offset
        tail = [0x5A5A5, -3, I64_MAX, 0x5A5A5 << 20, 0]
        _assert_matches_scalar([np.array([0] * (k + 1) + tail) for k in range(64)])

    def test_extremes_walks_and_unsigned_input(self):
        rng = np.random.default_rng(3)
        blocks = [
            np.array([I64_MIN, I64_MAX, 0, -1, I64_MIN, I64_MIN, 1, -1]),
            rng.integers(I64_MIN, I64_MAX, 500, dtype=np.int64, endpoint=True),
            np.cumsum(rng.integers(-3, 4, 700)),
            _mixed_values(300, seed=9).view(np.int64),
        ]
        _assert_matches_scalar(blocks)
        _assert_matches_scalar([block.view(np.uint64) for block in blocks])

    def test_batch_longer_than_one_pass(self, monkeypatch):
        passes = []
        real = xor_mod._encode_gorilla_pass
        monkeypatch.setattr(xor_mod, "_encode_gorilla_pass", lambda blocks: (
            passes.append([len(block) for block in blocks]), real(blocks))[1])
        rng = np.random.default_rng(4)
        pieces = [np.cumsum(rng.integers(-9, 10, n)) for n in (10_000, 1, 2500, 9000)]
        got = GorillaCompressor().compress_many(pieces)
        # the first piece's 10 blocks: 8 fill the first pass, 2 open the next
        assert passes[0] == [1000] * 8
        assert passes[1][:2] == [1000, 1000]
        assert all(sum(counts) <= xor_mod._ENCODE_CHUNK for counts in passes)
        for piece, compressed in zip(pieces, got):
            assert compressed.to_payload() == _scalar_payload(piece)

    def test_block_longer_than_one_pass_is_a_pass_of_its_own(self, monkeypatch):
        passes = []
        real = xor_mod._encode_gorilla_pass
        monkeypatch.setattr(xor_mod, "_encode_gorilla_pass", lambda blocks: (
            passes.append([len(block) for block in blocks]), real(blocks))[1])
        piece = np.cumsum(np.random.default_rng(6).integers(-9, 10, 12_000))
        [compressed] = GorillaCompressor(block_size=10_000).compress_many([piece])
        assert passes == [[10_000], [2000]]
        assert compressed.to_payload() == _scalar_payload(piece, 10_000)

    def test_empty_series_refused(self):
        with pytest.raises(ValueError, match="empty"):
            GorillaCompressor().compress_many([np.arange(5), np.array([], np.int64)])
        with pytest.raises(ValueError, match="empty"):
            GorillaCompressor().compress(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="non-empty"):
            kernels.encode_gorilla_blocks([np.array([], dtype=np.int64)])

    def test_batch_memory_is_bounded(self):
        """64 pieces x 4096 values peak near 3 MiB traced in 8192-value
        passes; one pass over the whole batch would take about 50 MiB."""
        rng = np.random.default_rng(5)
        pieces = [np.cumsum(rng.integers(-50, 51, 4096)) for _ in range(64)]
        compressor = GorillaCompressor()
        compressor.compress_many(pieces[:1])  # warm up before tracing
        tracemalloc.start()
        try:
            compressed = compressor.compress_many(pieces)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(compressed) == 64
        assert peak < 8 * 2**20
