"""Decode-kernel parity: every backend, every family, byte-identical."""

import numpy as np
import pytest

import repro.kernels as kernels
from repro.kernels.xor import _LZ_ROUND, resolve_chains
from repro.baselines import chimp as chimp_mod
from repro.baselines.chimp import chimp128_encode, chimp_encode
from repro.baselines.gorilla import gorilla_encode
from repro.baselines.tsxor import tsxor_decode, tsxor_encode
from repro.bits import BitWriter

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
