"""Cross-backend parity for every registered codec.

The contract the kernel layer must uphold (docs/kernels.md): for any
input series, any registered codec, and both backends,

* the serialised native frame is **byte-identical** — compression must
  not depend on which backend packed the bits;
* full decompression, point access, and range slices (bit-offset slices
  included) decode to identical values.

The ``python`` backend is the reference; ``numpy`` must match it exactly.
The Gorilla block encoder has one path, so it is held to the scalar
``gorilla_encode`` instead, block by block and frame by frame.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
import repro.kernels as kernels
from repro.baselines.gorilla import gorilla_encode
from repro.bits import BitWriter
from repro.codecs import get_codec
from repro.codecs.registry import available_codecs, codec_spec

SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

series_st = st.lists(
    st.integers(-(2**44), 2**44), min_size=1, max_size=300
).map(lambda xs: np.array(xs, dtype=np.int64))


def _params(cid):
    spec = codec_spec(cid)
    params = {}
    if "eps" in getattr(spec, "required_params", ()):
        params["eps"] = 4.0
    if getattr(spec, "needs_digits", False):
        params["digits"] = 2
    return params


def _decode(compressed):
    out = compressed.decompress()
    return np.asarray(out)


@pytest.mark.parametrize("cid", available_codecs())
@given(series=series_st)
@settings(**SETTINGS)
def test_cross_backend_parity(cid, series):
    params = _params(cid)
    with kernels.use_backend("python"):
        ref = repro.compress(series, codec=cid, **params)
        ref_payload = ref.to_payload()
        ref_out = _decode(ref)
    n = len(series)
    lo, hi = n // 3, n - n // 4
    for backend in kernels.BACKENDS[1:]:
        with kernels.use_backend(backend):
            compressed = repro.compress(series, codec=cid, **params)
            assert bytes(compressed.to_payload()) == bytes(ref_payload), (
                f"{cid}: {backend} serialisation differs from python"
            )
            assert np.array_equal(_decode(compressed), ref_out)
            # decode the python-built object under the accelerated backend
            assert np.array_equal(_decode(ref), ref_out)
            if hasattr(ref, "decompress_range") and lo < hi:
                assert np.array_equal(
                    np.asarray(ref.decompress_range(lo, hi)), ref_out[lo:hi]
                )
            for k in {0, n // 2, n - 1}:
                assert ref.access(k) == ref_out[k]


@pytest.mark.parametrize("cid", ["gorilla", "chimp", "chimp128", "tsxor"])
def test_block_boundary_slices(cid):
    """Series crossing the 1000-value block boundary: slices that start,
    end, and straddle block edges must agree across backends."""
    rng = np.random.default_rng(17)
    n = 2500
    series = np.cumsum(rng.integers(-8, 9, n)).astype(np.int64)
    windows = [(0, n), (999, 1001), (1000, 2000), (1, 999), (1999, 2500),
               (998, 2003), (0, 1), (2499, 2500)]
    with kernels.use_backend("python"):
        compressed = repro.compress(series, codec=cid)
        want = {w: compressed.decompress_range(*w) for w in windows}
    for backend in kernels.BACKENDS[1:]:
        with kernels.use_backend(backend):
            fresh = repro.compress(series, codec=cid)
            for w in windows:
                assert np.array_equal(fresh.decompress_range(*w), want[w]), w
                assert np.array_equal(compressed.decompress_range(*w), want[w])


I64_MIN, I64_MAX = -(2**63), 2**63 - 1
_SPECIAL = np.array([I64_MIN, I64_MAX, 0, -1], dtype=np.int64)


def _piece(recipe):
    """A piece of ``length`` values mixing extremes, repeats and walks."""
    length, seed, kinds = recipe
    rng = np.random.default_rng(seed)
    parts = []
    for i, kind in enumerate(kinds):
        n = length // len(kinds) + (i < length % len(kinds))
        if kind == "special":
            parts.append(rng.choice(_SPECIAL, n))
        elif kind == "repeat":
            parts.append(np.repeat(rng.choice(_SPECIAL, max(1, n // 8)), 8)[:n])
        elif kind == "walk":
            parts.append(np.cumsum(rng.integers(-4, 5, n)) + int(rng.integers(-99, 99)))
        else:
            parts.append(rng.integers(I64_MIN, I64_MAX, n, dtype=np.int64, endpoint=True))
    out = np.concatenate(parts).astype(np.int64)
    return out if len(out) else rng.choice(_SPECIAL, 1)


pieces_st = st.lists(
    st.one_of(
        st.lists(
            st.one_of(st.sampled_from([I64_MIN, I64_MAX, 0, -1]), st.integers(-8, 8)),
            min_size=1, max_size=64,
        ).map(lambda xs: np.array(xs, dtype=np.int64)),
        st.tuples(
            st.integers(1, 4096),
            st.integers(0, 2**32 - 1),
            st.lists(
                st.sampled_from(["special", "repeat", "walk", "wild"]),
                min_size=1, max_size=4,
            ),
        ).map(_piece),
    ),
    min_size=1, max_size=40,
)


@given(pieces=pieces_st)
@settings(max_examples=25, deadline=None)
def test_gorilla_batch_encode_matches_scalar(pieces):
    blocks = [p[i : i + 1000] for p in pieces for i in range(0, len(p), 1000)]
    for block, (words, bit_length, count) in zip(
        blocks, kernels.encode_gorilla_blocks(blocks), strict=True
    ):
        writer = BitWriter()
        gorilla_encode(block.astype(np.uint64).tolist(), writer)
        assert (bit_length, count) == (writer.bit_length, len(block))
        assert np.array_equal(words, writer.getbuffer())
    compressor = get_codec("gorilla")
    batch = compressor.compress_many(pieces)
    assert len(batch) == len(pieces)
    for piece, compressed in zip(pieces, batch):
        assert compressed.to_bytes() == compressor.compress(piece).to_bytes()
