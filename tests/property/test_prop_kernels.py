"""Cross-backend parity for every registered codec.

The contract the kernel layer must uphold (docs/kernels.md): for any
input series, any registered codec, and both backends,

* the serialised native frame is **byte-identical** — compression must
  not depend on which backend packed the bits;
* full decompression, point access, and range slices (bit-offset slices
  included) decode to identical values.

The ``python`` backend is the reference; ``numpy`` must match it exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
import repro.kernels as kernels
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
