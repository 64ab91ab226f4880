"""Backend selection: the numpy default and scoped ``use_backend`` overrides."""

import numpy as np
import pytest

import repro.kernels as kernels


class TestResolution:
    def test_default_is_an_accelerated_backend(self):
        assert kernels.get_backend() == "numpy"


class TestSetBackend:
    """``use_backend`` is the one way to set a backend."""

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with kernels.use_backend("cuda"):
                pass
        assert kernels.get_backend() == "numpy"

    def test_use_backend_restores_on_exit(self):
        with kernels.use_backend("python"):
            assert kernels.get_backend() == "python"
            with kernels.use_backend("numpy"):
                assert kernels.get_backend() == "numpy"
            assert kernels.get_backend() == "python"
        assert kernels.get_backend() == "numpy"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with kernels.use_backend("python"):
                raise RuntimeError("boom")
        assert kernels.get_backend() == "numpy"


def test_backend_switch_changes_decode_route_not_result():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 2**50, 500, dtype=np.uint64)
    from repro.bits import BitWriter
    from repro.baselines.gorilla import gorilla_encode

    writer = BitWriter()
    gorilla_encode([int(v) for v in values], writer)
    words, bits = writer.getbuffer(), writer.bit_length
    outs = {}
    for backend in kernels.BACKENDS:
        with kernels.use_backend(backend):
            outs[backend] = kernels.decode_xor_block(
                "gorilla", words, bits, len(values)
            )
    for backend, out in outs.items():
        assert np.array_equal(out, values), backend
