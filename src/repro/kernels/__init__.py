"""Kernel dispatch: the vectorised decode hot paths, and Gorilla encode.

Every decode inner loop that dominates a benchmark — block-level XOR
decoding (Gorilla/Chimp/TSXor), piecewise segment evaluation (NeaTS and the
lossy codecs), and fixed-width bit packing — routes through this package, so
one switch selects the implementation everywhere:

* ``numpy``  — the default: word-level vectorised decoders, one cheap
  control-bit scan followed by bulk field extraction and a single
  ``bitwise_xor.accumulate`` (or ``np.repeat`` segment evaluation) over the
  whole block.
* ``python`` — the original scalar loops (``BitReader`` per value); the
  reference the numpy path is parity-tested and benchmarked against.

:func:`use_backend` scopes a backend to a ``with`` block; it is the only
way to leave the default.

Both backends are bit-for-bit interchangeable: the parity suite
(``tests/kernels``) asserts byte-identical decode output across backends
for every registered codec, including bit-offset slices and block
boundaries.  :func:`encode_gorilla_blocks`, the Gorilla block encoder,
has one path under both backends; the scalar ``gorilla_encode`` is its
test oracle.  See ``docs/kernels.md`` for how to add a kernel.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

__all__ = [
    "BACKENDS",
    "get_backend",
    "use_backend",
    "pack_bits",
    "unpack_bits",
    "unpack_fields",
    "decode_xor_block",
    "decode_xor_blocks",
    "encode_gorilla_blocks",
    "decode_tsxor_block",
    "decode_tsxor_blocks",
    "evaluate_fragments",
    "XOR_FAMILIES",
]

#: every backend name, the scalar reference first
BACKENDS = ("python", "numpy")

_backend = "numpy"


def get_backend() -> str:
    """The active kernel backend name: ``numpy`` unless :func:`use_backend`
    has selected another."""
    return _backend


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Context manager: run a block under a specific backend."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"expected one of {', '.join(BACKENDS)}"
        )
    previous = _backend
    _backend = name
    try:
        yield
    finally:
        _backend = previous


# The kernel modules import get_backend from here, so they load last.
from .bitpack import pack_bits, unpack_bits, unpack_fields  # noqa: E402
from .segments import evaluate_fragments  # noqa: E402
from .tsxor import decode_block as decode_tsxor_block  # noqa: E402
from .tsxor import decode_blocks as decode_tsxor_blocks  # noqa: E402
from .xor import XOR_FAMILIES  # noqa: E402
from .xor import decode_block as decode_xor_block  # noqa: E402
from .xor import decode_blocks as decode_xor_blocks  # noqa: E402
from .xor import encode_gorilla_blocks  # noqa: E402
