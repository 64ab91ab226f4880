"""Built-in codec line-up: adapters and registry entries for all compressors.

This module is imported lazily by :mod:`repro.codecs.registry` on first
lookup; importing it registers the paper's full Table III line-up (5
general-purpose, 8 special-purpose), the LeaTS/SNeaTS variants, and the
paper's three error-bounded lossy compressors (Table II: NeaTS-L, PLA, AA)
under stable string ids.

The lossy codecs register with ``lossy=True`` and a *required* ``eps``
construction param — an error bound is a contract, so there is no default —
and, like every codec here, with a native payload loader: a lossy frame
stores the fitted segments themselves (decompression is approximate, so
recompressing decoded values could never reproduce the object).

The NeaTS family shares one adapter class: since
:class:`~repro.core.compressor.CompressedSeries` implements the
:class:`~repro.baselines.base.Compressed` protocol, adapting NeaTS to the
compressor interface is only a matter of naming and input checking.
"""

from __future__ import annotations

import numpy as np

from ..baselines import (
    AaCompressor,
    AlpCompressor,
    Chimp128Compressor,
    ChimpCompressor,
    DacCompressor,
    GorillaCompressor,
    LeCoCompressor,
    PlaCompressor,
    TSXorCompressor,
)
from ..baselines.aa import AaSeries
from ..baselines.pla import PlaSeries
from ..baselines.alp import _AlpCompressed
from ..baselines.base import LosslessCompressor
from ..baselines.blockwise import BlockwiseCompressed
from ..baselines.chimp import chimp128_decode, chimp_decode
from ..baselines.dac import _DacCompressed
from ..baselines.leco import _LeCoCompressed
from ..baselines.general import (
    BrotliLikeCompressor,
    Lz4LikeCompressor,
    SnappyLikeCompressor,
    XzCompressor,
    ZstdLikeCompressor,
)
from ..baselines.gorilla import _XorBlockCompressed, gorilla_decode
from ..baselines.tsxor import _TSXorCompressed
from ..core.compressor import NeaTS, CompressedSeries
from ..core.lossy import LossySeries, NeaTSLossy
from .registry import codec_spec, register_codec

__all__ = ["NeaTSCompressor", "LeaTSCompressor", "SNeaTSCompressor"]


class NeaTSCompressor(LosslessCompressor):
    """Adapter presenting :class:`~repro.core.NeaTS` as a baseline-style compressor."""

    name = "NeaTS"
    native_random_access = True
    _make = staticmethod(NeaTS)

    def __init__(self, **kwargs) -> None:
        # Archives, appendable headers and store manifests written while a
        # bitvector rank was selectable persist rank_mode; the layout is the
        # same for both values, so they are read and ignored.
        legacy = kwargs.pop("rank_mode", "ef")
        if legacy not in ("ef", "bitvector"):
            raise ValueError(
                f"unknown rank_mode {legacy!r}: the option is retired, and only "
                "its old values 'ef' and 'bitvector' are still read"
            )
        self._inner = self._make(**kwargs)

    def compress(self, values: np.ndarray) -> CompressedSeries:
        return self._inner.compress(self._check_input(values))


class LeaTSCompressor(NeaTSCompressor):
    """LeaTS: the linear-only variant (§IV-C1)."""

    name = "LeaTS"
    _make = staticmethod(NeaTS.linear_only)


class SNeaTSCompressor(NeaTSCompressor):
    """SNeaTS: model selection on the first 10% of the series (§IV-C1)."""

    name = "SNeaTS"
    _make = staticmethod(NeaTS.with_model_selection)


# -- native payload loaders ----------------------------------------------------


def _load_neats(payload: bytes, params: dict) -> CompressedSeries:
    # The storage layout is self-describing; params only matter for compression.
    return CompressedSeries.from_payload(payload)


def _blockwise_loader(codec_id: str):
    def load(payload: bytes, params: dict) -> BlockwiseCompressed:
        compressor = codec_spec(codec_id).factory(**params)
        return BlockwiseCompressed.from_payload(payload, compressor._codec)

    return load


def _xor_loader(decode_fn, family=None):
    def load(payload: bytes, params: dict) -> _XorBlockCompressed:
        return _XorBlockCompressed.from_payload(payload, decode_fn, family)

    return load


def _load_tsxor(payload: bytes, params: dict) -> _TSXorCompressed:
    return _TSXorCompressed.from_payload(payload)


def _load_dac(payload, params: dict) -> _DacCompressed:
    return _DacCompressed.from_payload(payload)


def _load_leco(payload, params: dict) -> _LeCoCompressed:
    return _LeCoCompressed.from_payload(payload)


def _load_alp(payload, params: dict) -> _AlpCompressed:
    return _AlpCompressed.from_payload(payload)


def _lossy_loader(series_cls):
    """A native loader for a lossy series class, cross-checked against the
    frame params (ε and segment count travel in the header, see
    :meth:`~repro.baselines.base.LossyCompressed.to_bytes`)."""

    def load(payload, params: dict):
        series = series_cls.from_payload(payload)
        eps = params.get("eps")
        if eps is not None and float(eps) != series.eps:
            raise ValueError(
                f"corrupt codec frame: header says eps={eps}, "
                f"payload holds eps={series.eps}"
            )
        segments = params.get("segments")
        if segments is not None and int(segments) != series.num_segments:
            raise ValueError(
                f"corrupt codec frame: header says {segments} segments, "
                f"payload holds {series.num_segments}"
            )
        return series

    return load


# -- registrations -------------------------------------------------------------

# The NeaTS family: native random access, persisted via the succinct layout.
register_codec(
    "neats",
    table_name="NeaTS",
    native_random_access=True,
    description="NeaTS: optimal piecewise nonlinear approximation (the paper)",
    load_native=_load_neats,
)(NeaTSCompressor)
register_codec(
    "leats",
    table_name="LeaTS",
    native_random_access=True,
    description="LeaTS: NeaTS restricted to linear functions",
    load_native=_load_neats,
)(LeaTSCompressor)
register_codec(
    "sneats",
    table_name="SNeaTS",
    native_random_access=True,
    description="SNeaTS: NeaTS with sample-based model selection",
    load_native=_load_neats,
)(SNeaTSCompressor)

# Error-bounded lossy compressors (Table II).  Construction requires an
# explicit eps: repro.compress(values, codec="neats_l", eps=0.01).
register_codec(
    "neats_l",
    table_name="NeaTS-L",
    native_random_access=True,
    lossy=True,
    required_params=("eps",),
    description="NeaTS-L: optimal lossy partitioning under an L-inf bound (§III-B)",
    load_native=_lossy_loader(LossySeries),
)(NeaTSLossy)
register_codec(
    "pla",
    table_name="PLA",
    native_random_access=True,
    lossy=True,
    required_params=("eps",),
    description="Optimal piecewise linear approximation (O'Rourke 1981)",
    load_native=_lossy_loader(PlaSeries),
)(PlaCompressor)
register_codec(
    "aa",
    table_name="AA",
    native_random_access=True,
    lossy=True,
    required_params=("eps",),
    description="Adaptive Approximation: greedy anchored fragments (EDBT 2012)",
    load_native=_lossy_loader(AaSeries),
)(AaCompressor)

# Special-purpose baselines.
register_codec(
    "gorilla",
    table_name="Gorilla",
    description="Gorilla XOR compression (Pelkonen et al., VLDB 2015)",
    load_native=_xor_loader(gorilla_decode, "gorilla"),
)(GorillaCompressor)
register_codec(
    "chimp",
    table_name="Chimp",
    description="Chimp XOR compression (Liakos et al., PVLDB 2022)",
    load_native=_xor_loader(chimp_decode, "chimp"),
)(ChimpCompressor)
register_codec(
    "chimp128",
    table_name="Chimp128",
    description="Chimp128: Chimp with a 128-value reference window",
    load_native=_xor_loader(chimp128_decode, "chimp128"),
)(Chimp128Compressor)
register_codec(
    "tsxor",
    table_name="TSXor",
    description="TSXor byte-oriented window XOR (Bruno et al., SPIRE 2021)",
    load_native=_load_tsxor,
)(TSXorCompressor)
register_codec(
    "dac",
    table_name="DAC",
    native_random_access=True,
    description="Directly Addressable Codes (Brisaboa et al., IPM 2013)",
    load_native=_load_dac,
)(DacCompressor)
register_codec(
    "leco",
    table_name="LeCo",
    native_random_access=True,
    description="LeCo: learned serial-correlation compression (SIGMOD 2024)",
    load_native=_load_leco,
)(LeCoCompressor)
register_codec(
    "alp",
    table_name="ALP",
    needs_digits=True,
    description="ALP: adaptive lossless floating-point (Afroozeh et al. 2023)",
    load_native=_load_alp,
)(AlpCompressor)

# General-purpose baselines (block-wise adapter, paper §IV-A2).
register_codec(
    "xz",
    table_name="Xz",
    description="Xz via stdlib lzma, 1000-value blocks",
    load_native=_blockwise_loader("xz"),
)(XzCompressor)
register_codec(
    "brotli",
    table_name="Brotli*",
    description="Brotli stand-in (bz2), 1000-value blocks",
    load_native=_blockwise_loader("brotli"),
)(BrotliLikeCompressor)
register_codec(
    "zstd",
    table_name="Zstd*",
    description="Zstd stand-in (zlib), 1000-value blocks",
    load_native=_blockwise_loader("zstd"),
)(ZstdLikeCompressor)
register_codec(
    "lz4",
    table_name="Lz4*",
    description="Lz4 stand-in (PyLZ greedy parse), 1000-value blocks",
    load_native=_blockwise_loader("lz4"),
)(Lz4LikeCompressor)
register_codec(
    "snappy",
    table_name="Snappy*",
    description="Snappy stand-in (PyLZ accelerated), 1000-value blocks",
    load_native=_blockwise_loader("snappy"),
)(SnappyLikeCompressor)
