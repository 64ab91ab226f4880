"""The five general-purpose lossless compressors of the paper's evaluation.

The paper benchmarks Xz, Brotli, Zstd, Lz4 and Snappy through the Squash
library.  This package needs numpy alone, so each one maps to the closest
compressor of the same design in the standard library or in this package:

========  =====================  ==========================================
Paper     Here                   Notes
========  =====================  ==========================================
Xz        ``lzma`` (stdlib)      this *is* the .xz format (LZMA2)
Brotli    ``bz2`` (stdlib)       block-sorting entropy-heavy compressor
Zstd      ``zlib`` (stdlib)      LZ77 + entropy coding, mid trade-off
Lz4       PyLZ (this repo)       greedy byte LZ, no entropy stage
Snappy    PyLZ accelerated       faster parse, looser matches
========  =====================  ==========================================

All five are exposed through the block-wise random-access adapter of
§IV-A2 (1000-value blocks + pointer array), exactly as in the paper.
"""

from __future__ import annotations

import bz2
import lzma
import zlib

from . import pylz
from .blockwise import BlockwiseCompressor, ByteCompressor

__all__ = [
    "XzCompressor",
    "BrotliLikeCompressor",
    "ZstdLikeCompressor",
    "Lz4LikeCompressor",
    "SnappyLikeCompressor",
    "GENERAL_PURPOSE",
]


class XzCompressor(BlockwiseCompressor):
    """Xz via the stdlib ``lzma`` module (the genuine .xz codec)."""

    def __init__(self, preset: int = 6, block_size: int = 1000) -> None:
        codec = ByteCompressor(
            "Xz",
            lambda data: lzma.compress(data, preset=preset),
            lzma.decompress,
        )
        super().__init__(codec, block_size)


class BrotliLikeCompressor(BlockwiseCompressor):
    """Brotli stand-in: ``bz2`` (entropy-heavy, slow, strong ratio)."""

    def __init__(self, level: int = 9, block_size: int = 1000) -> None:
        codec = ByteCompressor(
            "Brotli*",
            lambda data: bz2.compress(data, compresslevel=level),
            bz2.decompress,
        )
        super().__init__(codec, block_size)


class ZstdLikeCompressor(BlockwiseCompressor):
    """Zstd stand-in: ``zlib`` (LZ77 + Huffman, balanced trade-off)."""

    def __init__(self, level: int = 6, block_size: int = 1000) -> None:
        codec = ByteCompressor(
            "Zstd*",
            lambda data: zlib.compress(data, level),
            zlib.decompress,
        )
        super().__init__(codec, block_size)


class Lz4LikeCompressor(BlockwiseCompressor):
    """Lz4 stand-in: PyLZ with a full greedy parse."""

    def __init__(self, block_size: int = 1000) -> None:
        codec = ByteCompressor(
            "Lz4*",
            lambda data: pylz.compress(data, acceleration=1),
            pylz.decompress,
        )
        super().__init__(codec, block_size)


class SnappyLikeCompressor(BlockwiseCompressor):
    """Snappy stand-in: PyLZ with accelerated (skipping) parse."""

    def __init__(self, block_size: int = 1000) -> None:
        codec = ByteCompressor(
            "Snappy*",
            lambda data: pylz.compress(data, acceleration=8, window=1 << 16),
            pylz.decompress,
        )
        super().__init__(codec, block_size)


def GENERAL_PURPOSE() -> list[BlockwiseCompressor]:
    """Fresh instances of all five general-purpose compressors."""
    return [
        XzCompressor(),
        BrotliLikeCompressor(),
        ZstdLikeCompressor(),
        Lz4LikeCompressor(),
        SnappyLikeCompressor(),
    ]
