"""Block-wise codecs refuse a block size that is not a positive integer."""

import zlib

import numpy as np
import pytest

from repro.baselines import (
    BlockwiseCompressor,
    ByteCompressor,
    Chimp128Compressor,
    ChimpCompressor,
    GorillaCompressor,
    TSXorCompressor,
)
from repro.codecs import get_codec

BAD_SIZES = [0, -5]
CLASSES = [GorillaCompressor, ChimpCompressor, Chimp128Compressor, TSXorCompressor]
# every registered codec that cuts its input into blocks
BLOCKWISE_IDS = [
    "gorilla", "chimp", "chimp128", "tsxor", "xz", "brotli", "zstd", "lz4", "snappy",
]


@pytest.mark.parametrize("size", BAD_SIZES)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_xor_constructors_refuse(cls, size):
    with pytest.raises(ValueError, match="block_size"):
        cls(block_size=size)


@pytest.mark.parametrize("size", BAD_SIZES)
def test_blockwise_constructor_refuses(size):
    codec = ByteCompressor("zlib", zlib.compress, zlib.decompress)
    with pytest.raises(ValueError, match="block_size"):
        BlockwiseCompressor(codec, block_size=size)


@pytest.mark.parametrize("size", BAD_SIZES)
@pytest.mark.parametrize("cid", BLOCKWISE_IDS)
def test_get_codec_refuses(cid, size):
    with pytest.raises(ValueError, match="block_size"):
        get_codec(cid, block_size=size)


@pytest.mark.parametrize("cid", BLOCKWISE_IDS)
def test_one_value_blocks_still_work(cid):
    values = np.arange(5, dtype=np.int64) * 3
    compressed = get_codec(cid, block_size=1).compress(values)
    assert np.array_equal(compressed.decompress(), values)
