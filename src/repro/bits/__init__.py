"""Succinct data structures and bit-level I/O (the paper's sdsl/sux substrate).

The NeaTS frame (``NeaTS102``) writes its starts with the numpy
Elias-Fano functions of :mod:`.eliasfano` and its widths and kind ids as
packed bit fields (:func:`.packed.to_bits`); no NeaTS path builds one of the
classes exported here.  DAC, LeCo, ALP and the timestamp codec use them.
"""

from .bitvector import BitVector
from .codes import (
    decode_varint,
    encode_varint,
    read_delta,
    read_gamma,
    write_delta,
    write_gamma,
    zigzag_decode,
    zigzag_encode,
)
from .eliasfano import EliasFano
from .io import BitReader, BitWriter
from .packed import PackedArray, min_width

__all__ = [
    "BitReader",
    "BitWriter",
    "BitVector",
    "EliasFano",
    "PackedArray",
    "min_width",
    "zigzag_encode",
    "zigzag_decode",
    "write_gamma",
    "read_gamma",
    "write_delta",
    "read_delta",
    "encode_varint",
    "decode_varint",
]
