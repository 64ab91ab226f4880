"""Succinct data structures and bit-level I/O (the paper's sdsl/sux substrate).

The NeaTS frame (``NeaTS102``) writes its starts with the numpy
Elias-Fano functions of :mod:`.eliasfano` and its widths and kind ids as
packed bit fields (:func:`.packed.to_bits`); no NeaTS path builds one of the
classes exported here.  The baselines use them: DAC, LeCo and ALP the
succinct structures, Gorilla and Chimp the bit I/O, PyLZ the varint.
"""

from .bitvector import BitVector
from .codes import decode_varint, encode_varint
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
    "encode_varint",
    "decode_varint",
]
