"""The codec frame: the self-describing serialised form of a ``Compressed``.

Every compressed series in the repo serialises to the same framed layout,
so a byte string is decodable without knowing in advance which of the 13+
codecs produced it::

    +------+---------+------+--------------+----------------+-----+-------------+
    | RPCF | version | kind | codec id len | params json len|  n  | payload len |
    +------+---------+------+--------------+----------------+-----+-------------+
    | codec id (utf-8) | params (json, utf-8) | payload ...                     |
    +---------------------------------------------------------------------------+

Two payload kinds exist:

* ``native`` — a codec-specific byte layout (NeaTS storage, block-wise
  pointers, XOR streams); loading is a direct parse, no recompression.
  Every codec writes this kind.
* ``values`` — read only: the original int64 values, delta-coded and
  deflated, as older writers stored codecs without a native loader.
  Loading re-runs the (deterministic) lossless compressor with the
  recorded parameters, which reproduces the exact same compressed object —
  identical ``decompress()``, ``access()``, and ``size_bits()``.

The frame is what :meth:`repro.baselines.base.Compressed.to_bytes` emits and
what the archive container of :mod:`repro.codecs.container` wraps on disk.

:func:`read_frame` is zero-copy: it accepts any byte buffer — ``bytes``,
``memoryview``, an ``mmap`` — and the returned :attr:`Frame.payload` is a
``memoryview`` slice into that buffer, never a copy.  Every native payload
parser therefore works directly over a memory-mapped archive, which is what
makes the lazy open path of :mod:`repro.codecs.container` O(parse) instead of
O(file read).  Callers must keep the source buffer alive while the payload
(or anything parsed from it) is in use.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "KIND_NATIVE",
    "KIND_VALUES",
    "Frame",
    "write_frame",
    "read_frame",
    "frame_span",
    "encode_values",
    "decode_values",
]

FRAME_MAGIC = b"RPCF"
FRAME_VERSION = 1

KIND_VALUES = 0
KIND_NATIVE = 1

_HEADER = struct.Struct("<4sBBHIqQ")  # magic, version, kind, idlen, plen, n, paylen


@dataclass(frozen=True)
class Frame:
    """A parsed codec frame.

    ``payload`` is a ``memoryview`` into the buffer :func:`read_frame` was
    given (zero-copy); call ``bytes(frame.payload)`` when an owned copy is
    needed.
    """

    codec_id: str
    params: dict
    n: int
    kind: int
    payload: "bytes | memoryview"

    @property
    def native(self) -> bool:
        """Whether the payload uses the codec's own byte layout."""
        return self.kind == KIND_NATIVE


def write_frame(
    codec_id: str, params: dict, n: int, kind: int, payload: bytes
) -> bytes:
    """Assemble a frame byte string."""
    if kind not in (KIND_VALUES, KIND_NATIVE):
        raise ValueError(f"unknown frame kind {kind!r}")
    cid = codec_id.encode("utf-8")
    try:
        pjson = json.dumps(params or {}, sort_keys=True).encode("utf-8")
    except TypeError as exc:
        raise ValueError(
            f"codec params for {codec_id!r} are not JSON-serialisable: {params!r}"
        ) from exc
    header = _HEADER.pack(
        FRAME_MAGIC, FRAME_VERSION, kind, len(cid), len(pjson), n, len(payload)
    )
    return header + cid + pjson + payload


def read_frame(data) -> Frame:
    """Parse a frame from any byte buffer, validating structure and lengths.

    ``data`` may be ``bytes``, a ``memoryview``, or an ``mmap``; the payload
    of the returned :class:`Frame` is a zero-copy ``memoryview`` slice of it.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    total = view.nbytes
    if total < _HEADER.size:
        raise ValueError("truncated codec frame: header incomplete")
    magic, version, kind, idlen, plen, n, paylen = _HEADER.unpack_from(view)
    if magic != FRAME_MAGIC:
        raise ValueError("not a repro codec frame (bad magic)")
    if version != FRAME_VERSION:
        raise ValueError(f"unsupported codec frame version {version}")
    if kind not in (KIND_VALUES, KIND_NATIVE):
        raise ValueError(f"corrupt codec frame: unknown payload kind {kind}")
    if n < 0:
        raise ValueError(f"corrupt codec frame: negative value count {n}")
    pos = _HEADER.size
    avail = total - pos - idlen - plen
    if avail < 0:
        raise ValueError(
            "corrupt codec frame: id/params lengths exceed the frame"
        )
    if paylen > avail:
        raise ValueError(
            f"corrupt codec frame: payload length {paylen} overflows the "
            f"{total}-byte frame"
        )
    if paylen < avail:
        raise ValueError(
            f"truncated codec frame: expected {pos + idlen + plen + paylen} "
            f"bytes, got {total}"
        )
    codec_id = bytes(view[pos : pos + idlen]).decode("utf-8")
    pos += idlen
    try:
        params = json.loads(bytes(view[pos : pos + plen]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError("corrupt codec frame: bad params block") from exc
    if not isinstance(params, dict):
        raise ValueError("corrupt codec frame: params must be an object")
    pos += plen
    return Frame(codec_id, params, n, kind, view[pos : pos + paylen])


def frame_span(data) -> int:
    """The total byte length of the frame starting at ``data[0]``.

    Parses only the fixed frame header — no params or payload decoding —
    so callers scanning a multi-frame buffer (the appendable container of
    :mod:`repro.codecs.container`) can cross-check a record's claimed
    length against the frame's own accounting.  ``data`` may extend past
    the frame; raises ``ValueError`` when even the header is incomplete
    or malformed.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    if view.nbytes < _HEADER.size:
        raise ValueError("truncated codec frame: header incomplete")
    magic, version, kind, idlen, plen, n, paylen = _HEADER.unpack_from(view)
    if magic != FRAME_MAGIC:
        raise ValueError("not a repro codec frame (bad magic)")
    if version != FRAME_VERSION:
        raise ValueError(f"unsupported codec frame version {version}")
    if kind not in (KIND_VALUES, KIND_NATIVE):
        raise ValueError(f"corrupt codec frame: unknown payload kind {kind}")
    if n < 0:
        raise ValueError(f"corrupt codec frame: negative value count {n}")
    return _HEADER.size + idlen + plen + paylen


def encode_values(values: np.ndarray) -> bytes:
    """A ``values`` payload: delta-coded int64 values, deflated."""
    values = np.asarray(values, dtype=np.int64)
    # Deltas concentrate the entropy for the smooth series this repo targets;
    # the cast wraps on int64 overflow and unwraps identically on decode.
    # The implicit 0 prefix makes the first delta the first value itself.
    deltas = np.diff(values, prepend=np.zeros(1, dtype=np.int64)).astype(np.int64)
    return zlib.compress(deltas.tobytes(), 6)


def decode_values(payload, n: int) -> np.ndarray:
    """Invert :func:`encode_values` (``payload`` may be any byte buffer)."""
    if n < 0:
        raise ValueError(f"corrupt codec frame: negative value count {n}")
    try:
        raw = zlib.decompress(payload)
    except zlib.error as exc:
        raise ValueError("corrupt codec frame: payload inflate failed") from exc
    deltas = np.frombuffer(raw, dtype=np.int64)
    if len(deltas) != n:
        raise ValueError(
            f"corrupt codec frame: payload holds {len(deltas)} values, header says {n}"
        )
    return np.cumsum(deltas, dtype=np.int64)
