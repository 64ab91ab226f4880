"""Block decoders for TSXor's byte-aligned window XOR streams.

TSXor values reference arbitrary slots of a 127-value sliding window, so
— unlike Gorilla/Chimp — the value chain cannot be resolved with one
``xor.accumulate``.  The numpy backend still wins on the byte level: a
scan records each value's header (reference age, significant-byte span),
then every XOR payload is gathered in one vectorised unaligned 8-byte
load + mask + shift, and the window-reference chains resolve by pointer
doubling (:func:`repro.kernels.xor.resolve_chains`).

:func:`decode_block` handles one block; :func:`decode_blocks` scans all
blocks of a stream in lockstep — the sequential loop runs over the
within-block value index while each step is vectorised across blocks —
which is what full decompression uses.
"""

from __future__ import annotations

import numpy as np

from . import get_backend

__all__ = ["decode_block", "decode_blocks"]

_XOR_HDR = 0x7F
_RAW_HDR = 0xFF

#: below this many blocks the per-block scan beats the lockstep batch
_BATCH_MIN_BLOCKS = 32

#: mask for a little-endian value spanning ``k`` significant bytes
_SPAN_MASKS = np.array(
    [(1 << (8 * k)) - 1 for k in range(8)] + [(1 << 64) - 1], dtype=np.uint64
)


def _decode_numpy(data, count: int) -> np.ndarray:
    buf = bytes(data)
    ages = [0] * count
    starts = [0] * count
    spans = [0] * count
    firsts = [0] * count
    pos = 0
    for i in range(count):
        hdr = buf[pos]
        pos += 1
        if hdr == _RAW_HDR:
            ages[i] = -1
            starts[i] = pos
            spans[i] = 8
            pos += 8
        elif hdr == _XOR_HDR:
            ages[i] = buf[pos]
            ol = buf[pos + 1]
            starts[i] = pos + 2
            spans[i] = (ol & 0x0F) + 1
            firsts[i] = ol >> 4
            pos += 2 + spans[i]
        else:  # exact window match: payload stays zero
            ages[i] = hdr
    raw = np.frombuffer(buf + b"\x00" * 8, dtype=np.uint8)
    gathered = np.lib.stride_tricks.sliding_window_view(raw, 8)[starts]
    as_u64 = gathered.view(np.uint64).reshape(count)
    payload = as_u64 & _SPAN_MASKS[spans]
    payload <<= np.asarray(firsts, dtype=np.uint64) << np.uint64(3)
    xors = payload.tolist()
    # Resolve the window-reference chain.  ``out[-1 - age]`` is exactly the
    # scalar decoder's ``history[-1 - age]``: the window only ever holds the
    # most recent values, and negative indexing counts from the same end.
    out: list[int] = []
    append = out.append
    for age, x in zip(ages, xors):
        append(x if age < 0 else out[-1 - age] ^ x)
    return np.array(out, dtype=np.uint64)


def _decode_blocks_numpy(blocks) -> np.ndarray:
    from .xor import resolve_chains

    counts = np.array([count for _, count in blocks], dtype=np.int64)
    blobs = [bytes(blob) for blob, _ in blocks]
    byte_lens = np.array([len(b) for b in blobs], dtype=np.int64)
    total = int(counts.sum())
    nbytes = int(byte_lens.sum())
    raw = np.frombuffer(b"".join(blobs) + b"\x00" * 16, dtype=np.uint8)
    win8 = np.lib.stride_tricks.sliding_window_view(raw, 8)
    base_off = np.cumsum(byte_lens) - byte_lens
    nb = len(blobs)
    steps = int(counts.max())
    # A value's byte span depends only on its own header bytes — no carried
    # state — so "position of the next value" is a pure per-position
    # function.  Precompute it for every byte offset once; the sequential
    # lockstep loop then collapses to a single gather per step.
    hdrs = raw[:nbytes]
    is_xor_all = hdrs == _XOR_HDR
    adv = np.where(
        hdrs == _RAW_HDR,
        np.int32(9),
        np.where(is_xor_all, (raw[2 : nbytes + 2] & 0x0F).astype(np.int32) + 4, 1),
    )
    next_pos = np.empty(nbytes + 9, dtype=np.int32)
    next_pos[:nbytes] = np.arange(nbytes, dtype=np.int32) + adv
    next_pos[nbytes:] = nbytes  # finished lanes freeze at end-of-stream
    valid = np.arange(steps, dtype=np.int64)[:, None] < counts[None, :]
    positions2 = np.empty((steps, nb), dtype=np.int32)
    pos = base_off.astype(np.int32)
    for i in range(steps):
        positions2[i] = pos
        pos = np.where(valid[i], next_pos[pos], pos)
    # Flatten to block-major order; decode every header in one pass.
    positions = positions2.T[valid.T].astype(np.int64)
    hdr = raw[positions].astype(np.int64)
    ol = raw[positions + 2].astype(np.int64)
    is_raw = hdr == _RAW_HDR
    is_xor = hdr == _XOR_HDR
    ages = np.where(
        is_raw, -1, np.where(is_xor, raw[positions + 1].astype(np.int64), hdr)
    )
    spans = np.where(is_raw, 8, np.where(is_xor, (ol & 0x0F) + 1, 0))
    starts = np.where(is_raw, positions + 1, np.where(is_xor, positions + 3, 0))
    payload = win8[starts].view(np.uint64).reshape(total)
    payload &= _SPAN_MASKS[spans]
    payload <<= np.where(is_xor, ol >> 4, 0).astype(np.uint64) << np.uint64(3)
    idx = np.arange(total, dtype=np.int64)
    parents = np.where(ages < 0, -1, idx - 1 - ages)
    return resolve_chains(payload, parents, int(counts.max()))


def decode_block(data, count: int) -> np.ndarray:
    """Decode ``count`` values of one TSXor byte stream (any byte buffer)."""
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    if get_backend() == "python":
        from ..baselines.tsxor import tsxor_decode  # deferred: import cycle

        return tsxor_decode(data, count)
    return _decode_numpy(data, count)


def decode_blocks(blocks) -> np.ndarray:
    """Decode a whole stream — ``(data, count)`` blocks — at once."""
    blocks = list(blocks)
    if not blocks:
        return np.zeros(0, dtype=np.uint64)
    if (
        get_backend() == "numpy"
        and len(blocks) >= _BATCH_MIN_BLOCKS
        and all(count > 0 and len(blob) > 0 for blob, count in blocks)
    ):
        return _decode_blocks_numpy(blocks)
    return np.concatenate([decode_block(blob, count) for blob, count in blocks])
