"""Vectorised block decoders for the XOR family (Gorilla, Chimp, Chimp128).

The scalar decoders in :mod:`repro.baselines` pay 2-4 ``BitReader`` method
calls per value.  The numpy backend replaces them with a two-pass scheme:

1. **Scan** — one cheap sequential pass consuming only the variable-rate
   *control* bits (flags, window headers) and recording, per value, where
   its XOR payload starts, how wide it is, and how far it must be shifted.
   Control reads are merged (a Gorilla ``11`` header's 5-bit lz + 6-bit
   length is one 11-bit peek), so the scan does a fraction of the scalar
   decoder's work.
2. **Extract + resolve** — the payloads are pulled out in bulk with
   :class:`~repro.kernels.bitpack.FieldGather`, grouped by distinct width
   (there are at most a few dozen), shifted vectorised, and the
   previous-value XOR chain is resolved with a single
   ``np.bitwise_xor.accumulate``.  Chimp128 references arbitrary window
   slots, so its chain is resolved by pointer doubling instead.

Single blocks scan in Python (:func:`decode_block`); full decompression
goes through :func:`decode_blocks`, which scans *all* blocks in lockstep —
iterating over the within-block value index while every per-step operation
is vectorised across blocks.  A 1M-value stream is ~1000 blocks, so the
sequential dimension collapses from 1M Python iterations to ~1000 numpy
steps.

Both backends return the same ``uint64`` array, bit for bit; the parity
suite in ``tests/kernels`` enforces it per codec and per block boundary.

The encode side has one vectorised kernel, :func:`encode_gorilla_blocks`:
it writes whole Gorilla blocks in three passes and is byte-identical to
the scalar :func:`repro.baselines.gorilla.gorilla_encode`, which stays as
the reference the parity tests compare against.
"""

from __future__ import annotations

import numpy as np

from . import get_backend
from .bitpack import FieldGather, scatter_fields

__all__ = ["XOR_FAMILIES", "decode_block", "decode_blocks", "encode_gorilla_blocks"]

#: family keys understood by :func:`decode_block`
XOR_FAMILIES = ("gorilla", "chimp", "chimp128")

# Chimp's 3-bit quantised leading-zero table.  Kept in sync with
# repro.baselines.chimp._LZ_ROUND (asserted by tests/kernels); duplicating
# the eight constants here avoids a kernels -> baselines import cycle.
_LZ_ROUND = (0, 8, 12, 16, 18, 20, 22, 24)
_LZ_ARR = np.array(_LZ_ROUND, dtype=np.int64)

#: below this many blocks the per-block scan beats the lockstep batch
_BATCH_MIN_BLOCKS = 32

_CORRUPT_CHIMP = "corrupt Chimp stream: window flag before window"
_CORRUPT_SHIFT = "corrupt XOR stream: window wider than 64 bits"


# -- pass 1: per-block control-bit scans ---------------------------------------
#
# Each scan walks the stream over ``ints`` (the block's words as Python
# ints, padded with one zero word so a 2-bit peek near the end never
# indexes past the buffer) and returns, per value after the first, the
# payload's absolute bit start, width, and left shift.  A width of zero
# means "XOR is zero" (nothing to extract).


def _scan_gorilla(ints: list[int], count: int):
    n = count - 1
    starts = [0] * n
    widths = [0] * n
    shifts = [0] * n
    pos = 64
    prev_lz = 0
    prev_len = 0
    for i in range(n):
        w, b = divmod(pos, 64)
        ctl = ints[w] >> b
        if b == 63:
            ctl |= ints[w + 1] << 1
        if not ctl & 1:  # '0': repeat
            pos += 1
            continue
        if ctl & 2:  # '11': new window, 5-bit lz + 6-bit (len - 1)
            pos += 2
            w, b = divmod(pos, 64)
            hdr = ints[w] >> b
            if b > 53:
                hdr |= ints[w + 1] << (64 - b)
            prev_lz = hdr & 31
            prev_len = ((hdr >> 5) & 63) + 1
            pos += 11
        else:  # '10': reuse the previous window
            pos += 2
        starts[i] = pos
        widths[i] = prev_len
        shifts[i] = 64 - prev_lz - prev_len
        pos += prev_len
    return starts, widths, shifts


def _scan_chimp(ints: list[int], count: int):
    n = count - 1
    starts = [0] * n
    widths = [0] * n
    shifts = [0] * n
    pos = 64
    prev_lz = -1
    for i in range(n):
        w, b = divmod(pos, 64)
        ctl = ints[w] >> b
        if b > 62:
            ctl |= ints[w + 1] << (64 - b)
        ctl &= 3
        pos += 2
        if ctl == 0:  # stream bits (0,0): repeat
            prev_lz = -1
        elif ctl == 2:  # stream bits (0,1): many trailing zeros
            w, b = divmod(pos, 64)
            hdr = ints[w] >> b
            if b > 55:
                hdr |= ints[w + 1] << (64 - b)
            lz = _LZ_ROUND[hdr & 7]
            center = (hdr >> 3) & 63
            pos += 9
            starts[i] = pos
            widths[i] = center
            shifts[i] = 64 - lz - center
            pos += center
            prev_lz = -1
        elif ctl == 1:  # stream bits (1,0): same leading-zero count
            if prev_lz < 0:
                raise ValueError(_CORRUPT_CHIMP)
            starts[i] = pos
            widths[i] = 64 - prev_lz
            pos += 64 - prev_lz
        else:  # stream bits (1,1): new leading-zero count
            w, b = divmod(pos, 64)
            code = ints[w] >> b
            if b > 61:
                code |= ints[w + 1] << (64 - b)
            prev_lz = _LZ_ROUND[code & 7]
            pos += 3
            starts[i] = pos
            widths[i] = 64 - prev_lz
            pos += 64 - prev_lz
    return starts, widths, shifts


def _scan_chimp128(ints: list[int], count: int):
    n = count - 1
    starts = [0] * n
    widths = [0] * n
    shifts = [0] * n
    refs = [0] * n  # 0-based output index each value XORs against
    pos = 64
    prev_lz = -1
    for i in range(n):
        w, b = divmod(pos, 64)
        ctl = ints[w] >> b
        if b > 62:
            ctl |= ints[w + 1] << (64 - b)
        ctl &= 3
        pos += 2
        if ctl == 0:  # exact window match: 7-bit reference offset
            w, b = divmod(pos, 64)
            ref = ints[w] >> b
            if b > 57:
                ref |= ints[w + 1] << (64 - b)
            refs[i] = i - (ref & 127)
            pos += 7
            prev_lz = -1
        elif ctl == 2:  # window match with centre bits
            w, b = divmod(pos, 64)
            hdr = ints[w] >> b
            if b > 48:
                hdr |= ints[w + 1] << (64 - b)
            refs[i] = i - (hdr & 127)
            lz = _LZ_ROUND[(hdr >> 7) & 7]
            center = (hdr >> 10) & 63
            pos += 16
            starts[i] = pos
            widths[i] = center
            shifts[i] = 64 - lz - center
            pos += center
            prev_lz = -1
        elif ctl == 1:  # previous value, same leading zeros
            if prev_lz < 0:
                raise ValueError(_CORRUPT_CHIMP)
            refs[i] = i
            starts[i] = pos
            widths[i] = 64 - prev_lz
            pos += 64 - prev_lz
        else:  # previous value, new leading zeros
            w, b = divmod(pos, 64)
            code = ints[w] >> b
            if b > 61:
                code |= ints[w + 1] << (64 - b)
            prev_lz = _LZ_ROUND[code & 7]
            refs[i] = i
            pos += 3
            starts[i] = pos
            widths[i] = 64 - prev_lz
            pos += 64 - prev_lz
    return starts, widths, shifts, refs


# -- pass 2: bulk payload extraction -------------------------------------------


_MASK_TABLE = np.zeros(65, dtype=np.uint64)
for _w in range(64):
    _MASK_TABLE[_w] = np.uint64((1 << _w) - 1)
_MASK_TABLE[64] = np.uint64((1 << 64) - 1)
del _w


def _extract_xors(gather: FieldGather, starts, widths, shifts) -> np.ndarray:
    """All XOR payloads as shifted ``uint64`` values, in one pass.

    Rather than grouping by distinct width, gather the maximal 57-bit
    window for every payload and mask per element; only the rare fields
    wider than 57 bits need a second 7-bit gather for their top bits.
    """
    n = len(starts)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    widths_arr = np.asarray(widths, dtype=np.int64)
    starts_arr = np.asarray(starts, dtype=np.int64)
    shifts_arr = np.asarray(shifts, dtype=np.int64)
    has = widths_arr > 0
    if bool(((shifts_arr < 0) & has).any()):
        raise ValueError(_CORRUPT_SHIFT)
    vals = gather(starts_arr, 57) & _MASK_TABLE[widths_arr]
    wide = widths_arr > 57
    if bool(wide.any()):
        hi = gather(starts_arr[wide] + 57, 7) & _MASK_TABLE[widths_arr[wide] - 57]
        vals[wide] |= hi << np.uint64(57)
    # Zero-width entries carry no payload; clamp their (meaningless) shift
    # so no uint64 is ever shifted by >= 64.
    return vals << np.where(has, shifts_arr, 0).astype(np.uint64)


# -- lockstep batch scans ------------------------------------------------------
#
# ``pos``/state live in per-block arrays; each loop step advances every
# block by one value.  Finished blocks keep their position frozen (their
# stored rows are dropped by the validity mask).  Header peeks merge the
# control bits with the widest possible header, so each step is one gather
# plus a handful of vectorised mask/where ops.


#: control-bit length by the low two header bits (LSB-first: an even code
#: is the 1-bit repeat flag), per family
_G_CTL = np.array([1, 2, 1, 13], dtype=np.int64)
_C_CTL = np.array([2, 2, 11, 5], dtype=np.int64)
_C128_CTL = np.array([9, 2, 18, 5], dtype=np.int64)


def _scan_blocks_gorilla(gather, bit_base, counts, valid):
    nb = len(counts)
    steps = valid.shape[0]
    starts2 = np.zeros((steps, nb), dtype=np.int64)
    widths2 = np.zeros((steps, nb), dtype=np.int64)
    shifts2 = np.zeros((steps, nb), dtype=np.int64)
    pos = bit_base + 64
    prev_lz = np.zeros(nb, dtype=np.int64)
    prev_len = np.zeros(nb, dtype=np.int64)
    # While every lane is still inside its block, position updates need no
    # mask; frozen-lane handling only matters for the ragged tail steps.
    full = int(counts.min()) - 1
    for i in range(steps):
        hdr = gather(pos, 13).astype(np.int64)
        c2 = hdr & 3
        is0 = (c2 & 1) == 0
        is11 = c2 == 3
        body = hdr >> 2
        prev_lz = np.where(is11, body & 31, prev_lz)
        prev_len = np.where(is11, ((body >> 5) & 63) + 1, prev_len)
        ctl = _G_CTL[c2]
        width = np.where(is0, 0, prev_len)
        starts2[i] = pos + ctl
        widths2[i] = width
        shifts2[i] = 64 - prev_lz - prev_len
        adv = ctl + width
        pos = pos + adv if i < full else np.where(valid[i], pos + adv, pos)
    return starts2, widths2, shifts2, None


def _scan_blocks_chimp(gather, bit_base, counts, valid):
    nb = len(counts)
    steps = valid.shape[0]
    starts2 = np.zeros((steps, nb), dtype=np.int64)
    widths2 = np.zeros((steps, nb), dtype=np.int64)
    shifts2 = np.zeros((steps, nb), dtype=np.int64)
    pos = bit_base + 64
    prev_lz = np.full(nb, -1, dtype=np.int64)
    full = int(counts.min()) - 1
    for i in range(steps):
        hdr = gather(pos, 11).astype(np.int64)
        ctl = hdr & 3
        body = hdr >> 2
        is0 = ctl == 0
        is1 = ctl == 1
        is2 = ctl == 2
        is3 = ctl == 3
        err = is1 & (prev_lz < 0)
        if i >= full:
            err &= valid[i]
        if bool(err.any()):
            raise ValueError(_CORRUPT_CHIMP)
        lz = _LZ_ARR[body & 7]  # 3-bit code sits right after ctl for 2 and 3
        center = (body >> 3) & 63
        prev_lz = np.where(is3, lz, np.where(is0 | is2, -1, prev_lz))
        width = np.where(is0, 0, np.where(is2, center, 64 - prev_lz))
        ctl_len = _C_CTL[ctl]
        starts2[i] = pos + ctl_len
        widths2[i] = width
        shifts2[i] = np.where(is2, 64 - lz - center, 0)
        adv = ctl_len + width
        pos = pos + adv if i < full else np.where(valid[i], pos + adv, pos)
    return starts2, widths2, shifts2, None


def _scan_blocks_chimp128(gather, bit_base, counts, valid):
    nb = len(counts)
    steps = valid.shape[0]
    starts2 = np.zeros((steps, nb), dtype=np.int64)
    widths2 = np.zeros((steps, nb), dtype=np.int64)
    shifts2 = np.zeros((steps, nb), dtype=np.int64)
    refs2 = np.zeros((steps, nb), dtype=np.int64)
    pos = bit_base + 64
    prev_lz = np.full(nb, -1, dtype=np.int64)
    full = int(counts.min()) - 1
    for i in range(steps):
        hdr = gather(pos, 18).astype(np.int64)
        ctl = hdr & 3
        body = hdr >> 2
        is0 = ctl == 0
        is1 = ctl == 1
        is2 = ctl == 2
        is3 = ctl == 3
        err = is1 & (prev_lz < 0)
        if i >= full:
            err &= valid[i]
        if bool(err.any()):
            raise ValueError(_CORRUPT_CHIMP)
        is02 = is0 | is2
        ref = body & 127
        lz2 = _LZ_ARR[(body >> 7) & 7]
        center = (body >> 10) & 63
        prev_lz = np.where(is3, _LZ_ARR[body & 7], np.where(is02, -1, prev_lz))
        width = np.where(is0, 0, np.where(is2, center, 64 - prev_lz))
        ctl_len = _C128_CTL[ctl]
        refs2[i] = np.where(is02, i - ref, i)
        starts2[i] = pos + ctl_len
        widths2[i] = width
        shifts2[i] = np.where(is2, 64 - lz2 - center, 0)
        adv = ctl_len + width
        pos = pos + adv if i < full else np.where(valid[i], pos + adv, pos)
    return starts2, widths2, shifts2, refs2


_BLOCK_SCANS = {
    "gorilla": _scan_blocks_gorilla,
    "chimp": _scan_blocks_chimp,
    "chimp128": _scan_blocks_chimp128,
}


def resolve_chains(values: np.ndarray, parents: np.ndarray, depth: int) -> np.ndarray:
    """XOR every value with its chain of ancestors.

    ``parents[i] < i`` names the value ``i`` XORs against (``-1`` for
    roots, whose ``values`` entry is already final); ``depth`` bounds the
    longest chain.  This is how Chimp128/TSXor window references resolve
    without a per-value Python loop: runs where each value chains to its
    immediate predecessor — the overwhelmingly common case — collapse
    under one global ``bitwise_xor.accumulate``, and only the run *heads*
    (arbitrary window references and roots) go through pointer doubling,
    on an array of run count rather than value count.
    """
    n = len(values)
    idx = np.arange(n, dtype=np.int64)
    is_head = (parents != idx - 1) | (parents < 0)
    heads = np.nonzero(is_head)[0]
    nseg = len(heads)
    seg_lens = np.diff(np.append(heads, n))
    # Within a run, out[j] = xor(values[head..j]) ^ out[parent(head)]: one
    # inclusive prefix-xor minus each run's exclusive prefix gives the
    # first term for every element at once.
    acc = np.bitwise_xor.accumulate(values)
    head_excl = np.where(heads > 0, acc[np.maximum(heads - 1, 0)], np.uint64(0))
    within = acc ^ np.repeat(head_excl, seg_lens)
    # Each run head still owes the chain through its parent's run; that
    # chain strictly descends through runs, so double over runs only.
    seg_id = np.cumsum(is_head) - 1
    hp = parents[heads]
    rooted = hp < 0
    hp_safe = np.maximum(hp, 0)
    sentinel = nseg  # virtual root contributing zero forever
    x = np.zeros(nseg + 1, dtype=np.uint64)
    x[:nseg] = np.where(rooted, np.uint64(0), within[hp_safe])
    r = np.empty(nseg + 1, dtype=np.int64)
    r[:nseg] = np.where(rooted, sentinel, seg_id[hp_safe])
    r[nseg] = sentinel
    rounds = max(1, int(np.ceil(np.log2(max(2, min(depth, nseg))))))
    for _ in range(rounds):
        x, r = x ^ x[r], r[r]
        if bool((r == sentinel).all()):  # every chain fully absorbed
            break
    return within ^ np.repeat(x[:nseg], seg_lens)


def _decode_blocks_numpy(family: str, blocks) -> np.ndarray:
    counts = np.array([count for _, _, count in blocks], dtype=np.int64)
    word_lens = np.array([len(words) for words, _, _ in blocks], dtype=np.int64)
    total = int(counts.sum())
    all_words = np.concatenate(
        [np.ascontiguousarray(words, dtype=np.uint64) for words, _, _ in blocks]
    )
    word_base = np.cumsum(word_lens) - word_lens
    bit_base = word_base * 64
    firsts = all_words[word_base]
    base_idx = np.cumsum(counts) - counts
    steps = int(counts.max()) - 1
    out = np.empty(total, dtype=np.uint64)
    if steps <= 0:  # every block holds a single value
        out[:] = firsts
        return out
    gather = FieldGather(all_words)
    valid = np.arange(steps, dtype=np.int64)[:, None] < (counts - 1)[None, :]
    starts2, widths2, shifts2, refs2 = _BLOCK_SCANS[family](
        gather, bit_base, counts, valid
    )
    # Flatten to block-major order (all of block 0's values, then block 1's).
    sel = valid.T
    xors = _extract_xors(gather, starts2.T[sel], widths2.T[sel], shifts2.T[sel])
    first_mask = np.zeros(total, dtype=bool)
    first_mask[base_idx] = True
    if family == "chimp128":
        # refs are within-block output indices; lift to global indices.
        parents = refs2.T[sel] + np.repeat(base_idx, counts - 1)
        out[first_mask] = firsts
        out[~first_mask] = xors
        gparents = np.full(total, -1, dtype=np.int64)
        gparents[~first_mask] = parents
        return resolve_chains(out, gparents, int(counts.max()))
    out[first_mask] = firsts
    out[~first_mask] = xors
    # One global prefix-XOR resolves every previous-value chain; values in
    # block b then carry the spurious prefix of blocks 0..b-1, which the
    # first element recovers (out[start] == prefix ^ first) and one
    # repeat+XOR removes.
    np.bitwise_xor.accumulate(out, out=out)
    corrections = out[base_idx] ^ firsts
    out ^= np.repeat(corrections, counts)
    return out


# -- backend dispatch ----------------------------------------------------------


def _decode_python(family: str, words: np.ndarray, bit_length: int,
                   count: int) -> np.ndarray:
    from ..baselines import chimp, gorilla  # deferred: avoids an import cycle
    from ..bits.io import BitReader

    decode = {
        "gorilla": gorilla.gorilla_decode,
        "chimp": chimp.chimp_decode,
        "chimp128": chimp.chimp128_decode,
    }[family]
    return np.array(decode(BitReader(words, bit_length), count), dtype=np.uint64)


def _decode_numpy(family: str, words: np.ndarray, bit_length: int,
                  count: int) -> np.ndarray:
    ints = words.tolist()
    ints.append(0)  # lets 2-bit control peeks near the end stay in bounds
    first = ints[0]
    if count == 1:
        return np.array([first], dtype=np.uint64)
    gather = FieldGather(words)
    if family == "chimp128":
        starts, widths, shifts, refs = _scan_chimp128(ints, count)
        xors = _extract_xors(gather, starts, widths, shifts).tolist()
        out = [first]
        append = out.append
        for ref, x in zip(refs, xors):
            append(out[ref] ^ x)
        return np.array(out, dtype=np.uint64)
    scan = _scan_gorilla if family == "gorilla" else _scan_chimp
    starts, widths, shifts = scan(ints, count)
    out = np.empty(count, dtype=np.uint64)
    out[0] = first
    out[1:] = _extract_xors(gather, starts, widths, shifts)
    # Every value XORs its immediate predecessor: one accumulate resolves
    # the whole chain.
    np.bitwise_xor.accumulate(out, out=out)
    return out


def decode_block(family: str, words: np.ndarray, bit_length: int,
                 count: int) -> np.ndarray:
    """Decode one XOR-family block into a ``uint64`` array.

    ``family`` is one of :data:`XOR_FAMILIES`; ``words``/``bit_length`` are
    the block's bit stream exactly as :class:`~repro.bits.io.BitWriter`
    produced it, ``count`` the number of encoded values (``count <= 0``
    decodes to an empty array on both backends).
    """
    if family not in XOR_FAMILIES:
        raise ValueError(f"unknown XOR family {family!r}")
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    if get_backend() == "python":
        return _decode_python(family, words, bit_length, count)
    return _decode_numpy(family, words, bit_length, count)


def decode_blocks(family: str, blocks) -> np.ndarray:
    """Decode a whole stream — ``(words, bit_length, count)`` blocks — at once.

    Returns the concatenated ``uint64`` values.  On the numpy backend
    large streams use the lockstep batch scan; small ones (and the python
    backend) fall back to per-block decoding.
    """
    if family not in XOR_FAMILIES:
        raise ValueError(f"unknown XOR family {family!r}")
    blocks = list(blocks)
    if not blocks:
        return np.zeros(0, dtype=np.uint64)
    if (
        get_backend() == "numpy"
        and len(blocks) >= _BATCH_MIN_BLOCKS
        and all(count > 0 and len(words) > 0 for words, _, count in blocks)
    ):
        return _decode_blocks_numpy(family, blocks)
    return np.concatenate(
        [decode_block(family, words, bl, count) for words, bl, count in blocks]
    )

# -- Gorilla block encode ------------------------------------------------------
#
# Pass 1 XORs every value with its predecessor and counts leading and
# trailing zeros with numpy.  Pass 2 is the only sequential part: the
# window choice, a loop over small ints.  Pass 3 gives every value its
# field, lays the fields out with one cumsum and scatters them into words
# with pack_bits' scatter_fields.

#: values per vectorised encode pass: bounds the temporaries, a few hundred
#: bytes per value, however large the batch is
_ENCODE_CHUNK = 8192


def _window_opens(lz: np.ndarray, tz: np.ndarray, block_starts: np.ndarray):
    """Mark the nonzero XORs that open a new window (pass 2).

    A value reuses the open window iff its meaningful bits fit inside it:
    ``lz >= window lz`` and ``tz >= window tz``.  Its predecessor fit the
    window too, so a value whose counts are no smaller than its
    predecessor's always reuses it; the loop visits only the others, plus
    each block's first XOR, which always opens.
    """
    m = len(lz)
    visit = np.ones(m, dtype=bool)
    visit[1:] = (lz[1:] < lz[:-1]) | (tz[1:] < tz[:-1])
    visit[block_starts[block_starts < m]] = True
    idx = np.flatnonzero(visit)
    lzs, tzs = lz[idx].tolist(), tz[idx].tolist()
    bounds = np.searchsorted(idx, block_starts).tolist() + [len(idx)]
    opens = []
    for a, b in zip(bounds, bounds[1:]):
        win_lz = win_tz = 64
        for k in range(a, b):
            if lzs[k] < win_lz or tzs[k] < win_tz:
                win_lz, win_tz = lzs[k], tzs[k]
                opens.append(k)
    is_open = np.zeros(m, dtype=bool)
    is_open[idx[opens]] = True
    return is_open


def _encode_gorilla_pass(blocks: list[np.ndarray]) -> list:
    """Encode ``blocks`` in one vectorised pass."""
    values = np.concatenate(blocks)
    if values.dtype != np.uint64:
        values = values.astype(np.int64, copy=False).view(np.uint64)
    counts = np.array([len(block) for block in blocks], dtype=np.int64)
    n = len(values)
    firsts = np.cumsum(counts) - counts
    xors = np.zeros(n, dtype=np.uint64)
    np.bitwise_xor(values[1:], values[:-1], out=xors[1:])
    xors[firsts] = 0  # a block's first value is written whole
    nz = np.flatnonzero(xors)
    x = xors[nz]
    # lz is clamped at 31, so only the high half's bit length matters; it
    # is exact in a float64 exponent.
    lz = np.minimum(32 - np.frexp((x >> np.uint64(32)).astype(np.float64))[1], 31)
    tz = np.bitwise_count(~x & (x - np.uint64(1))).astype(np.int64)
    is_open = _window_opens(lz, tz, np.searchsorted(nz, firsts))
    # Every value's window is the one its latest opener set.
    win = np.maximum.accumulate(np.where(is_open, np.arange(len(nz)), 0))
    win_tz = tz[win]
    width = 64 - lz[win] - win_tz
    # A repeat is the 1-bit '0'.  A nonzero XOR is a header, '10'
    # (LSB-first 0b01) to reuse the window or '11' + 5-bit lz + 6-bit
    # length - 1 to open one, followed by the window's bits.
    head = np.where(is_open, 13, 2)
    bits = np.ones(n, dtype=np.int64)
    bits[firsts] = 64
    bits[nz] = head + width
    ends = np.cumsum(bits)
    # Each block starts on a fresh word and ends with a spare one, as a
    # BitWriter leaves it: bit_length // 64 + 1 words.
    block_start = ends[firsts] - 64
    bit_lengths = np.append(block_start[1:], ends[-1]) - block_start
    word_counts = bit_lengths // 64 + 1
    word_base = np.cumsum(word_counts) - word_counts
    starts = ends - bits + np.repeat(64 * word_base - block_start, counts)
    # One field per value; a header plus bits wider than 64 bits puts
    # the excess in a second field, 64 bits on.
    payload = x >> win_tz.astype(np.uint64)
    header = np.where(is_open, 3 | (lz << 2) | ((width - 1) << 7), 1)
    shift = head.astype(np.uint64)
    wide = head + width > 64
    at = starts[nz]
    field_starts = np.concatenate((starts[firsts], at, at[wide] + 64))
    fields = np.concatenate((
        values[firsts],
        header.astype(np.uint64) | (payload << shift),
        payload[wide] >> (np.uint64(64) - shift[wide]),
    ))
    words = np.zeros(int(word_base[-1] + word_counts[-1]), dtype=np.uint64)
    scatter_fields(words, field_starts, fields)
    parts = np.split(words, np.cumsum(word_counts)[:-1])
    return list(zip(parts, bit_lengths.tolist(), counts.tolist()))


def encode_gorilla_blocks(blocks) -> list[tuple[np.ndarray, int, int]]:
    """Gorilla-encode each block: ``[(words, bit_length, count)]``.

    ``blocks`` is an iterable of non-empty 1-D ``int64`` or ``uint64``
    arrays.  Each result is byte-identical to what
    :func:`repro.baselines.gorilla.gorilla_encode` leaves in a fresh
    :class:`~repro.bits.io.BitWriter` for that block.  Whole blocks are
    grouped into vectorised passes of at most :data:`_ENCODE_CHUNK`
    values, so memory stays flat however many blocks there are; a block
    longer than that is a pass of its own.
    """
    out: list = []
    batch: list[np.ndarray] = []
    size = 0
    for block in blocks:
        block = np.asarray(block)
        if block.ndim != 1 or len(block) == 0:
            raise ValueError("every Gorilla block must be a non-empty 1-D array")
        if batch and size + len(block) > _ENCODE_CHUNK:
            out += _encode_gorilla_pass(batch)
            batch, size = [], 0
        batch.append(block)
        size += len(block)
    if batch:
        out += _encode_gorilla_pass(batch)
    return out
