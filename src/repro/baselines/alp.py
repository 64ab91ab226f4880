"""ALP: adaptive lossless floating-point compression (Afroozeh et al. 2023).

ALP encodes a double ``x`` as an integer of significant digits via the
*pseudodecimal* transform ``d = round(x * 10^e / 10^f)``; decoding computes
``d * 10^f / 10^e`` and must reproduce ``x`` bit-exactly, otherwise the value
becomes an *exception* stored raw.  Per block of 1024 values ALP picks the
``(e, f)`` exponent pair minimising the encoded size (sampling a few values
first, then verifying the whole block), and bit-packs the integers with a
frame-of-reference code.

Our datasets are decimal-scaled integers, so the adapter reconstructs the
doubles as ``v / 10^digits`` (the exact inverse of the dataset scaling),
compresses those, and converts back on decoding — bit-exactness of ALP makes
the int64 round-trip exact as well.
"""

from __future__ import annotations

import numpy as np

from ..bits.packed import PackedArray, min_width
from ._native import (
    ALP_BLOCK as _ALP_BLOCK,
    ALP_HDR as _ALP_HDR,
    INT64,
    INT64_PAIR,
    pack_packed_array,
    unpack_packed_array,
)
from .base import Compressed, LosslessCompressor

__all__ = ["AlpCompressor"]

_BLOCK = 1024
_MAX_E = 14
_POW10 = np.power(10.0, np.arange(_MAX_E + 1))
_SAMPLE = 32


def _try_pair(xs: np.ndarray, e: int, f: int) -> np.ndarray | None:
    """Encoded integers for (e, f), or None if any value overflows int64."""
    scaled = xs * _POW10[e] / _POW10[f]
    if not np.all(np.isfinite(scaled)):
        return None
    if np.any(np.abs(scaled) > 2**62):
        return None
    return np.round(scaled).astype(np.int64)


def _roundtrip_ok(xs: np.ndarray, d: np.ndarray, e: int, f: int) -> np.ndarray:
    """Boolean mask of values decoded bit-exactly."""
    back = d.astype(np.float64) * _POW10[f] / _POW10[e]
    return back == xs


def _choose_pair(xs: np.ndarray) -> tuple[int, int]:
    """Pick (e, f) on a sample by maximising exact hits, then compactness."""
    sample = xs[:: max(len(xs) // _SAMPLE, 1)]
    best = (0, 0)
    best_key = (-1, float("inf"))
    for e in range(_MAX_E + 1):
        for f in range(min(e, 3) + 1):
            d = _try_pair(sample, e, f)
            if d is None:
                continue
            ok = _roundtrip_ok(sample, d, e, f)
            hits = int(ok.sum())
            spread = float(d[ok].max() - d[ok].min()) if hits else float("inf")
            key = (hits, -spread)
            if key > (best_key[0], -best_key[1]):
                best_key = (hits, spread)
                best = (e, f)
    return best


class _AlpBlock:
    __slots__ = ("e", "f", "base", "packed", "exc_pos", "exc_raw", "count")

    def __init__(self, e, f, base, packed, exc_pos, exc_raw, count):
        self.e = e
        self.f = f
        self.base = base
        self.packed = packed
        self.exc_pos = exc_pos
        self.exc_raw = exc_raw
        self.count = count

    def decode(self) -> np.ndarray:
        d = self.packed.to_numpy().astype(np.int64) + self.base
        xs = d.astype(np.float64) * _POW10[self.f] / _POW10[self.e]
        if len(self.exc_pos):
            xs[self.exc_pos] = self.exc_raw
        return xs

    def size_bits(self) -> int:
        return (
            8 + 8 + 64  # e, f, base
            + self.packed.size_bits()
            + len(self.exc_pos) * (16 + 64)
            + 16
        )


class _AlpCompressed(Compressed):
    def __init__(
        self,
        blocks: list[_AlpBlock],
        n: int,
        scale: float,
        patches: dict[int, int] | None = None,
    ) -> None:
        self._blocks = blocks
        self._n = n
        self._scale = scale
        # Integer-level patches: positions where the int64 -> double -> int64
        # round-trip is lossy (|value| beyond 2^53); stored raw.
        self._patches = patches or {}

    def size_bits(self) -> int:
        return (
            64 * 2
            + sum(b.size_bits() for b in self._blocks)
            + len(self._patches) * (64 + 64)
        )

    def _to_int(self, xs: np.ndarray, base: int) -> np.ndarray:
        out = np.round(xs * self._scale).astype(np.int64)
        for pos, value in self._patches.items():
            if base <= pos < base + len(out):
                out[pos - base] = value
        return out

    def decompress(self) -> np.ndarray:
        xs = np.concatenate([b.decode() for b in self._blocks])
        return self._to_int(xs, 0)

    def access(self, k: int) -> int:
        # The paper's §IV-A2 protocol: ALP has no native random access, so an
        # access decodes the whole covering 1024-value block, then indexes.
        if not 0 <= k < self._n:
            raise IndexError(k)
        if k in self._patches:
            return self._patches[k]
        idx, off = divmod(k, _BLOCK)
        xs = self._blocks[idx].decode()
        return int(round(float(xs[off]) * self._scale))

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi <= self._n:
            raise IndexError((lo, hi))
        if lo == hi:
            return np.empty(0, dtype=np.int64)
        first = lo // _BLOCK
        last = (hi - 1) // _BLOCK
        xs = np.concatenate([self._blocks[i].decode() for i in range(first, last + 1)])
        base = first * _BLOCK
        return self._to_int(xs, base)[lo - base : hi - base]

    def to_payload(self) -> bytes:
        """Native frame payload: per-block (e, f) codes, packed digits, and
        exceptions, plus the integer-level patches."""
        parts = [_ALP_HDR.pack(self._n, self._scale, len(self._patches))]
        for pos_, value in sorted(self._patches.items()):
            parts.append(INT64_PAIR.pack(pos_, value))
        parts.append(INT64.pack(len(self._blocks)))
        for b in self._blocks:
            parts.append(
                _ALP_BLOCK.pack(b.e, b.f, b.base, b.count, len(b.exc_pos))
            )
            parts.append(pack_packed_array(b.packed))
            parts.append(np.asarray(b.exc_pos, dtype=np.int64).tobytes())
            parts.append(np.asarray(b.exc_raw, dtype=np.float64).tobytes())
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload) -> "_AlpCompressed":
        """Rebuild from :meth:`to_payload` output — a direct parse, no
        recompression (works over any byte buffer, e.g. an mmapped frame)."""
        view = memoryview(payload) if not isinstance(payload, memoryview) else payload
        if len(view) < _ALP_HDR.size:
            raise ValueError("corrupt ALP payload: header incomplete")
        n, scale, npatches = _ALP_HDR.unpack_from(view)
        if n < 0 or npatches < 0 or not scale > 0:
            raise ValueError("corrupt ALP payload: bad header")
        pos = _ALP_HDR.size
        if pos + 16 * npatches + 8 > len(view):
            raise ValueError("corrupt ALP payload: truncated patch table")
        patches = {}
        for _ in range(npatches):
            k, value = INT64_PAIR.unpack_from(view, pos)
            pos += 16
            patches[k] = value
        (nblocks,) = INT64.unpack_from(view, pos)
        pos += 8
        if nblocks < 1:
            raise ValueError(f"corrupt ALP payload: {nblocks} blocks")
        blocks: list[_AlpBlock] = []
        for _ in range(nblocks):
            if pos + _ALP_BLOCK.size > len(view):
                raise ValueError("corrupt ALP payload: truncated block header")
            e, f, base, count, n_exc = _ALP_BLOCK.unpack_from(view, pos)
            pos += _ALP_BLOCK.size
            if not 0 <= e <= _MAX_E or not 0 <= f <= _MAX_E:
                raise ValueError(f"corrupt ALP payload: exponent pair ({e}, {f})")
            if n_exc < 0 or count < 1:
                raise ValueError("corrupt ALP payload: bad block counts")
            packed, pos = unpack_packed_array(view, pos, "ALP payload")
            if len(packed) != count:
                raise ValueError(
                    f"corrupt ALP payload: block packs {len(packed)} digits, "
                    f"header says {count}"
                )
            if pos + 16 * n_exc > len(view):
                raise ValueError("corrupt ALP payload: truncated exceptions")
            exc_pos = np.frombuffer(view, dtype=np.int64, count=n_exc, offset=pos)
            pos += 8 * n_exc
            exc_raw = np.frombuffer(view, dtype=np.float64, count=n_exc, offset=pos)
            pos += 8 * n_exc
            blocks.append(_AlpBlock(e, f, base, packed, exc_pos, exc_raw, count))
        if pos != len(view):
            raise ValueError("corrupt ALP payload: trailing bytes")
        return cls(blocks, n, scale, patches)


class AlpCompressor(LosslessCompressor):
    """ALP over the doubles underlying a decimal-scaled integer series.

    Parameters
    ----------
    digits:
        The number of fractional decimal digits of the dataset (the same
        factor used to turn the raw values into integers).
    """

    name = "ALP"
    native_random_access = False  # per-1024 block decode, like the original

    def __init__(self, digits: int = 0) -> None:
        if digits < 0:
            raise ValueError("digits must be non-negative")
        self.digits = digits

    def compress(self, values: np.ndarray) -> _AlpCompressed:
        values = self._check_input(values)
        scale = 10.0**self.digits
        xs_all = values.astype(np.float64) / scale
        blocks: list[_AlpBlock] = []
        for start in range(0, len(values), _BLOCK):
            xs = xs_all[start : start + _BLOCK]
            e, f = _choose_pair(xs)
            d = _try_pair(xs, e, f)
            if d is None:
                d = np.zeros(len(xs), dtype=np.int64)
                ok = np.zeros(len(xs), dtype=bool)
            else:
                ok = _roundtrip_ok(xs, d, e, f)
            exc_pos = np.nonzero(~ok)[0].astype(np.int64)
            exc_raw = xs[~ok].copy()
            d = d.copy()
            if len(exc_pos) == len(xs):
                base = 0
                packed = PackedArray([0] * len(xs), width=0)
            else:
                d[~ok] = d[ok][0] if ok.any() else 0  # placeholder digits
                base = int(d.min())
                width = min_width(int(d.max()) - base)
                packed = PackedArray((d - base).tolist(), width=width)
            blocks.append(
                _AlpBlock(e, f, base, packed, exc_pos, exc_raw, len(xs))
            )
        compressed = _AlpCompressed(blocks, len(values), scale)
        # Guard the int64 adapter: values beyond double precision (2^53) can
        # fail the int -> double -> int round-trip; patch them explicitly.
        decoded = compressed.decompress()
        bad = np.nonzero(decoded != values)[0]
        if len(bad):
            compressed._patches = {int(k): int(values[k]) for k in bad}
        return compressed
