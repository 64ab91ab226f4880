"""The NeaTS compressed layout ``⟨S, B, O, C, K, P⟩`` (§III-C).

Given the fragments produced by Algorithm 1, this module builds the succinct
representation the paper describes:

* ``S``  — fragment start positions; Elias-Fano (default) or a plain
  bitvector of length ``n`` with O(1) rank (the paper's constant-time
  alternative).
* ``B``  — per-fragment correction bit widths, packed.
* ``O``  — cumulative correction bit offsets, Elias-Fano.
* ``C``  — the corrections themselves, a bit string; correction ``c`` of a
  fragment with width ``w`` is stored biased as ``c + 2^(w-1)``.
* ``K``  — per-fragment function kinds, a wavelet tree.
* ``P``  — per-kind concatenated parameter arrays, indexed by ``K.rank``.

and implements Algorithm 2 (full decompression, vectorised per fragment) and
Algorithm 3 (random access).

A note on exactness: the fitted parameters come from float64 geometry, so a
residual can land one past ±ε.  The builder measures the *actual* residuals of
every fragment and widens its correction width when required (``B`` is
per-fragment anyway), making the lossless guarantee unconditional.
"""

from __future__ import annotations

import math
import numpy as np

from ..baselines._native import INT64, INT64_PAIR, NEATS_HDR
from ..bits import BitReader, BitWriter, BitVector, EliasFano, PackedArray, WaveletTree
from ..bits.packed import unpack_bits, unpack_fields
from .models import Model, get_model
from .partition import Fragment, correction_bits

__all__ = ["NeaTSStorage"]

_MAGIC = b"NeaTS101"

# Function evaluations are clamped into a safe int64 sub-range before the
# float -> int cast; encoder and decoder apply the same clamp, so residuals
# cancel exactly even when a model overflows between data points.
_CLAMP = float(1 << 62)


def _floor_i64(values: np.ndarray) -> np.ndarray:
    """Vectorised ``floor`` with a symmetric int64-safe clamp."""
    floored = np.floor(values)
    floored = np.nan_to_num(floored, nan=0.0, posinf=_CLAMP, neginf=-_CLAMP)
    return np.clip(floored, -_CLAMP, _CLAMP).astype(np.int64)


def _floor_i64_scalar(value: float) -> int:
    """Scalar twin of :func:`_floor_i64` (the random access hot path)."""
    if value != value:  # nan
        return 0
    if value >= _CLAMP:
        return int(_CLAMP)
    if value <= -_CLAMP:
        return -int(_CLAMP)
    return math.floor(value)


def _required_width(cmin: int, cmax: int, base_width: int) -> int:
    """Smallest width ``w >= base_width`` whose biased range holds [cmin, cmax]."""
    w = base_width
    while w < 64:
        if w == 0:
            if cmin == 0 and cmax == 0:
                return 0
        else:
            half = 1 << (w - 1)
            if -half <= cmin and cmax <= half - 1:
                return w
        w += 1
    raise OverflowError("corrections do not fit in 64 bits")


class NeaTSStorage:
    """Immutable compressed representation of one integer time series."""

    def __init__(
        self,
        z: np.ndarray,
        fragments: list[Fragment],
        shift: int,
        rank_mode: str = "ef",
    ) -> None:
        """Build the layout from shifted values ``z`` and a fragment partition.

        Parameters
        ----------
        z:
            The shifted values (``y + shift``) the fragments were fitted on,
            as **exact integers** (int64).  Passing float64 is accepted for
            values within float precision, but residuals are always measured
            against the integer values: for series whose magnitude exceeds
            2^53 the float image of ``y + shift`` is rounded, and residuals
            computed against it would silently corrupt the lossless
            guarantee.  The functions themselves are evaluated in float64 on
            both the encode and decode paths, so *their* rounding cancels.
        fragments:
            Consecutive fragments covering ``[0, len(z))``.
        shift:
            The global positivity shift, stored so decoding returns ``y``.
        rank_mode:
            ``"ef"`` for Elias-Fano starts (compressed, O(log) rank) or
            ``"bitvector"`` for the O(1)-rank bitvector of length ``n``.
        """
        n = len(z)
        if fragments and (fragments[0].start != 0 or fragments[-1].end != n):
            raise ValueError("fragments must exactly cover the series")
        for a, b in zip(fragments, fragments[1:]):
            if a.end != b.start:
                raise ValueError("fragments must be consecutive")
        if rank_mode not in ("ef", "bitvector"):
            raise ValueError(f"unknown rank mode {rank_mode!r}")

        self.n = n
        self.m = len(fragments)
        self.shift = shift
        self.rank_mode = rank_mode

        model_names = sorted({f.model_name for f in fragments})
        self.model_names = model_names
        self._models: list[Model] = [get_model(name) for name in model_names]
        kind_of = {name: i for i, name in enumerate(model_names)}

        starts: list[int] = []
        widths: list[int] = []
        kinds: list[int] = []
        params_per_kind: list[list[float]] = [[] for _ in model_names]
        corrections = BitWriter()
        offsets: list[int] = [0]

        z_exact = np.asarray(z)
        if z_exact.dtype != np.int64:
            z_exact = np.round(z_exact).astype(np.int64)
        for frag in fragments:
            model = get_model(frag.model_name)
            xs = np.arange(frag.start + 1, frag.end + 1, dtype=np.float64)
            approx = _floor_i64(model.evaluate(frag.params, xs))
            resid = z_exact[frag.start : frag.end] - approx
            base = correction_bits(frag.eps)
            width = _required_width(int(resid.min()), int(resid.max()), base)
            bias = (1 << (width - 1)) if width else 0
            for c in resid.tolist():
                corrections.write(int(c) + bias, width)
            starts.append(frag.start)
            widths.append(width)
            kinds.append(kind_of[frag.model_name])
            params_per_kind[kind_of[frag.model_name]].extend(frag.params)
            offsets.append(offsets[-1] + width * frag.length)

        self.S = EliasFano(starts, universe=max(n, 1))
        if rank_mode == "bitvector":
            bits = np.zeros(n, dtype=np.uint8)
            bits[starts] = 1
            self.S_bv: BitVector | None = BitVector(bits.tolist())
        else:
            self.S_bv = None
        self.B = PackedArray(widths, width=6)
        self.O = EliasFano(offsets, universe=offsets[-1] + 1)
        self._corrections = BitReader(corrections.getbuffer(), corrections.bit_length)
        self.K = WaveletTree(kinds, sigma=len(model_names))
        self.P = [
            np.array(p, dtype=np.float64).reshape(-1, self._models[i].n_params)
            for i, p in enumerate(params_per_kind)
        ]

        # Hot-path caches for random access: python lists avoid numpy scalars.
        self._widths_list = widths
        self._starts_list = starts
        self._kinds_list = kinds
        self._offsets_list = offsets
        self._param_index = []
        counters = [0] * len(model_names)
        for kind in kinds:
            self._param_index.append(counters[kind])
            counters[kind] += 1
        self._params_cache = [
            tuple(map(float, self.P[kind][pi]))
            for kind, pi in zip(kinds, self._param_index)
        ]

    # -- queries -------------------------------------------------------------

    def fragment_index(self, k: int) -> int:
        """The index of the fragment covering 0-based position ``k``.

        Uses ``S.rank`` (Elias-Fano mode) or the O(1) bitvector rank, exactly
        as discussed at the end of §III-C.
        """
        if not 0 <= k < self.n:
            raise IndexError(f"position {k} out of range [0, {self.n})")
        if self.S_bv is not None:
            return self.S_bv.rank1(k + 1) - 1
        return self.S.rank(k) - 1

    def access(self, k: int) -> int:
        """Algorithm 3: the original value at 0-based position ``k``."""
        i = self.fragment_index(k)
        start = self._starts_list[i]
        kind = self._kinds_list[i]
        model = self._models[kind]
        params = self._params_cache[i]
        width = self._widths_list[i]
        approx = _floor_i64_scalar(model.evaluate_at(params, k + 1))
        if width:
            o = self._offsets_list[i] + (k - start) * width
            u = self._corrections.peek_at(o, width)
            approx += u - (1 << (width - 1))
        return approx - self.shift

    def decompress(self) -> np.ndarray:
        """Algorithm 2: the full original series as an int64 array."""
        from ..kernels import get_backend

        if get_backend() != "python" and self.m > 1:
            return self._decompress_batched()
        out = np.empty(self.n, dtype=np.int64)
        for i in range(self.m):
            start = self._starts_list[i]
            end = self._starts_list[i + 1] if i + 1 < self.m else self.n
            self._decode_fragment(i, start, end, out[start:end])
        return out

    def _decompress_batched(self) -> np.ndarray:
        """One vectorised pass over all fragments (the numpy backend).

        Function values come from a single
        :func:`~repro.kernels.segments.evaluate_fragments` call; corrections
        are then unbiased per distinct width with one gather each, so the
        cost no longer scales with the fragment count.
        """
        from ..kernels import evaluate_fragments
        from ..kernels.segments import position_ramp

        starts = np.asarray(self._starts_list, dtype=np.int64)
        ends = np.append(starts[1:], self.n)
        approx = _floor_i64(
            evaluate_fragments(
                self._models,
                self._kinds_list,
                self._starts_list,
                ends,
                self._params_cache,
                self.n,
            )
        )
        widths = np.asarray(self._widths_list, dtype=np.int64)
        offsets = np.asarray(self._offsets_list[:-1], dtype=np.int64)
        lengths = ends - starts
        for w in np.unique(widths):
            w = int(w)
            if w == 0:
                continue
            sel = np.nonzero(widths == w)[0]
            ls = lengths[sel]
            within = np.arange(int(ls.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(ls) - ls, ls
            )
            bit_starts = np.repeat(offsets[sel], ls) + within * w
            raw = unpack_fields(self._corrections.words, bit_starts, w)
            idx = position_ramp(starts[sel], ls)
            approx[idx] += raw.astype(np.int64) - (1 << (w - 1))
        return approx - self.shift

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        """Values at 0-based positions ``[lo, hi)`` — a random access + scan."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError(f"range [{lo}, {hi}) out of bounds for n={self.n}")
        out = np.empty(hi - lo, dtype=np.int64)
        if lo == hi:
            return out
        i = self.fragment_index(lo)
        pos = lo
        while pos < hi:
            start = self._starts_list[i]
            end = self._starts_list[i + 1] if i + 1 < self.m else self.n
            a = max(start, lo)
            b = min(end, hi)
            self._decode_fragment(i, a, b, out[a - lo : b - lo])
            pos = b
            i += 1
        return out

    def _decode_fragment(self, i: int, a: int, b: int, out: np.ndarray) -> None:
        """Decode positions ``[a, b)`` of fragment ``i`` into ``out``."""
        start = self._starts_list[i]
        kind = self._kinds_list[i]
        model = self._models[kind]
        params = self._params_cache[i]
        width = self._widths_list[i]
        xs = np.arange(a + 1, b + 1, dtype=np.float64)
        approx = _floor_i64(model.evaluate(params, xs))
        if width:
            offset = self._offsets_list[i] + (a - start) * width
            raw = unpack_bits(self._corrections.words, width, b - a, offset)
            approx += raw.astype(np.int64) - (1 << (width - 1))
        out[:] = approx - self.shift

    # -- size accounting -------------------------------------------------------

    def size_bits(self) -> int:
        """Total space of the compressed representation, in bits."""
        total = 64 * 4  # header: n, m, shift, flags
        total += self.S.size_bits()
        if self.S_bv is not None:
            total += self.S_bv.size_bits()
        total += self.B.size_bits()
        total += self.O.size_bits()
        total += self._corrections.bit_length
        total += self.K.size_bits()
        total += sum(p.size * 64 for p in self.P)
        total += 16 * len(self.model_names)  # kind directory
        return total

    def size_bytes(self) -> int:
        """Total space in bytes (rounded up)."""
        return (self.size_bits() + 7) // 8

    # -- serialisation -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to a portable byte string."""
        out = bytearray(_MAGIC)
        names = ",".join(self.model_names).encode()
        out += NEATS_HDR.pack(
            self.n, self.m, self.shift, len(names),
            1 if self.S_bv is not None else 0,
        )
        out += names
        out += INT64.pack(len(self._starts_list))
        out += np.array(self._starts_list, dtype=np.int64).tobytes()
        out += np.array(self._widths_list, dtype=np.int8).tobytes()
        out += np.array(self._kinds_list, dtype=np.int8).tobytes()
        for p in self.P:
            out += INT64.pack(p.size)
            out += p.tobytes()
        out += INT64_PAIR.pack(
            self._corrections.bit_length, len(self._corrections.words)
        )
        out += self._corrections.words.tobytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, data) -> "NeaTSStorage":
        """Rebuild a storage object from :meth:`to_bytes` output.

        ``data`` may be any byte buffer (``bytes``, ``memoryview``, an mmap
        slice); the big arrays are adopted zero-copy via ``np.frombuffer``.
        """
        if data[:8] != _MAGIC:
            raise ValueError("not a NeaTS byte string")
        pos = 8
        n, m, shift, name_len, has_bv = NEATS_HDR.unpack_from(data, pos)
        pos += NEATS_HDR.size
        names = (
            bytes(data[pos : pos + name_len]).decode().split(",")
            if name_len
            else []
        )
        pos += name_len
        (m2,) = INT64.unpack_from(data, pos)
        pos += 8
        starts = np.frombuffer(data, dtype=np.int64, count=m2, offset=pos)
        pos += 8 * m2
        widths = np.frombuffer(data, dtype=np.int8, count=m2, offset=pos)
        pos += m2
        kinds = np.frombuffer(data, dtype=np.int8, count=m2, offset=pos)
        pos += m2
        params = []
        for _ in names:
            (cnt,) = INT64.unpack_from(data, pos)
            pos += 8
            arr = np.frombuffer(data, dtype=np.float64, count=cnt, offset=pos)
            pos += 8 * cnt
            params.append(arr)
        cbits, nwords = INT64_PAIR.unpack_from(data, pos)
        pos += 16
        words = np.frombuffer(data, dtype=np.uint64, count=nwords, offset=pos)

        # Reassemble fragments and rebuild through the normal constructor by
        # reconstructing values: decode directly instead (cheaper): we bypass
        # __init__ and fill the fields by hand.
        obj = cls.__new__(cls)
        obj.n = n
        obj.m = m
        obj.shift = shift
        obj.rank_mode = "bitvector" if has_bv else "ef"
        obj.model_names = names
        obj._models = [get_model(name) for name in names]
        starts_list = starts.tolist()
        widths_list = widths.tolist()
        kinds_list = kinds.tolist()
        obj._starts_list = starts_list
        obj._widths_list = widths_list
        obj._kinds_list = kinds_list
        lengths = [
            (starts_list[i + 1] if i + 1 < m else n) - starts_list[i]
            for i in range(m)
        ]
        offsets = [0]
        for w, length in zip(widths_list, lengths):
            offsets.append(offsets[-1] + w * length)
        obj._offsets_list = offsets
        obj.S = EliasFano(starts_list, universe=max(n, 1))
        if has_bv:
            bits = np.zeros(n, dtype=np.uint8)
            bits[starts_list] = 1
            obj.S_bv = BitVector(bits.tolist())
        else:
            obj.S_bv = None
        obj.B = PackedArray(widths_list, width=6)
        obj.O = EliasFano(offsets, universe=offsets[-1] + 1)
        obj._corrections = BitReader(words.copy(), cbits)
        obj.K = WaveletTree(kinds_list, sigma=max(len(names), 1))
        obj.P = [
            params[i].reshape(-1, obj._models[i].n_params) for i in range(len(names))
        ]
        obj._param_index = []
        counters = [0] * len(names)
        for kind in kinds_list:
            obj._param_index.append(counters[kind])
            counters[kind] += 1
        obj._params_cache = [
            tuple(map(float, obj.P[kind][pi]))
            for kind, pi in zip(kinds_list, obj._param_index)
        ]
        return obj
