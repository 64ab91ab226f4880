"""The NeaTS compressed layout ``⟨S, B, O, C, K, P⟩`` (§III-C).

Given the fragments produced by Algorithm 1, this module stores

* ``S``  — fragment start positions;
* ``B``  — per-fragment correction bit widths;
* ``O``  — cumulative correction bit offsets;
* ``C``  — the corrections themselves, a bit string; correction ``c`` of a
  fragment with width ``w`` is stored biased as ``c + 2^(w-1)``;
* ``K``  — per-fragment function kinds;
* ``P``  — per-kind concatenated parameter arrays,

and implements Algorithm 2 (full decompression, vectorised per fragment) and
Algorithm 3 (random access).

The frame stores ``S``, ``B``, ``K`` and ``P`` as plain arrays and ``C`` as
64-bit words; ``O`` is one prefix sum over ``B`` and the fragment lengths.
Loading checks that these arrays split ``[0, n)`` consistently and adopts
them as they are; the fragment lookup (``S.rank`` in Algorithm 3) bisects
the start list.  :meth:`NeaTSStorage.size_bits` charges the paper's succinct
layout instead (``S`` and ``O`` Elias-Fano, ``B`` packed, ``K`` a wavelet
tree), building those structures on request, since no query reads them.

A note on exactness: the fitted parameters come from float64 geometry, so a
residual can land one past ±ε.  The builder measures the *actual* residuals of
every fragment and widens its correction width when required (``B`` is
per-fragment anyway), making the lossless guarantee unconditional.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from ..baselines._native import INT64, INT64_PAIR, NEATS_HDR
from ..bits import BitReader, BitWriter, EliasFano, PackedArray, WaveletTree
from ..bits.packed import unpack_bits, unpack_fields
from .models import Model, get_model
from .partition import Fragment, correction_bits

__all__ = ["NeaTSStorage"]

_MAGIC = b"NeaTS101"

# Function evaluations are clamped into a safe int64 sub-range before the
# float -> int cast; encoder and decoder apply the same clamp, so residuals
# cancel exactly even when a model overflows between data points.
_CLAMP = float(1 << 62)

# Correction bit offsets reach 63·n: n < 2^57 keeps every one inside int64.
_MAX_N = 1 << 57


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


def _take(data, pos: int, dtype, count: int) -> tuple[np.ndarray, int]:
    """``count`` items of ``dtype`` at ``pos`` (zero-copy) and the next position."""
    if count < 0:
        raise ValueError(f"corrupt NeaTS layout: negative array length {count}")
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return arr, pos + arr.nbytes


class NeaTSStorage:
    """Immutable compressed representation of one integer time series."""

    def __init__(
        self,
        z: np.ndarray,
        fragments: list[Fragment],
        shift: int,
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
        """
        n = len(z)
        if fragments and (fragments[0].start != 0 or fragments[-1].end != n):
            raise ValueError("fragments must exactly cover the series")
        for a, b in zip(fragments, fragments[1:]):
            if a.end != b.start:
                raise ValueError("fragments must be consecutive")

        model_names = sorted({f.model_name for f in fragments})
        kind_of = {name: i for i, name in enumerate(model_names)}

        starts: list[int] = []
        widths: list[int] = []
        kinds: list[int] = []
        params_per_kind: list[list[float]] = [[] for _ in model_names]
        corrections = BitWriter()

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

        self._adopt(
            n,
            shift,
            model_names,
            np.array(starts, dtype=np.int64),
            np.array(widths, dtype=np.int64),
            np.array(kinds, dtype=np.int64),
            [np.array(p, dtype=np.float64) for p in params_per_kind],
            corrections.getbuffer(),
            corrections.bit_length,
        )

    def _adopt(
        self,
        n: int,
        shift: int,
        names: list[str],
        starts: np.ndarray,
        widths: np.ndarray,
        kinds: np.ndarray,
        params: list[np.ndarray],
        words: np.ndarray,
        cbits: int,
    ) -> None:
        """Check a layout's arrays and take them as they are.

        Both constructors end here: :meth:`__init__` with the arrays it
        computed, :meth:`from_bytes` with views into the frame.  A layout
        whose starts do not split ``[0, n)`` into non-empty fragments, or
        whose widths, kinds, parameter counts or correction bits disagree
        with it, is refused: served, it would decode wrong values.  The
        checks are numpy passes over the ``m``-length arrays.
        """
        m = len(starts)
        if not 0 <= n < _MAX_N or (m == 0) != (n == 0):
            raise ValueError(f"corrupt NeaTS layout: {m} fragments for {n} values")
        # Non-negative starts keep every difference exact in int64.
        lengths = np.diff(starts, append=n)
        if m and (starts[0] != 0 or starts.min() < 0 or lengths.min() < 1):
            raise ValueError(f"corrupt NeaTS layout: starts do not split [0, {n})")
        if ((widths < 0) | (widths >= 64)).any():
            raise ValueError("corrupt NeaTS layout: correction width outside [0, 64)")
        if ((kinds < 0) | (kinds >= len(names))).any():
            raise ValueError("corrupt NeaTS layout: function kind without a name")
        models = [get_model(name) for name in names]
        uses = np.bincount(kinds, minlength=len(names))
        for name, model, p, count in zip(names, models, params, uses.tolist()):
            if p.size != count * model.n_params:
                raise ValueError(
                    f"corrupt NeaTS layout: {p.size} parameters for {count} "
                    f"{name} fragments"
                )
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(widths * lengths, out=offsets[1:])
        if offsets[-1] != cbits or 64 * len(words) < cbits:
            raise ValueError(
                f"corrupt NeaTS layout: fragments need {offsets[-1]} correction "
                f"bits, header says {cbits} in {len(words)} words"
            )

        self.n = n
        self.m = m
        self.shift = shift
        self.model_names = names
        self._models: list[Model] = models
        self.P = [p.reshape(-1, model.n_params) for p, model in zip(params, models)]
        self._corrections = BitReader(words, cbits)

        # Hot-path caches for random access: python lists avoid numpy scalars.
        self._starts_list = starts.tolist()
        self._widths_list = widths.tolist()
        self._kinds_list = kinds.tolist()
        self._offsets_list = offsets.tolist()
        rows = [iter(p.tolist()) for p in self.P]
        self._params_cache = [tuple(next(rows[kind])) for kind in self._kinds_list]

    # -- queries -------------------------------------------------------------

    def fragment_index(self, k: int) -> int:
        """The index of the fragment covering 0-based position ``k``.

        ``S.rank(k) - 1`` of Algorithm 3, answered by bisecting the start
        list.
        """
        if not 0 <= k < self.n:
            raise IndexError(f"position {k} out of range [0, {self.n})")
        return bisect_right(self._starts_list, k) - 1

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
        """Space of the paper's succinct layout (§III-C), in bits.

        ``S`` and ``O`` are charged as Elias-Fano, ``B`` packed at 6 bits and
        ``K`` as a wavelet tree, plus ``C``, ``P`` and the headers.  No query
        reads those structures, so each call builds them and drops them:
        O(m) Python work, not a field read.
        """
        offsets = self._offsets_list
        total = 64 * 4  # header: n, m, shift, flags
        total += EliasFano(self._starts_list, universe=max(self.n, 1)).size_bits()
        total += PackedArray(self._widths_list, width=6).size_bits()
        total += EliasFano(offsets, universe=offsets[-1] + 1).size_bits()
        total += self._corrections.bit_length
        total += WaveletTree(self._kinds_list, sigma=len(self.model_names)).size_bits()
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
        out += NEATS_HDR.pack(self.n, self.m, self.shift, len(names), 0)
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
        slice).  The parameter arrays and correction words are adopted
        zero-copy via ``np.frombuffer``, so the buffer must outlive the
        object.  A layout that fails the checks of :meth:`_adopt` raises
        ``ValueError``.
        """
        if data[:8] != _MAGIC:
            raise ValueError("not a NeaTS byte string")
        pos = 8
        n, m, shift, name_len, flag = NEATS_HDR.unpack_from(data, pos)
        pos += NEATS_HDR.size
        # 1 marks a frame of the retired bitvector rank (see NEATS_HDR).
        if flag not in (0, 1):
            raise ValueError(f"corrupt NeaTS layout: unknown flag byte {flag}")
        raw_names, pos = _take(data, pos, np.uint8, name_len)
        names = raw_names.tobytes().decode().split(",") if name_len else []
        (m_stored,) = INT64.unpack_from(data, pos)
        if m_stored != m:
            raise ValueError(
                f"corrupt NeaTS layout: header says {m} fragments, the arrays "
                f"hold {m_stored}"
            )
        starts, pos = _take(data, pos + 8, np.int64, m)
        widths, pos = _take(data, pos, np.int8, m)
        kinds, pos = _take(data, pos, np.int8, m)
        params = []
        for _ in names:
            (count,) = INT64.unpack_from(data, pos)
            arr, pos = _take(data, pos + 8, np.float64, count)
            params.append(arr)
        cbits, nwords = INT64_PAIR.unpack_from(data, pos)
        words, _ = _take(data, pos + 16, np.uint64, nwords)
        obj = cls.__new__(cls)
        obj._adopt(n, shift, names, starts, widths, kinds, params, words, cbits)
        return obj
