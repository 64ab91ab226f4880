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

The ``NeaTS102`` frame is the layout itself (little-endian):

=========  ===========================  ======================================
field      size                         content
=========  ===========================  ======================================
magic      8 B                          ``NeaTS102``
header     4 × int64                    ``n``, ``m``, ``shift``, ``cbits``
S, B, K    ``ceil(bits / 8)`` B         one LSB-first bit string:
                                        ``S`` Elias-Fano over ``[0, n)``
                                        (``m·(l+1) + ((n-1) >> l) + 1`` bits,
                                        ``l = max(0, floor(log2(n/m)))``),
                                        then ``B`` (6 bits a fragment), then
                                        ``K`` (4-bit ids into
                                        :data:`KIND_TABLE`)
P          8 B per parameter            float64, kinds in table order, each
                                        kind's fragments in order; the counts
                                        follow from ``K``
C          ``ceil(cbits / 64)`` × 8 B   uint64 words of biased corrections
=========  ===========================  ======================================

``O`` is not stored: it is one prefix sum over ``B`` and the fragment
lengths.  Loading decodes ``S``, ``B`` and ``K`` with numpy, checks that the
arrays split ``[0, n)`` consistently and adopts ``P`` and ``C`` zero-copy;
the fragment lookup (``S.rank`` in Algorithm 3) bisects the decoded start
list.  :meth:`NeaTSStorage.size_bits` is the frame's size in bits.
``NeaTS101`` frames (int64 starts, int8 widths and kinds, a kind-name
directory and per-kind parameter counts) still load, through the same
checks, and are written back as ``NeaTS102``.

The decoder's band.  A fragment of width ``c >= 1`` decodes position ``x`` as
``⌊f(x)⌋ + r`` with ``r`` in ``[-2^(c-1), 2^(c-1) - 1]``, so it stores ``z``
exactly whenever ``f(x)`` lies in ``[z - 2^(c-1) + 1, z + 2^(c-1) + 1)``; at
width 0 there is no correction and the band is ``[z, z + 1)``.  That band is
``2^c`` wide where ±ε spans ``2ε``: the default ``ε = 2^(c-1) - 1`` leaves
two units of it unused, and the band of width 1 holds no integer ε at all.  :func:`lossless_band` is that band shrunk by :data:`BAND_MARGIN` on
each side, and Algorithm 1 fits every lossless fragment into it instead of
±ε (lossy fragments keep ±ε, their L∞ guarantee).  The margin absorbs the
float64 rounding between the line fitted in transformed space and ``f``
evaluated at the positions, which stays far under ¼ while the values are far
under 2^50.

The builder still measures the *actual* residuals of every fragment and
widens its correction width when they need it (``B`` is per-fragment anyway),
making the lossless guarantee unconditional: a fit that leaves the band (on
huge values, or a fragment built by hand) costs a bit per value, not a wrong
answer.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING

import numpy as np

from ..baselines._native import INT64, INT64_PAIR, NEATS102_HDR, NEATS_HDR
from ..bits.eliasfano import decode_bits, encode_bits, encoded_bits
from ..bits.packed import from_bits, to_bits, unpack_bits, unpack_fields
from ..kernels.bitpack import scatter_fields
from .models import Model, get_model

if TYPE_CHECKING:
    from .partition import Fragment

__all__ = [
    "BAND_MARGIN",
    "KIND_BITS",
    "KIND_TABLE",
    "NeaTSStorage",
    "WIDTH_BITS",
    "correction_bits",
    "lossless_band",
]

_MAGIC = b"NeaTS102"
_MAGIC_V1 = b"NeaTS101"

#: ``K``'s alphabet: a frame stores a fragment's kind as its index here, in
#: ``KIND_BITS`` bits.  Frames outlive the registry's order, so the table
#: only grows at its end.
KIND_TABLE: tuple[str, ...] = (
    "linear",
    "exponential",
    "power",
    "logarithmic",
    "radical",
    "quadratic",
    "quadratic_linear",
    "cubic_linear",
    "cubic_quadratic",
    "anchored_quadratic",
    "gaussian",
)
_KIND_ID = {name: i for i, name in enumerate(KIND_TABLE)}
#: bits of a fragment's correction width in ``B``
WIDTH_BITS = 6
#: bits of a fragment's kind id in ``K`` (an index into :data:`KIND_TABLE`)
KIND_BITS = 4
_KIND_MODELS: list[Model] = [get_model(name) for name in KIND_TABLE]
_KIND_PARAMS = np.array([model.n_params for model in _KIND_MODELS], dtype=np.int64)

# Function evaluations are clamped into a safe int64 sub-range before the
# float -> int cast; encoder and decoder apply the same clamp, so residuals
# cancel exactly even when a model overflows between data points.
_CLAMP = float(1 << 62)

# Correction bit offsets reach 63·n: n < 2^57 keeps every one inside int64.
_MAX_N = 1 << 57

_HEAD = len(_MAGIC) + NEATS102_HDR.size
_NO_PARAMS = np.zeros(0, dtype=np.float64)


def _meta_bits(n: int, m: int) -> int:
    """Bits of the frame's ``S``, ``B`` and ``K`` string."""
    return encoded_bits(m, n) + (WIDTH_BITS + KIND_BITS) * m


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


def correction_bits(eps: float) -> int:
    """``ceil(log2(2ε + 1))`` — bits per correction for error bound ε."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return math.ceil(math.log2(2 * eps + 1)) if eps > 0 else 0


#: how far inside the decoder's band, on each side, a lossless fragment's
#: function is fitted (see the module docstring)
BAND_MARGIN = 0.25


def lossless_band(width: int) -> tuple[float, float]:
    """The band ``[z + lo, z + hi]`` a lossless fragment of correction width
    ``width`` is fitted to, as ``(lo, hi)``.

    It is the decoder's band, ``[z - 2^(width-1) + 1, z + 2^(width-1) + 1)``
    or ``[z, z + 1)`` at width 0, less :data:`BAND_MARGIN` on each side:
    every ``f(x)`` in it has ``z - ⌊f(x)⌋`` inside the width's biased range.
    """
    if width == 0:
        return BAND_MARGIN, 1 - BAND_MARGIN
    half = 1 << (width - 1)
    return 1 - half + BAND_MARGIN, 1 + half - BAND_MARGIN


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

        kinds = [_KIND_ID[f.model_name] for f in fragments]
        widths = np.zeros(len(fragments), dtype=np.int64)
        params: list[list[float]] = [[] for _ in KIND_TABLE]
        biased: list[np.ndarray] = []

        z_exact = np.asarray(z)
        if z_exact.dtype != np.int64:
            z_exact = np.round(z_exact).astype(np.int64)
        for i, frag in enumerate(fragments):
            model = get_model(frag.model_name)
            xs = np.arange(frag.start + 1, frag.end + 1, dtype=np.float64)
            approx = _floor_i64(model.evaluate(frag.params, xs))
            resid = z_exact[frag.start : frag.end] - approx
            base = correction_bits(frag.eps)
            width = _required_width(int(resid.min()), int(resid.max()), base)
            widths[i] = width
            params[kinds[i]].extend(frag.params)
            if width:
                biased.append((resid + (1 << (width - 1))).astype(np.uint64))

        # Every correction at its bit offset, in one scatter.
        starts = np.array([f.start for f in fragments], dtype=np.int64)
        value_widths = np.repeat(widths, np.diff(starts, append=n))
        bit_ends = np.cumsum(value_widths)
        cbits = int(bit_ends[-1]) if n else 0
        words = np.zeros(cbits // 64 + 1, dtype=np.uint64)
        if biased:
            coded = value_widths > 0
            bit_starts = (bit_ends - value_widths)[coded]
            scatter_fields(words, bit_starts, np.concatenate(biased))

        self._adopt(
            n,
            shift,
            starts,
            widths,
            np.array(kinds, dtype=np.int64),
            [np.array(p, dtype=np.float64) for p in params],
            words,
            cbits,
        )

    def _adopt(
        self,
        n: int,
        shift: int,
        starts: np.ndarray,
        widths: np.ndarray,
        kinds: np.ndarray,
        params: list[np.ndarray],
        words: np.ndarray,
        cbits: int,
    ) -> None:
        """Check a layout's arrays and take them as they are.

        Every constructor ends here: :meth:`__init__` with the arrays it
        computed, :meth:`from_bytes` with the arrays of a ``NeaTS102`` or
        ``NeaTS101`` frame.  ``kinds`` are ids into :data:`KIND_TABLE`
        (each reader checks its own encoding of them) and ``params[k]``
        holds the parameters of kind ``k``'s fragments.  A layout whose
        starts do not split ``[0, n)`` into non-empty fragments, or whose
        widths, parameter counts or correction bits disagree with it, is
        refused: served, it would decode wrong values.  The checks are numpy
        passes over the ``m``-length arrays.
        """
        m = len(starts)
        if not 0 <= n < _MAX_N or (m == 0) != (n == 0):
            raise ValueError(f"corrupt NeaTS layout: {m} fragments for {n} values")
        # Non-negative starts keep every difference exact in int64.
        ends = np.empty(m, dtype=np.int64)
        ends[:-1] = starts[1:]
        ends[-1:] = n
        lengths = ends - starts
        if m and (starts[0] != 0 or starts.min() < 0 or lengths.min() < 1):
            raise ValueError(f"corrupt NeaTS layout: starts do not split [0, {n})")
        if m and (widths.min() < 0 or widths.max() >= 64):
            raise ValueError("corrupt NeaTS layout: correction width outside [0, 64)")
        uses = np.bincount(kinds, minlength=len(KIND_TABLE)).tolist()
        for name, model, p, count in zip(KIND_TABLE, _KIND_MODELS, params, uses):
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

        used = [k for k, count in enumerate(uses) if count]
        self.n = n
        self.m = m
        self.shift = shift
        self.model_names = [KIND_TABLE[k] for k in used]
        self._models = _KIND_MODELS
        self.P = [params[k].reshape(-1, _KIND_MODELS[k].n_params) for k in used]
        self._cbits = cbits
        self._words = words

        # Hot-path caches for random access: python lists avoid numpy scalars.
        self._starts_list = starts.tolist()
        self._widths_list = widths.tolist()
        self._kinds_list = kinds.tolist()
        self._offsets_list = offsets.tolist()
        # Parameter rows come grouped by kind; put them in fragment order.
        rows: list[tuple[float, ...]] = []
        for p in self.P:
            rows += map(tuple, p.tolist())
        grouped = np.empty(m, dtype=np.int64)
        grouped[np.argsort(kinds, kind="stable")] = np.arange(m)
        self._params_cache = list(map(rows.__getitem__, grouped.tolist()))

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
            # The correction's one or two words, read straight off the array.
            o = self._offsets_list[i] + (k - start) * width
            q, r = o >> 6, o & 63
            u = self._words.item(q) >> r
            if r + width > 64:
                u |= self._words.item(q + 1) << (64 - r)
            approx += (u & ((1 << width) - 1)) - (1 << (width - 1))
        return approx - self.shift

    def decompress(self) -> np.ndarray:
        """Algorithm 2: the full original series as an int64 array."""
        from ..kernels import get_backend

        if get_backend() != "python" and self.m > 1:
            return self._decode_span(0, self.m, 0, self.n)
        out = np.empty(self.n, dtype=np.int64)
        for i in range(self.m):
            start = self._starts_list[i]
            end = self._starts_list[i + 1] if i + 1 < self.m else self.n
            self._decode_fragment(i, start, end, out[start:end])
        return out

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        """Values at 0-based positions ``[lo, hi)`` — a random access + scan."""
        from ..kernels import get_backend

        if not 0 <= lo <= hi <= self.n:
            raise IndexError(f"range [{lo}, {hi}) out of bounds for n={self.n}")
        out = np.empty(hi - lo, dtype=np.int64)
        if lo == hi:
            return out
        first = self.fragment_index(lo)
        last = self.fragment_index(hi - 1)
        if get_backend() != "python" and last > first:
            return self._decode_span(first, last + 1, lo, hi)
        for i in range(first, last + 1):
            start = self._starts_list[i]
            end = self._starts_list[i + 1] if i + 1 < self.m else self.n
            a = max(start, lo)
            b = min(end, hi)
            self._decode_fragment(i, a, b, out[a - lo : b - lo])
        return out

    def _decode_span(self, first: int, stop: int, lo: int, hi: int) -> np.ndarray:
        """Positions ``[lo, hi)`` of fragments ``[first, stop)`` in one pass.

        The numpy backend's Algorithm 2: function values come from a single
        :func:`~repro.kernels.segments.evaluate_fragments` call, and
        corrections are unbiased per distinct width with one gather each,
        so the cost does not scale with the fragment count.
        """
        from ..kernels import evaluate_fragments

        bounds = self._starts_list[first : stop + 1]
        if stop == self.m:
            bounds.append(self.n)
        starts = np.asarray(bounds[:-1], dtype=np.int64)
        a = np.maximum(starts, lo)
        b = np.minimum(bounds[1:], hi)
        approx = _floor_i64(
            evaluate_fragments(
                self._models,
                self._kinds_list[first:stop],
                a - lo,
                b - lo,
                self._params_cache[first:stop],
                hi - lo,
                origin=lo,
            )
        )
        widths = np.asarray(self._widths_list[first:stop], dtype=np.int64)
        bit_firsts = np.asarray(self._offsets_list[first:stop], dtype=np.int64)
        bit_firsts += (a - starts) * widths
        lengths = b - a
        # Only the words the span covers: the gather copies its input.
        w0 = int(bit_firsts[0]) >> 6
        words = self._words[w0 : -(-self._offsets_list[stop] // 64)]
        bit_firsts -= w0 * 64
        for w in np.unique(widths).tolist():
            if w == 0:
                continue
            sel = np.nonzero(widths == w)[0]
            ls = lengths[sel]
            within = np.arange(int(ls.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(ls) - ls, ls
            )
            raw = unpack_fields(words, np.repeat(bit_firsts[sel], ls) + within * w, w)
            idx = np.repeat(a[sel] - lo, ls) + within
            approx[idx] += raw.astype(np.int64) - (1 << (w - 1))
        return approx - self.shift

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
            raw = unpack_bits(self._words, width, b - a, offset)
            approx += raw.astype(np.int64) - (1 << (width - 1))
        out[:] = approx - self.shift

    # -- size accounting -------------------------------------------------------

    def size_bits(self) -> int:
        """Size of the ``NeaTS102`` frame, in bits: ``8 * len(to_bytes())``.

        Computed from the header fields and the parameter count, without
        serialising.
        """
        params = sum(p.size for p in self.P)
        words = -(-self._cbits // 64)
        return 8 * (_HEAD + -(-_meta_bits(self.n, self.m) // 8) + 8 * (params + words))

    def size_bytes(self) -> int:
        """Total space in bytes."""
        return self.size_bits() // 8

    # -- serialisation -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise as a ``NeaTS102`` frame (the table in the module docstring)."""
        starts = np.array(self._starts_list, dtype=np.int64)
        bits = np.concatenate(
            [
                encode_bits(starts, self.n),
                to_bits(np.array(self._widths_list, dtype=np.int64), WIDTH_BITS),
                to_bits(np.array(self._kinds_list, dtype=np.int64), KIND_BITS),
            ]
        )
        return b"".join(
            [
                _MAGIC,
                NEATS102_HDR.pack(self.n, self.m, self.shift, self._cbits),
                np.packbits(bits, bitorder="little").tobytes(),
                *(p.tobytes() for p in self.P),
                self._words[: -(-self._cbits // 64)].tobytes(),
            ]
        )

    @classmethod
    def from_bytes(cls, data) -> "NeaTSStorage":
        """Rebuild a storage object from a ``NeaTS102`` or ``NeaTS101`` frame.

        ``data`` may be any byte buffer (``bytes``, ``memoryview``, an mmap
        slice).  The parameter arrays and correction words are adopted
        zero-copy via ``np.frombuffer``, so the buffer must outlive the
        object.  A frame that does not decode to a layout, or whose layout
        fails the checks of :meth:`_adopt`, raises ``ValueError``.
        """
        magic = bytes(data[:8])
        if magic == _MAGIC_V1:
            return cls._from_neats101(data)
        if magic != _MAGIC or len(data) < _HEAD:
            raise ValueError("not a NeaTS byte string")
        n, m, shift, cbits = NEATS102_HDR.unpack_from(data, len(_MAGIC))
        if not 0 <= n < _MAX_N or not 0 <= m <= n or not 0 <= cbits <= 63 * n:
            raise ValueError(
                f"corrupt NeaTS layout: header says {m} fragments, {n} values "
                f"and {cbits} correction bits"
            )
        meta_len = -(-_meta_bits(n, m) // 8)
        if _HEAD + meta_len > len(data):
            raise ValueError(
                f"corrupt NeaTS layout: {m} fragments over {n} values need "
                f"{meta_len} bytes of S, B and K, the frame holds "
                f"{len(data) - _HEAD}"
            )
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, count=meta_len, offset=_HEAD),
            bitorder="little",
        )
        try:
            starts = decode_bits(bits, m, n)
        except ValueError as exc:
            raise ValueError(f"corrupt NeaTS layout: {exc}") from None
        pos = encoded_bits(m, n)
        widths = from_bits(bits[pos:], m, WIDTH_BITS)
        kinds = from_bits(bits[pos + WIDTH_BITS * m :], m, KIND_BITS)
        if (kinds >= len(KIND_TABLE)).any():
            raise ValueError("corrupt NeaTS layout: function kind outside the kind table")
        counts = np.bincount(kinds, minlength=len(KIND_TABLE)) * _KIND_PARAMS
        nparams, nwords = int(counts.sum()), -(-cbits // 64)
        pos = _HEAD + meta_len
        if pos + 8 * (nparams + nwords) != len(data):
            raise ValueError(
                f"corrupt NeaTS layout: K implies {nparams} parameters and the "
                f"header {nwords} correction words, {8 * (nparams + nwords)} "
                f"bytes; the frame holds {len(data) - pos}"
            )
        flat = np.frombuffer(data, dtype=np.float64, count=nparams, offset=pos)
        params = [_NO_PARAMS] * len(KIND_TABLE)
        at = 0
        for k, count in enumerate(counts.tolist()):
            if count:
                params[k] = flat[at : at + count]
                at += count
        words = np.frombuffer(data, dtype=np.uint64, count=nwords, offset=pos + 8 * nparams)
        obj = cls.__new__(cls)
        obj._adopt(n, shift, starts, widths, kinds, params, words, cbits)
        return obj

    @classmethod
    def _from_neats101(cls, data) -> "NeaTSStorage":
        """Read a ``NeaTS101`` frame: its arrays, renamed into the kind table."""
        pos = 8
        n, m, shift, name_len, flag = NEATS_HDR.unpack_from(data, pos)
        pos += NEATS_HDR.size
        # 1 marks a frame of the retired bitvector rank (see NEATS_HDR).
        if flag not in (0, 1):
            raise ValueError(f"corrupt NeaTS layout: unknown flag byte {flag}")
        raw_names, pos = _take(data, pos, np.uint8, name_len)
        names = raw_names.tobytes().decode().split(",") if name_len else []
        if len(set(names)) != len(names) or not set(names) <= _KIND_ID.keys():
            raise ValueError(f"corrupt NeaTS layout: kind directory {names}")
        (m_stored,) = INT64.unpack_from(data, pos)
        if m_stored != m:
            raise ValueError(
                f"corrupt NeaTS layout: header says {m} fragments, the arrays "
                f"hold {m_stored}"
            )
        starts, pos = _take(data, pos + 8, np.int64, m)
        widths, pos = _take(data, pos, np.int8, m)
        kinds, pos = _take(data, pos, np.int8, m)
        if ((kinds < 0) | (kinds >= len(names))).any():
            raise ValueError("corrupt NeaTS layout: function kind without a name")
        table_ids = np.array([_KIND_ID[name] for name in names], dtype=np.int64)
        params = [_NO_PARAMS] * len(KIND_TABLE)
        for name in names:
            (count,) = INT64.unpack_from(data, pos)
            params[_KIND_ID[name]], pos = _take(data, pos + 8, np.float64, count)
        cbits, nwords = INT64_PAIR.unpack_from(data, pos)
        words, _ = _take(data, pos + 16, np.uint64, nwords)
        obj = cls.__new__(cls)
        obj._adopt(
            n,
            shift,
            starts,
            widths.astype(np.int64),
            table_ids[kinds],
            params,
            words,
            cbits,
        )
        return obj
