"""Optimal Piecewise Linear Approximation (O'Rourke 1981) — lossy baseline.

This is the classic minimum-segment PLA under an L∞ bound: the exact
algorithm the paper uses as its linear lossy baseline (§IV-B) and the
starting point NeaTS generalises.  It reuses the same
:class:`~repro.core.convex.RangeLineFitter` engine with the identity
transform, so optimality (fewest segments) is inherited from Theorem 1.

:class:`PlaSeries` implements the
:class:`~repro.baselines.base.LossyCompressed` protocol: random access by
binary search over segment starts, and a native frame payload holding the
fitted segments (raw float64 slopes/intercepts), so a persisted PLA archive
reproduces the exact approximation without re-fitting.
"""

from __future__ import annotations

import numpy as np

from ..core.models import FragmentFit, get_model
from ..core.partition import FRAGMENT_OVERHEAD_BITS, PARAM_BITS
from ..core.piecewise import piecewise_approximation
from ._native import LOSSY_HDR as _PAYLOAD_HDR, pack_segment, unpack_segment
from .base import LossyCompressed, LossyCompressor

__all__ = ["PlaCompressor", "PlaSeries"]


class PlaSeries(LossyCompressed):
    """A piecewise linear ε-approximation with the minimum number of segments."""

    def __init__(
        self,
        segments: list,  # list of FragmentFit
        n: int,
        shift: int,
        eps: float,
    ) -> None:
        self.segments = segments
        self._n = int(n)
        self.shift = int(shift)
        self.eps = float(eps)

    def reconstruct(self) -> np.ndarray:
        """Evaluate the approximation at every position (float64)."""
        model = get_model("linear")
        out = np.empty(self.n, dtype=np.float64)
        for seg in self.segments:
            xs = np.arange(seg.start + 1, seg.end + 1, dtype=np.float64)
            out[seg.start : seg.end] = model.evaluate(seg.params, xs)
        return out - self.shift

    def access(self, k: int) -> float:
        """The approximated value at 0-based position ``k``."""
        seg = self._segment_at(self.segments, self._check_position(k))
        return get_model("linear").evaluate_at(seg.params, k + 1) - self.shift

    def size_bits(self) -> int:
        """Two float64 parameters plus metadata per segment."""
        return len(self.segments) * (2 * PARAM_BITS + FRAGMENT_OVERHEAD_BITS) + 64 * 2

    @property
    def num_segments(self) -> int:
        """Number of linear pieces."""
        return len(self.segments)

    # -- native frame payload --------------------------------------------------

    def to_payload(self) -> bytes:
        """Native layout: header + one ``(start, end, params)`` per segment."""
        parts = [_PAYLOAD_HDR.pack(self.n, self.shift, self.eps,
                                   len(self.segments))]
        parts.extend(
            pack_segment(seg.start, seg.end, seg.params) for seg in self.segments
        )
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload) -> "PlaSeries":
        """Rebuild from :meth:`to_payload` output (any byte buffer)."""
        what = "PLA payload"
        view = payload if isinstance(payload, memoryview) else memoryview(payload)
        if view.nbytes < _PAYLOAD_HDR.size:
            raise ValueError(f"corrupt {what}: truncated header")
        n, shift, eps, n_segs = _PAYLOAD_HDR.unpack_from(view)
        if n < 1:
            raise ValueError(f"corrupt {what}: bad value count {n}")
        pos = _PAYLOAD_HDR.size
        segments = []
        expected_start = 0
        for _ in range(n_segs):
            (start, end, params), pos = unpack_segment(view, pos, what)
            if len(params) != 2:
                raise ValueError(
                    f"corrupt {what}: linear segment with {len(params)} params"
                )
            if start != expected_start or end > n:
                raise ValueError(f"corrupt {what}: segments do not tile [0, {n})")
            expected_start = end
            segments.append(FragmentFit(start, end, params))
        if expected_start != n or pos != view.nbytes:
            raise ValueError(f"corrupt {what}: segments do not tile [0, {n})")
        return cls(segments, n, shift, eps)


class PlaCompressor(LossyCompressor):
    """Minimum-segment PLA under an L∞ error bound ``eps``."""

    name = "PLA"

    def compress(self, values: np.ndarray) -> PlaSeries:
        """Build the optimal PLA of an integer series."""
        y = self._check_input(values)
        shift = 0  # linear fitting needs no positivity
        z = y.astype(np.float64)
        segments = piecewise_approximation(z, "linear", self.eps)
        return PlaSeries(segments, len(y), shift, self.eps)
