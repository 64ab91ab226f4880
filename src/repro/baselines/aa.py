"""Adaptive Approximation (Xu et al., EDBT 2012; Qi et al., WWW 2015).

The AA algorithm is the nonlinear lossy baseline of the paper (§IV-B).  It
greedily grows a fragment while *any* of its candidate families — linear,
quadratic, exponential, each anchored through the fragment's first data point
with a single free parameter — still admits an ε-feasible parameter, and cuts
the fragment when all of them fail.  Anchoring makes each family's feasible
set a simple interval (intersected point by point), which is what makes AA
fast but sub-optimal:

* the anchor constraint wastes a degree of freedom (more fragments than the
  optimal partition), and
* the greedy cut is not globally optimal.

Both weaknesses are visible in Table II, where AA loses to PLA on nearly all
datasets despite using nonlinear functions — and that is precisely the gap
NeaTS-L closes.  The anchor also makes many residuals exactly zero, which is
why AA's MAPE is slightly *better* than NeaTS-L's (§IV-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.partition import FRAGMENT_OVERHEAD_BITS, PARAM_BITS
from ._native import (
    AA_HDR as _PAYLOAD_HDR,
    pack_name,
    pack_segment,
    unpack_name,
    unpack_segment,
)
from .base import LossyCompressed, LossyCompressor

__all__ = ["AaCompressor", "AaSeries", "AaSegment"]

_FAMILIES = ("linear", "quadratic", "exponential")


@dataclass(frozen=True)
class AaSegment:
    """One AA fragment: family, anchor point, single free parameter."""

    start: int
    end: int
    family: str
    anchor: float
    theta: float

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """The anchored family evaluated at absolute positions ``xs``."""
        dx = xs - (self.start + 1)
        if self.family == "linear":
            return self.anchor + self.theta * dx
        if self.family == "quadratic":
            return self.anchor + self.theta * dx * dx
        if self.family == "exponential":
            return self.anchor * np.exp(np.minimum(self.theta * dx, 700.0))
        raise ValueError(f"unknown family {self.family!r}")


class _Interval:
    """A running intersection of feasible parameter intervals."""

    __slots__ = ("lo", "hi")

    def __init__(self) -> None:
        self.lo = -math.inf
        self.hi = math.inf

    def clip(self, lo: float, hi: float) -> bool:
        """Intersect with [lo, hi]; returns False when empty."""
        self.lo = max(self.lo, lo)
        self.hi = min(self.hi, hi)
        return self.lo <= self.hi

    def mid(self) -> float:
        if self.lo == -math.inf and self.hi == math.inf:
            return 0.0
        if self.lo == -math.inf:
            return self.hi
        if self.hi == math.inf:
            return self.lo
        return (self.lo + self.hi) / 2.0


def _family_bounds(
    family: str, anchor: float, dx: float, z: float, eps: float
) -> tuple[float, float] | None:
    """Feasible θ interval contributed by one point, or None if impossible."""
    if family == "linear":
        return (z - anchor - eps) / dx, (z - anchor + eps) / dx
    if family == "quadratic":
        d2 = dx * dx
        return (z - anchor - eps) / d2, (z - anchor + eps) / d2
    if family == "exponential":
        if anchor <= 0 or z - eps <= 0:
            return None
        return (
            math.log((z - eps) / anchor) / dx,
            math.log((z + eps) / anchor) / dx,
        )
    raise ValueError(family)


class AaSeries(LossyCompressed):
    """The AA representation: a list of anchored one-parameter segments."""

    def __init__(
        self,
        segments: list[AaSegment],
        n: int,
        eps: float,
    ) -> None:
        self.segments = segments
        self._n = int(n)
        self.eps = float(eps)

    def reconstruct(self) -> np.ndarray:
        """Evaluate the approximation at every position."""
        out = np.empty(self.n, dtype=np.float64)
        for seg in self.segments:
            xs = np.arange(seg.start + 1, seg.end + 1, dtype=np.float64)
            out[seg.start : seg.end] = seg.evaluate(xs)
        return out

    def access(self, k: int) -> float:
        """The approximated value at 0-based position ``k``."""
        seg = self._segment_at(self.segments, self._check_position(k))
        return float(seg.evaluate(np.array([k + 1], dtype=np.float64))[0])

    def size_bits(self) -> int:
        """Anchor + θ (two float64) plus metadata per segment."""
        return len(self.segments) * (2 * PARAM_BITS + FRAGMENT_OVERHEAD_BITS) + 64 * 2

    @property
    def num_segments(self) -> int:
        """Number of fragments."""
        return len(self.segments)

    # -- native frame payload --------------------------------------------------

    def to_payload(self) -> bytes:
        """Native layout: header + per-segment family, anchor, and θ."""
        parts = [_PAYLOAD_HDR.pack(self.n, self.eps, len(self.segments))]
        for seg in self.segments:
            parts.append(pack_name(seg.family))
            parts.append(pack_segment(seg.start, seg.end, (seg.anchor, seg.theta)))
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload) -> "AaSeries":
        """Rebuild from :meth:`to_payload` output (any byte buffer)."""
        what = "AA payload"
        view = payload if isinstance(payload, memoryview) else memoryview(payload)
        if view.nbytes < _PAYLOAD_HDR.size:
            raise ValueError(f"corrupt {what}: truncated header")
        n, eps, n_segs = _PAYLOAD_HDR.unpack_from(view)
        if n < 1:
            raise ValueError(f"corrupt {what}: bad value count {n}")
        pos = _PAYLOAD_HDR.size
        segments = []
        expected_start = 0
        for _ in range(n_segs):
            family, pos = unpack_name(view, pos, what)
            if family not in _FAMILIES:
                raise ValueError(f"corrupt {what}: unknown family {family!r}")
            (start, end, params), pos = unpack_segment(view, pos, what)
            if start != expected_start or end > n or len(params) != 2:
                raise ValueError(f"corrupt {what}: segments do not tile [0, {n})")
            expected_start = end
            segments.append(AaSegment(start, end, family, params[0], params[1]))
        if expected_start != n or pos != view.nbytes:
            raise ValueError(f"corrupt {what}: segments do not tile [0, {n})")
        return cls(segments, n, eps)


class AaCompressor(LossyCompressor):
    """The Adaptive Approximation heuristic under an L∞ bound ``eps``."""

    name = "AA"

    def compress(self, values: np.ndarray) -> AaSeries:
        """Greedy adaptive segmentation of an integer series."""
        y = self._check_input(values).astype(np.float64)
        n = len(y)
        eps = self.eps
        segments: list[AaSegment] = []
        start = 0
        while start < n:
            anchor = y[start]
            intervals = {fam: _Interval() for fam in _FAMILIES}
            alive = set(_FAMILIES)
            last_params: dict[str, float] = {fam: 0.0 for fam in _FAMILIES}
            last_alive_order: list[str] = list(_FAMILIES)
            k = start + 1
            while k < n and alive:
                dx = float(k - start)
                survivors = set()
                for fam in alive:
                    bounds = _family_bounds(fam, anchor, dx, y[k], eps)
                    if bounds is not None and intervals[fam].clip(*bounds):
                        survivors.add(fam)
                        last_params[fam] = intervals[fam].mid()
                if not survivors:
                    break
                alive = survivors
                last_alive_order = [f for f in _FAMILIES if f in alive]
                k += 1
            family = last_alive_order[0]
            theta = last_params[family] if k > start + 1 else 0.0
            segments.append(AaSegment(start, k, family, anchor, theta))
            start = k
        return AaSeries(segments, n, eps)
