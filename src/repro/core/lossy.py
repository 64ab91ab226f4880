"""NeaTS-L: the lossy compressor with a maximum-error guarantee (§III-B).

NeaTS-L keeps the optimal partitioning machinery of Algorithm 1 but drops the
corrections: ``E = {ε}`` and the edge weight counts only the storage of the
function parameters, so the shortest path minimises the total space of the
(lossy) piecewise nonlinear ε-approximation.  The output guarantees
``|f(x_k) - y_k| <= ε`` for every point (L∞ bound).

:class:`LossySeries` implements the full
:class:`~repro.baselines.base.LossyCompressed` protocol, so NeaTS-L output is
a peer of every lossless codec: it serialises to a native frame (the fitted
fragments themselves — raw float64 parameters, so a saved archive reproduces
the exact approximation without re-running the partitioner), answers random
access in O(log m), and travels through ``repro.save`` / ``repro.open`` /
``SeriesDB`` like any other compressed series.
"""

from __future__ import annotations

import numpy as np

from ..baselines._native import (
    FLOAT64,
    LOSSY_HDR as _PAYLOAD_HDR,
    pack_name,
    pack_segment,
    unpack_name,
    unpack_segment,
)
from ..baselines.base import LossyCompressed, LossyCompressor, validate_eps
from .models import DEFAULT_MODELS, get_model
from .partition import Fragment, PARAM_BITS, FRAGMENT_OVERHEAD_BITS, partition_lossy

__all__ = ["NeaTSLossy", "LossySeries"]


class LossySeries(LossyCompressed):
    """A lossy piecewise-functional representation of a time series."""

    def __init__(
        self,
        fragments: list[Fragment],
        n: int,
        shift: int,
        eps: float,
    ) -> None:
        self.fragments = fragments
        self._n = int(n)
        self.shift = int(shift)
        self.eps = float(eps)

    def _evaluate_all(self) -> np.ndarray:
        """The raw (unshifted) approximation at every position, float64."""
        from ..kernels import evaluate_fragments, get_backend

        if get_backend() != "python" and len(self.fragments) > 1:
            names: list[str] = []
            kind_of: dict[str, int] = {}
            kinds = []
            for frag in self.fragments:
                if frag.model_name not in kind_of:
                    kind_of[frag.model_name] = len(names)
                    names.append(frag.model_name)
                kinds.append(kind_of[frag.model_name])
            return evaluate_fragments(
                [get_model(name) for name in names],
                kinds,
                [frag.start for frag in self.fragments],
                [frag.end for frag in self.fragments],
                [frag.params for frag in self.fragments],
                self.n,
            )
        out = np.empty(self.n, dtype=np.float64)
        for frag in self.fragments:
            model = get_model(frag.model_name)
            xs = np.arange(frag.start + 1, frag.end + 1, dtype=np.float64)
            out[frag.start : frag.end] = model.evaluate(frag.params, xs)
        return out

    def reconstruct(self) -> np.ndarray:
        """Evaluate the approximation at every position (float64)."""
        return self._evaluate_all() - self.shift

    def reconstruct_int(self) -> np.ndarray:
        """The approximation floored to integers, as NeaTS would decode it."""
        return np.floor(self._evaluate_all()).astype(np.int64) - self.shift

    def access(self, k: int) -> float:
        """The approximated value at 0-based position ``k``."""
        frag = self._segment_at(self.fragments, self._check_position(k))
        model = get_model(frag.model_name)
        return model.evaluate_at(frag.params, k + 1) - self.shift

    def size_bits(self) -> int:
        """Size of the lossy representation: parameters plus metadata."""
        return sum(
            get_model(f.model_name).n_params * PARAM_BITS + FRAGMENT_OVERHEAD_BITS
            for f in self.fragments
        ) + 64 * 2

    @property
    def num_segments(self) -> int:
        """Number of fragments in the partition."""
        return len(self.fragments)

    # -- native frame payload --------------------------------------------------

    def to_payload(self) -> bytes:
        """Native layout: header + per-fragment model name, ε, and parameters."""
        parts = [_PAYLOAD_HDR.pack(self.n, self.shift, self.eps,
                                   len(self.fragments))]
        for frag in self.fragments:
            parts.append(pack_name(frag.model_name))
            parts.append(FLOAT64.pack(frag.eps))
            parts.append(pack_segment(frag.start, frag.end, frag.params))
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload) -> "LossySeries":
        """Rebuild from :meth:`to_payload` output (any byte buffer)."""
        what = "NeaTS-L payload"
        view = payload if isinstance(payload, memoryview) else memoryview(payload)
        if view.nbytes < _PAYLOAD_HDR.size:
            raise ValueError(f"corrupt {what}: truncated header")
        n, shift, eps, n_frags = _PAYLOAD_HDR.unpack_from(view)
        if n < 1:
            raise ValueError(f"corrupt {what}: bad value count {n}")
        pos = _PAYLOAD_HDR.size
        fragments = []
        expected_start = 0
        for _ in range(n_frags):
            name, pos = unpack_name(view, pos, what)
            get_model(name)  # unknown model kinds fail here, loudly
            if pos + 8 > view.nbytes:
                raise ValueError(f"corrupt {what}: truncated fragment bound")
            (frag_eps,) = FLOAT64.unpack_from(view, pos)
            (start, end, params), pos = unpack_segment(view, pos + 8, what)
            if start != expected_start or end > n:
                raise ValueError(
                    f"corrupt {what}: fragments do not tile [0, {n})"
                )
            expected_start = end
            fragments.append(Fragment(start, end, name, frag_eps, params))
        if expected_start != n or pos != view.nbytes:
            raise ValueError(f"corrupt {what}: fragments do not tile [0, {n})")
        return cls(fragments, n, shift, eps)


class NeaTSLossy(LossyCompressor):
    """Lossy error-bounded compressor using nonlinear functional approximations.

    Parameters
    ----------
    eps:
        The L∞ error bound (in original value units); positive and finite.
    models:
        The function set ``F``; defaults to the paper's four kinds.
    """

    name = "NeaTS-L"
    native_random_access = True

    def __init__(
        self, eps: float, models: tuple[str, ...] | list[str] = DEFAULT_MODELS
    ) -> None:
        self.eps = validate_eps(eps)
        self.models = list(models)
        for name in self.models:
            get_model(name)

    def compress(self, values: np.ndarray) -> LossySeries:
        """Build the minimum-space lossy ε-representation of ``values``."""
        y = self._check_input(values)
        shift = int(1 + np.ceil(self.eps) - int(y.min()))
        z = y.astype(np.float64) + shift
        result = partition_lossy(z, list(self.models), self.eps)
        return LossySeries(result.fragments, len(y), shift, self.eps)
