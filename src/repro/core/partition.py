"""Algorithm 1: space-optimal partitioning of a time series.

Given a set ``F`` of function kinds and a set ``E`` of error bounds, the
partitioner builds (implicitly) the fragment DAG of the paper — one node per
data point plus a sink, one edge ``(i, j)`` per ε-approximable fragment
``T[i, j-1]`` together with all its prefix and suffix edges — and finds the
shortest path from node 1 to node ``n+1`` under the bit-cost weight

    ``w(i, j) = (j - i) * ceil(log2(2ε + 1)) + κ_f``

(the corrections plus the function storage).  The weight *estimates* the size
of the NeaTS encoding of the fragment: κ_f charges the float parameters plus a
constant :data:`FRAGMENT_OVERHEAD_BITS` for the fragment's metadata, so the
optimal ``cost_bits`` is not ``NeaTSStorage.size_bits()``.  On the 16 bundled
generators at 4096 values the two differ by -775 to +1242 bits per series.

Edges are enumerated *on the fly*: for every ``(f, ε)`` pair we keep only the
extent of the single fragment overlapping the node being relaxed, as in the
paper, which brings the memory down to O(n + |F||E|) and the time to
O(|F| |E| n).  Parameters are fitted again only for the fragments of the
shortest path.

The same routine with ``E = {ε}`` and a weight of ``κ_f`` alone yields the
lossy partitioner of NeaTS-L (§III-B, "Partitioning for lossy compression").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import RangeLineFitter
from .models import Model, get_model, make_approximation
from .transforms import PairTransform, precompute_transform

__all__ = [
    "Fragment",
    "PartitionResult",
    "correction_bits",
    "partition",
    "partition_lossy",
]

#: bits charged per stored function parameter (float64)
PARAM_BITS = 64
#: estimated per-fragment metadata bits: S/B/O/K entries plus their share of
#: the rank/select directories (measured on the actual layout, see DESIGN.md)
FRAGMENT_OVERHEAD_BITS = 96


@dataclass(frozen=True)
class Fragment:
    """One fragment of the final partition: ``[start, end)`` 0-based."""

    start: int
    end: int
    model_name: str
    eps: float
    params: tuple[float, ...]

    @property
    def length(self) -> int:
        """Number of data points covered."""
        return self.end - self.start


@dataclass(frozen=True)
class PartitionResult:
    """The output of Algorithm 1 plus the optimal objective value."""

    fragments: list[Fragment]
    cost_bits: float


def correction_bits(eps: float) -> int:
    """``ceil(log2(2ε + 1))`` — bits per correction for error bound ε."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return math.ceil(math.log2(2 * eps + 1)) if eps > 0 else 0


def _model_cost_bits(model: Model) -> int:
    """κ_f: storage of the parameters plus per-fragment metadata."""
    return model.n_params * PARAM_BITS + FRAGMENT_OVERHEAD_BITS


def partition(
    z: np.ndarray,
    models: list[Model | str],
    eps_set: list[float],
    lossy: bool = False,
) -> PartitionResult:
    """Run Algorithm 1 on the shifted values ``z``.

    Parameters
    ----------
    z:
        Shifted positive values (see :mod:`repro.core.models` conventions).
    models:
        The set ``F`` of function kinds.
    eps_set:
        The set ``E`` of error bounds.
    lossy:
        When true, corrections are dropped from the weight (NeaTS-L mode):
        the objective counts only the function parameters.

    Returns
    -------
    :class:`PartitionResult`
        The fragments of the optimal partition, in order, and the achieved
        total bit cost.
    """
    n = len(z)
    if n == 0:
        return PartitionResult([], 0.0)
    resolved = [get_model(m) if isinstance(m, str) else m for m in models]
    if not resolved:
        raise ValueError("need at least one model kind")
    if not eps_set:
        raise ValueError("need at least one error bound")

    # Per-pair state in flat lists, indexed by pair: the (f, ε) pair, its
    # precomputed transform (None for anchored kinds), its per-point
    # correction bits and κ_f, and the current fragment [starts, ends).
    pairs: list[tuple[Model, float]] = []
    cached: list[PairTransform | None] = []
    cbits: list[int] = []
    kappa: list[int] = []
    for model in resolved:
        kap = _model_cost_bits(model)
        for eps in eps_set:
            pairs.append((model, eps))
            cached.append(precompute_transform(model, eps, z))
            cbits.append(0 if lossy else correction_bits(eps))
            kappa.append(kap)
    n_pairs = len(pairs)
    starts = [0] * n_pairs
    ends = [0] * n_pairs  # ends[p] <= k: pair p opens a new fragment at k

    # One fitter serves every pair: a fragment is fitted to its end before
    # the next one starts, and only its extent is kept.  The few fragments
    # on the shortest path are fitted again from their start for their
    # parameters; the fit is deterministic, so they come out the same.
    fitter = RangeLineFitter()
    reset, extend = fitter.reset, fitter.extend

    def longest(p: int, k: int) -> tuple[int, tuple[float, ...] | None]:
        """MAKE-APPROXIMATION for pair ``p`` from ``k``: its end (and params)."""
        pre = cached[p]
        if pre is None:
            model, eps = pairs[p]
            fit = make_approximation(z, k, model, eps)
            return fit.end, fit.params
        reset()
        end = extend(pre.t, pre.lo, pre.hi, k, n)
        if end == k:  # first point rejected: cannot happen post-shift
            raise RuntimeError(
                f"model {pairs[p][0].name!r} cannot start at index {k}"
            )
        return end, None

    INF = float("inf")
    distance = [INF] * (n + 1)
    distance[0] = 0.0
    # previous[v] = (u, p, s): edge [u, v) of the fragment of pair p that
    # starts at s.
    previous: list[tuple[int, int, int] | None] = [None] * (n + 1)

    for k in range(n):
        dk = distance[k]
        for p in range(n_pairs):
            if ends[p] <= k:
                # A new edge must be opened at k (line 10 of Algorithm 1).
                ends[p] = longest(p, k)[0]
                starts[p] = k
            else:
                # Relax the prefix edge (starts[p], k) — lines 12-15.
                i = starts[p]
                cand = distance[i] + ((k - i) * cbits[p] + kappa[p])
                if cand < dk:
                    distance[k] = dk = cand
                    previous[k] = (i, p, i)
        # Relax suffix edges (k, ends[p]) — lines 16-20.
        for p in range(n_pairs):
            j = ends[p]
            cand = dk + ((j - k) * cbits[p] + kappa[p])
            if cand < distance[j]:
                distance[j] = cand
                previous[j] = (k, p, starts[p])

    # Read the shortest path backwards (lines 21-26).
    fragments: list[Fragment] = []
    v = n
    while v > 0:
        entry = previous[v]
        if entry is None:  # pragma: no cover - the DAG is always connected
            raise RuntimeError(f"no path reaches node {v}")
        u, p, s = entry
        _, params = longest(p, s)
        model, eps = pairs[p]
        if params is None:
            params = model.params_from_line(*fitter.line())
        fragments.append(Fragment(u, v, model.name, eps, params))
        v = u
    fragments.reverse()
    return PartitionResult(fragments, distance[n])


def partition_lossy(
    z: np.ndarray, models: list[Model | str], eps: float
) -> PartitionResult:
    """The lossy variant: a single ε, weight = parameter storage only.

    Runs in O(|F| n) and minimises the space of the functions alone, since
    the corrections are discarded (§III-B).
    """
    return partition(z, models, [eps], lossy=True)
