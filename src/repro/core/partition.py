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

Edges are enumerated from each ``(f, ε)`` pair's *greedy chain*: the
fragments the pair opens from node 0, each as long as MAKE-APPROXIMATION
allows and each starting where the previous one ends.  A chain does not
depend on the distances, so the chains are built one pair at a time: the
pair's transform lives only while its chain is walked, and only the chain's
ends are kept.  The relaxation then holds, for every pair, the extent of the
single fragment overlapping the node being relaxed, as in the paper.  Memory
is O(n) transient per pair plus the chain ends, one int64 per fragment of
every chain (the paper's O(n + |F||E|) fits each pair's fragment when the
relaxation reaches it, which needs every transform at once); time is
O(|F| |E| n).  Parameters are fitted again only for the fragments of the
shortest path, one pair's transform at a time.

The same routine with ``E = {ε}`` and a weight of ``κ_f`` alone yields the
lossy partitioner of NeaTS-L (§III-B, "Partitioning for lossy compression").
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .convex import RangeLineFitter
from .models import Model, get_model, make_approximation
from .transforms import precompute_transform, two_point_starts

__all__ = [
    "Fragment",
    "PartitionResult",
    "correction_bits",
    "partition",
    "partition_lossy",
]

#: bits charged per stored function parameter (float64)
PARAM_BITS = 64
#: estimated per-fragment metadata bits: the S/B/O/K entries of the succinct
#: layout that ``NeaTSStorage.size_bits()`` counts, plus their share of its
#: rank/select directories
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
    # per-point correction bits and κ_f, and the ends of its greedy chain.
    pairs: list[tuple[Model, float]] = []
    cbits: list[int] = []
    kappa: list[int] = []
    for model in resolved:
        kap = _model_cost_bits(model)
        for eps in eps_set:
            pairs.append((model, eps))
            cbits.append(0 if lossy else correction_bits(eps))
            kappa.append(kap)
    n_pairs = len(pairs)

    # One fitter serves every pair: a fragment is fitted to its end before
    # the next one starts, and only its extent is kept.  Pair p's current
    # fragment is [starts[p], ends[p]); it takes the next end of its chain
    # when it opens a new one.
    fitter = RangeLineFitter()
    next_end = [iter(_chain(model, eps, z, fitter)).__next__ for model, eps in pairs]
    starts = [0] * n_pairs
    ends = [0] * n_pairs
    INF = float("inf")
    distance = [INF] * (n + 1)
    distance[0] = 0.0
    # The back-pointer of node v is edge [prev_u[v], v) of the fragment of
    # pair prev_p[v] that starts at prev_s[v]; -1 marks a node never reached.
    # Three int64 columns take 24 B a node; a tuple took 64 B plus its ints.
    prev_u = array("q", [-1]) * (n + 1)
    prev_p = array("q", [-1]) * (n + 1)
    prev_s = array("q", [-1]) * (n + 1)

    for k in range(n):
        dk = distance[k]
        for p in range(n_pairs):
            if ends[p] <= k:
                # A new edge must be opened at k (line 10 of Algorithm 1).
                ends[p] = next_end[p]()
                starts[p] = k
            else:
                # Relax the prefix edge (starts[p], k) — lines 12-15.
                i = starts[p]
                cand = distance[i] + ((k - i) * cbits[p] + kappa[p])
                if cand < dk:
                    distance[k] = dk = cand
                    prev_u[k], prev_p[k], prev_s[k] = i, p, i
        # Relax suffix edges (k, ends[p]) — lines 16-20.
        for p in range(n_pairs):
            j = ends[p]
            cand = dk + ((j - k) * cbits[p] + kappa[p])
            if cand < distance[j]:
                distance[j] = cand
                prev_u[j], prev_p[j], prev_s[j] = k, p, starts[p]

    # Read the shortest path backwards (lines 21-26).
    path: list[tuple[int, int, int, int]] = []
    v = n
    while v > 0:
        u = prev_u[v]
        if u < 0:  # pragma: no cover - the DAG is always connected
            raise RuntimeError(f"no path reaches node {v}")
        path.append((u, v, prev_p[v], prev_s[v]))
        v = u
    del prev_u, prev_p, prev_s
    path.reverse()

    # Fit the path's fragments again from their starts for their parameters,
    # one pair's transform at a time; the fit is deterministic, so they come
    # out as in the chains.
    by_pair: dict[int, list[int]] = {}
    for at, (_, _, p, _) in enumerate(path):
        by_pair.setdefault(p, []).append(at)
    params: list[tuple[float, ...]] = [()] * len(path)
    for p, ats in by_pair.items():
        model, eps = pairs[p]
        pre = precompute_transform(model, eps, z)
        if pre is None:
            for at in ats:
                params[at] = make_approximation(z, path[at][3], model, eps).params
            continue
        t, lo, hi = pre.t.tolist(), pre.lo.tolist(), pre.hi.tolist()
        del pre
        for at in ats:
            fitter.reset()
            fitter.extend(t, lo, hi, path[at][3], n)
            params[at] = model.params_from_line(*fitter.line())
    fragments = [
        Fragment(u, v, pairs[p][0].name, pairs[p][1], params[at])
        for at, (u, v, p, _) in enumerate(path)
    ]
    return PartitionResult(fragments, distance[n])


def _chain(
    model: Model, eps: float, z: np.ndarray, fitter: RangeLineFitter
) -> array[int]:
    """The ends of the greedy chain of ``(model, eps)`` over ``z``.

    The chain starts a fragment at 0 and each next one where the previous
    ends, every fragment as long as MAKE-APPROXIMATION allows: these are the
    fragments Algorithm 1 opens for the pair.  The pair's transform lives
    only for this call.
    """
    n = len(z)
    chain = array("q")
    append = chain.append
    pre = precompute_transform(model, eps, z)
    if pre is None:
        k = 0
        while k < n:
            k = make_approximation(z, k, model, eps).end
            append(k)
        return chain
    two = two_point_starts(pre).tolist()
    t, lo, hi = pre.t.tolist(), pre.lo.tolist(), pre.hi.tolist()
    del pre
    reset, extend = fitter.reset, fitter.extend
    k = 0
    while k < n:
        if two[k]:
            k += 2
        else:
            reset()
            end = extend(t, lo, hi, k, n)
            if end == k:  # first point rejected: cannot happen post-shift
                raise RuntimeError(f"model {model.name!r} cannot start at index {k}")
            k = end
        append(k)
    return chain


def partition_lossy(
    z: np.ndarray, models: list[Model | str], eps: float
) -> PartitionResult:
    """The lossy variant: a single ε, weight = parameter storage only.

    Runs in O(|F| n) and minimises the space of the functions alone, since
    the corrections are discarded (§III-B).
    """
    return partition(z, models, [eps], lossy=True)
