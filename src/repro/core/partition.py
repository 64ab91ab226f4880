"""Algorithm 1: space-optimal partitioning of a time series.

Given a set ``F`` of function kinds and a set ``E`` of error bounds, the
partitioner builds (implicitly) the fragment DAG of the paper — one node per
data point plus a sink, one edge ``(i, j)`` per ε-approximable fragment
``T[i, j-1]`` together with all its prefix and suffix edges — and finds the
shortest path from node 1 to node ``n+1`` under the bit-cost weight

    ``w(i, j) = (j - i) * ceil(log2(2ε + 1)) + κ_f``

(the corrections plus the function storage).  κ_f charges the float
parameters plus what the fragment adds to the ``NeaTS102`` frame: its 6-bit
width, its 4-bit kind id and :data:`START_BITS` for its Elias-Fano start.  The
frame's size is then the optimal ``cost_bits`` plus a 320-bit header, the
bits of fragments widened past their ε (see ``core/storage.py``), the start
estimate's error ``S - START_BITS·m`` and under 71 bits of byte and word
rounding: ``size_bits() - cost_bits`` is 126 to 732 bits per series on the 16
bundled generators at 4096 values (widening 0 to 401 of it, the start
estimate -216 to +7, rounding 2 to 64).  The lossy partitioner keeps a flat
:data:`FRAGMENT_OVERHEAD_BITS` per fragment.

Edges are enumerated from each ``(f, ε)`` pair's *greedy chain*: the
fragments the pair opens from node 0, each as long as MAKE-APPROXIMATION
allows and each starting where the previous one ends.  A chain does not
depend on the distances, so every chain is built before the relaxation and
only its ends are kept.  A chain is one walk,
:meth:`~repro.core.convex.RangeLineFitter.chain`: the loop that is also
``extend`` starts the next fragment in place at the range that rejected the
previous one, and skips the starts whose fragment is known to be two points
long (:func:`~repro.core.transforms.two_point_starts`).  The walks run one ε
at a time, and each transform array becomes a Python list once: a kind's
abscissae once per series, the bounds once per ε for all the kinds that
share them (linear, logarithmic, radical and quadratic share ``z ∓ ε``,
exponential and power their logarithms).

The relaxation leaves out every pair whose chain, width and κ equal an
earlier pair's (220 of the 1,024 pairs of the perfbench archive fleet of
seed 1).  That is exact: such a pair's edges and weights are the earlier
pair's, whose candidates are relaxed first, and under the strict ``<`` an
equal candidate never wins, so no distance or back-pointer moves.  Each
node k then gets one pass over the remaining pairs, in pair order: it
relaxes the suffix edges out of k (lines 16-20 of Algorithm 1) and keeps
the best prefix edge into k + 1 (lines 12-15), which it offers to k + 1
after the pass.  Node k's distance is final when its pass starts, and ties
go as in the paper's two passes: a suffix edge into k + 1 before any prefix
edge into it, and the lowest pair first within each kind.

Memory is O(n) transient plus the chain ends, one int64 per fragment of
every chain.  The transient part is the abscissa lists, at most four
whatever ``F`` holds (x, ln x, √x, x²), and the current ε's bound lists, at
most four pairs: ``repro compress`` of 65,536 CT values with the default
kinds peaks at 65 MiB RSS (62 MiB holding one pair's lists at a time).  The
paper's O(n + |F||E|) fits each pair's fragment when the relaxation reaches
it, which needs every transform at once.  Time is O(|F| |E| n).  Parameters
are fitted again only for the fragments of the shortest path, one pair's
transform at a time.

The same routine with ``E = {ε}`` and a weight of ``κ_f`` alone yields the
lossy partitioner of NeaTS-L (§III-B, "Partitioning for lossy compression").
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any

import numpy as np

from .convex import RangeLineFitter
from .models import Model, get_model, make_approximation
from .transforms import (
    PairTransform,
    abscissae,
    bounds,
    precompute_transform,
    transform_names,
    two_point_starts,
)

__all__ = [
    "Fragment",
    "PartitionResult",
    "correction_bits",
    "partition",
    "partition_lossy",
]

#: bits charged per stored function parameter (float64)
PARAM_BITS = 64
#: per-fragment metadata bits the lossy codecs (NeaTS-L, PLA, AA) charge
FRAGMENT_OVERHEAD_BITS = 96
#: bits of a fragment's correction width in the frame's ``B``
WIDTH_BITS = 6
#: bits of a fragment's kind id in the frame's ``K`` (ids index
#: ``storage.KIND_TABLE``)
KIND_BITS = 4
#: Algorithm 1's charge for a fragment's start in the Elias-Fano ``S``.  The
#: ``m`` starts of a series of ``n`` values cost about ``m·(l + 1) + n >> l``
#: bits with ``l = floor(log2(n/m))``, which no single edge's weight can
#: know; 10 is that cost for fragments of ~256 values.  Charges from 8 to 16
#: moved the total frame bytes of the perfbench archive fleets (seeds 1-3,
#: 4,096 values) by under 10 of 288,374.
START_BITS = 10
#: per-fragment metadata bits of a lossless frame: its ``B``, ``K`` and ``S``
#: entries
LAYOUT_FRAGMENT_BITS = WIDTH_BITS + KIND_BITS + START_BITS


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


def _model_cost_bits(model: Model, lossy: bool) -> int:
    """κ_f: storage of the parameters plus per-fragment metadata."""
    overhead = FRAGMENT_OVERHEAD_BITS if lossy else LAYOUT_FRAGMENT_BITS
    return model.n_params * PARAM_BITS + overhead


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

    # Per-pair state in flat lists, indexed model-major by pair: the (f, ε)
    # pair, its per-point correction bits and κ_f.  The order breaks ties.
    pairs: list[tuple[Model, float]] = []
    cbits: list[int] = []
    kappa: list[int] = []
    for model in resolved:
        kap = _model_cost_bits(model, lossy)
        for eps in eps_set:
            pairs.append((model, eps))
            cbits.append(0 if lossy else correction_bits(eps))
            kappa.append(kap)

    fitter = RangeLineFitter()
    chains = _chains(z, resolved, eps_set, fitter)
    path, cost = _shortest_path(n, chains, cbits, kappa)
    del chains

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
    return PartitionResult(fragments, cost)


def _shortest_path(
    n: int, chains: list[array[int]], cbits: list[int], kappa: list[int]
) -> tuple[list[tuple[int, int, int, int]], float]:
    """The shortest path from node 0 to node ``n`` and its cost (lines 7-26).

    Pair p's fragments are its chain's: ``[0, chains[p][0])`` and each next
    one from the previous end; an edge costs ``(j - i) * cbits[p] +
    kappa[p]``.  Each step of the path is ``(u, v, p, s)``: the edge
    ``[u, v)`` of the pair-p fragment that starts at ``s``.  Ties go to the
    candidate Algorithm 1 relaxes first.
    """
    # A pair whose chain, width and κ equal an earlier pair's offers exactly
    # the earlier pair's candidates, which it relaxes first: under the
    # strict ``<`` a copy never wins, so it is left out.
    live: list[int] = []
    for p, chain in enumerate(chains):
        if not any(
            cbits[q] == cbits[p] and kappa[q] == kappa[p] and chains[q] == chain
            for q in live
        ):
            live.append(p)
    INF = float("inf")
    distance = [INF] * (n + 1)
    distance[0] = 0.0
    # The back-pointer of node v is edge [prev_u[v], v) of the fragment of
    # pair prev_p[v] that starts at prev_s[v]; -1 marks a node never reached.
    # Three int64 columns take 24 B a node; a tuple took 64 B plus its ints.
    prev_u = array("q", [-1]) * (n + 1)
    prev_p = array("q", [-1]) * (n + 1)
    prev_s = array("q", [-1]) * (n + 1)
    # One list per live pair: the end and start of its current fragment, its
    # width and κ, the next end of its chain, and its pair index.
    state: list[list[Any]] = [
        [0, 0, cbits[p], kappa[p], iter(chains[p]).__next__, p] for p in live
    ]

    # One pass per node k, whose distance is final when the pass starts: it
    # relaxes the suffix edges (k, end) — lines 16-20 of Algorithm 1 — and
    # finds the best prefix edge (start, k + 1) — lines 12-15 — which it
    # offers to k + 1 only after the pass, so that on a tie the suffix edges
    # into k + 1 still win, and among either kind the lowest pair.
    for k in range(n):
        dk = distance[k]
        k1 = k + 1
        best = INF
        best_st = state[0]  # read only once best is finite
        for st in state:
            j, i, c, kap, next_end, p = st
            if j <= k:
                # A new edge must be opened at k (line 10).
                st[0] = j = next_end()
                st[1] = i = k
            cand = dk + ((j - k) * c + kap)
            if cand < distance[j]:
                distance[j] = cand
                prev_u[j], prev_p[j], prev_s[j] = k, p, i
            if j > k1:
                cand = distance[i] + ((k1 - i) * c + kap)
                if cand < best:
                    best, best_st = cand, st
        if best < distance[k1]:
            distance[k1] = best
            i = best_st[1]
            prev_u[k1], prev_p[k1], prev_s[k1] = i, best_st[5], i

    # Read the shortest path backwards (lines 21-26).
    path: list[tuple[int, int, int, int]] = []
    v = n
    while v > 0:
        u = prev_u[v]
        if u < 0:  # pragma: no cover - the DAG is always connected
            raise RuntimeError(f"no path reaches node {v}")
        path.append((u, v, prev_p[v], prev_s[v]))
        v = u
    path.reverse()
    return path, distance[n]


def _chains(
    z: np.ndarray,
    models: list[Model],
    eps_set: list[float],
    fitter: RangeLineFitter,
) -> list[array[int]]:
    """The ends of every pair's greedy chain over ``z``, model-major.

    A chain starts a fragment at 0 and each next one where the previous
    ends, every fragment as long as MAKE-APPROXIMATION allows: these are the
    fragments Algorithm 1 opens for the pair.  The walks run one ε at a
    time.  Each abscissa array is built and converted to a list once per
    series, and each bound array once per ε for all the kinds that name it
    in ``KIND_TRANSFORMS``; only its list lives while those kinds walk.
    """
    n = len(z)
    n_eps = len(eps_set)
    chains: list[array[int]] = [array("q")] * (len(models) * n_eps)
    names = [transform_names(model) for model in models]
    ts = {key[0]: abscissae(key[0], n) for key in names if key is not None}
    t_lists = {name: t.tolist() for name, t in ts.items()}
    # The kinds with precomputed transforms, and their abscissa transforms,
    # by the bound transform they name.
    sharing: dict[str, list[tuple[int, str]]] = {}
    for m, key in enumerate(names):
        if key is not None:
            sharing.setdefault(key[1], []).append((m, key[0]))
    for e, eps in enumerate(eps_set):
        for m, model in enumerate(models):
            if names[m] is None:
                chains[m * n_eps + e] = _scalar_chain(z, model, eps)
        for b_name, kinds in sharing.items():
            lo, hi = bounds(b_name, z, eps)
            marks = [
                two_point_starts(PairTransform(ts[t_name], lo, hi))
                for _, t_name in kinds
            ]
            lo_list, hi_list = lo.tolist(), hi.tolist()
            del lo, hi
            for (m, t_name), two in zip(kinds, marks):
                chains[m * n_eps + e] = fitter.chain(
                    t_lists[t_name], lo_list, hi_list, two.tolist()
                )
    return chains


def _scalar_chain(z: np.ndarray, model: Model, eps: float) -> array[int]:
    """The greedy chain of a kind without precomputed transforms, through
    MAKE-APPROXIMATION."""
    chain = array("q")
    k = 0
    while k < len(z):
        k = make_approximation(z, k, model, eps).end
        chain.append(k)
    return chain


def partition_lossy(
    z: np.ndarray, models: list[Model | str], eps: float
) -> PartitionResult:
    """The lossy variant: a single ε, weight = parameter storage only.

    Runs in O(|F| n) and minimises the space of the functions alone, since
    the corrections are discarded (§III-B).
    """
    return partition(z, models, [eps], lossy=True)
