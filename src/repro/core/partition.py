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
lossy partitioner keeps a flat :data:`FRAGMENT_OVERHEAD_BITS` per fragment.

What "ε-approximable" means depends on the mode.  A lossy fragment is fitted
to ``z ± ε``, the L∞ guarantee NeaTS-L gives.  A lossless fragment of width
``c = ceil(log2(2ε + 1))`` is fitted to the band the decoder can store in
``c`` bits, :func:`~repro.core.storage.lossless_band`: ``[z - 2^(c-1) + 1.25,
z + 2^(c-1) + 0.75]``, or ``[z + 0.25, z + 0.75]`` at width 0, which is wider
than ``±ε`` above and a ¼ margin narrower at its lower edge, so that a float
fit never leaves a correction its width cannot hold.  In lossless mode ε only
names a width (two ε of one width fit the same band).  The frame's size is
then the optimal ``cost_bits`` plus a 320-bit header, the bits of fragments
widened past their width (see ``core/storage.py``; none on the bundled
generators), the start estimate's error ``S - START_BITS·m`` and under 71
bits of byte and word rounding: ``size_bits() - cost_bits`` is 102 to 389
bits per series on the 16 bundled generators at 4096 values (widening 0, the
start estimate -224 to +6, rounding 2 to 64).

Edges are enumerated from each ``(f, ε)`` pair's *greedy chain*: the
fragments the pair opens from node 0, each as long as MAKE-APPROXIMATION
allows and each starting where the previous one ends.  A chain does not
depend on the distances, so chains are built before the relaxation and
only their ends are kept.  A chain is one walk,
:meth:`~repro.core.convex.RangeLineFitter.chain`: the loop that is also
``extend`` starts the next fragment in place at the range that rejected the
previous one, and skips the starts whose fragment is known to be two points
long (:func:`~repro.core.transforms.two_point_starts`).  The walks run one ε
at a time, and each transform array becomes a Python list once: a kind's
abscissae once per series, the bounds once per ε for all the kinds that
share them (linear, logarithmic, radical and quadratic share the ends of the
fitted range, exponential and power their logarithms).  A range ``z + o ±
r`` is fitted as ``z' ± r`` over ``z' = z + o``, one array per ε, so the
transforms and MAKE-APPROXIMATION keep their ``±ε`` form.

The walks go in ascending correction width, all the pairs of one width
together, and stop once a lower bound proves that no wider pair can enter
or tie the shortest path: a series' optimum uses a band of a few adjacent
ε, and on the perfbench archive fleets of seeds 1-5 the walks of the wider
ε were 37% of the chain-walk CPU.  After a width, let ``c'`` be the narrowest width not yet walked and
``κ'`` the smallest κ in ``F``; every edge ``(u, v)`` of a pair not yet
walked costs at least ``(v - u)·c' + κ'``.  The *certifying pass* relaxes
the walked pairs plus a *bound edge* of that cost for every ``u < v``: a
running minimum of ``distance[u] - u·c'`` prices the cheapest bound edge
into each node in O(1), offered after the node's other candidates.  A bound
edge sets no back-pointer; a node it reaches at no more than its distance is
marked.  The pass certifies when the path read back from node ``n`` meets no
marked node, and that path and cost are then Algorithm 1's over every pair:

* with every pair, no node's distance falls below the pass's, because each
  unwalked edge costs at least the bound edge over the same nodes;
* so at a node ``q`` of the path, a candidate through an unwalked edge costs
  at least the cheapest bound edge into ``q``, which is more than ``q``'s
  distance because ``q`` is unmarked;
* the walked candidates that reach ``q``'s distance with every pair reach
  it in the pass too, and the pass's winner, the first of those there, is
  among them: its tail is the path's previous node, whose distance and
  back-pointer hold by induction from node 0.

A tie marks a node too: on a tie, an unwalked pair earlier in pair order
could win.  Nothing here needs the chains to be monotone in ε.  The pass
certifies whenever every path through a bound edge costs more than the
walked pairs' shortest path (a mark on that path would extend along it to a
path through a bound edge that costs no more), and it costs about one
relaxation of the walked pairs, so whether to attempt one decides only how
long the partition takes.  ``cover[v]`` is the cheapest cost per point at
which a walked pair's chain covers ``v``: the minimum over the walked pairs
of their width plus κ over the length of their fragment over ``v``.  A pass
is attempted when the largest mean of ``cover`` over 64 consecutive points
is below ``c' + 0.5`` and at least two widths are left; after a failed one
the next width is walked and the rule asked again.  With one width left,
certifying would save only that width's walks, and failing costs a
relaxation of every walked pair.  Lossy mode (every width 0) and a single
width never attempt.  :attr:`PartitionResult.pairs_walked` counts the pairs
walked, ``|F|·|E|`` when nothing certifies: 2,404 of 3,096 over the
perfbench archive fleets of seeds 1-3 (48 series of 4,096 values).

The relaxation leaves out every pair that another pair with the same chain
dominates: a width and κ both no larger, one of them smaller or both equal
and that pair earlier (with every pair walked, 267 of the 1,024 pairs of
the seed-1 archive fleet, 220 of them equal to an earlier one).  That is
exact: each edge of the dominated pair costs more than the same edge of the
other, or the same and is relaxed later, and under the strict ``<`` such a
candidate never wins, so no distance or back-pointer moves.  Each node k
then gets one pass over the remaining pairs, in pair order: it relaxes the
suffix edges out of k (lines 16-20 of Algorithm 1) and keeps the best prefix
edge into k + 1 (lines 12-15), which it offers to k + 1 after the pass.
Node k's distance is final when its pass starts, and ties go as in the
paper's two passes: a suffix edge into k + 1 before any prefix edge into it,
and the lowest pair first within each kind.

Memory is O(n) transient plus the chain ends, one int64 per fragment of
every chain walked.  The transient part is the abscissa lists, at most four
whatever ``F`` holds (x, ln x, √x, x²), the current ε's bound lists, at most
four pairs, and during a certifying pass its distances and marks:
``repro compress`` of 65,536 CT values with the default kinds peaks at
66.0 MiB RSS (66.1 MiB when it walked every pair; the shifted values of a
lossless band's fit add one array of ``n`` floats).  The paper's
O(n + |F||E|) fits each pair's fragment when the relaxation reaches it,
which needs every transform at once.  Time is
O(|F| |E| n).  Parameters are fitted again only for the fragments of the
shortest path, one pair's transform at a time.

The same routine with ``E = {ε}`` and a weight of ``κ_f`` alone yields the
lossy partitioner of NeaTS-L (§III-B, "Partitioning for lossy compression").
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .convex import RangeLineFitter
from .models import Model, get_model, make_approximation
from .storage import KIND_BITS, WIDTH_BITS, correction_bits, lossless_band
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
    #: the (f, ε) pairs whose chains were walked: |F|·|E| unless a
    #: certifying pass ended the walks early
    pairs_walked: int = 0


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
        The fragments of the optimal partition, in order, the achieved
        total bit cost and the number of (f, ε) pairs walked.
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
    # pair and κ_f.  The order breaks ties.  ``widths`` holds each ε's
    # per-point correction bits and ``fits`` the range its fragments are
    # fitted to.
    widths = [0 if lossy else correction_bits(eps) for eps in eps_set]
    fits = [_fit_range(eps, w, lossy) for eps, w in zip(eps_set, widths)]
    pairs = [(model, eps) for model in resolved for eps in eps_set]
    kappa = [_model_cost_bits(model, lossy) for model, _ in pairs]

    fitter = RangeLineFitter()
    path, cost, pairs_walked = _optimal_path(z, resolved, fits, widths, kappa, fitter)

    # Fit the path's fragments again from their starts for their parameters,
    # one pair's transform at a time; the fit is deterministic, so they come
    # out as in the chains.
    by_pair: dict[int, list[int]] = {}
    for at, (_, _, p, _) in enumerate(path):
        by_pair.setdefault(p, []).append(at)
    params: list[tuple[float, ...]] = [()] * len(path)
    for p, ats in by_pair.items():
        model = pairs[p][0]
        zc, radius = _centred(z, fits[p % len(eps_set)])
        pre = precompute_transform(model, radius, zc)
        if pre is None:
            for at in ats:
                params[at] = make_approximation(zc, path[at][3], model, radius).params
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
    return PartitionResult(fragments, cost, pairs_walked)


def _fit_range(eps: float, width: int, lossy: bool) -> tuple[float, float]:
    """The range an ε's fragments are fitted to, as ``(offset, radius)``:
    ``f(x)`` within ``z + offset ± radius``.  Lossy fragments keep ``z ± ε``;
    lossless ones take the band their width decodes,
    :func:`~repro.core.storage.lossless_band`."""
    if lossy:
        return 0.0, eps
    lo, hi = lossless_band(width)
    return (lo + hi) / 2, (hi - lo) / 2


def _centred(z: np.ndarray, fit: tuple[float, float]) -> tuple[np.ndarray, float]:
    """``z + offset`` and the radius: fitting that ``± radius`` is fitting
    ``z`` to ``fit``'s range."""
    offset, radius = fit
    return (z + offset if offset else z), radius


def _optimal_path(
    z: np.ndarray,
    models: list[Model],
    fits: list[tuple[float, float]],
    widths: list[int],
    kappa: list[int],
    fitter: RangeLineFitter,
) -> tuple[list[tuple[int, int, int, int]], float, int]:
    """Walk the pairs' chains in ascending width and relax them.

    ``widths[e]`` and ``fits[e]`` are the correction width and the fitted
    range of the ``e``-th ε; pair ``p`` is model ``p // len(fits)`` with ε
    ``p % len(fits)``.  After each width, a certifying pass is attempted
    when :func:`_worth_attempting` says so; the first that certifies ends
    the walks.  Returns the shortest path as :func:`_shortest_path` gives
    it, its cost and the number of pairs walked.
    """
    n = len(z)
    n_eps = len(fits)
    cbits = widths * len(models)
    chains: list[array[int] | None] = [None] * len(cbits)
    walk = _chain_walker(z, models, fitter)
    ladder = sorted(set(widths))
    kappa_min = min(kappa)
    # The cover cost steers the attempts, which need a width left to walk.
    cover = np.full(n if len(ladder) > 1 else 0, np.inf)
    found: tuple[list[tuple[int, int, int, int]], float] | None = None
    for at, width in enumerate(ladder):
        left = len(ladder) - at - 1
        for e, fit in enumerate(fits):
            if widths[e] == width:
                for m, chain in enumerate(walk(fit)):
                    p = m * n_eps + e
                    chains[p] = chain
                    if left:
                        _lower_cover(cover, chain, width, kappa[p])
        if left and _worth_attempting(cover, ladder[at + 1], left):
            found = _shortest_path(
                n, chains, cbits, kappa, bound=(ladder[at + 1], kappa_min)
            )
            if found is not None:
                break
    del walk
    if found is None:
        found = _shortest_path(n, chains, cbits, kappa)
        assert found is not None  # only a certifying pass returns None
    path, cost = found
    return path, cost, sum(chain is not None for chain in chains)


#: points per window of the attempt rule's running mean of the cover cost
_ATTEMPT_WINDOW = 64
#: the attempt rule's margin over the next width, in bits per point
_ATTEMPT_MARGIN = 0.5


def _lower_cover(cover: np.ndarray, chain: array[int], width: int, kap: int) -> None:
    """Lower ``cover[v]`` to the pair's per-point cost over ``v``: its width
    plus κ shared over the chain fragment that covers ``v``."""
    lengths = np.diff(np.frombuffer(chain, dtype=np.int64), prepend=0)
    np.minimum(cover, np.repeat(width + kap / lengths, lengths), out=cover)


def _worth_attempting(cover: np.ndarray, next_width: int, widths_left: int) -> bool:
    """Attempt a certifying pass when the walked pairs cover every window of
    :data:`_ATTEMPT_WINDOW` points at under ``next_width`` plus
    :data:`_ATTEMPT_MARGIN` bits a point on average, and at least two widths
    are left: certifying with one left saves only its walks, and a failure
    costs a relaxation of every walked pair.  This decides only how long
    Algorithm 1 takes, never what it returns."""
    if widths_left < 2:
        return False
    window = min(_ATTEMPT_WINDOW, len(cover))
    sums = np.cumsum(cover)
    worst = sums[window - 1]
    if len(cover) > window:
        worst = max(worst, float((sums[window:] - sums[:-window]).max()))
    return bool(worst < (next_width + _ATTEMPT_MARGIN) * window)


def _live(
    chains: list[array[int] | None], cbits: list[int], kappa: list[int]
) -> list[tuple[int, array[int]]]:
    """The walked pairs that no pair with the same chain dominates, with
    their chains, in pair order.  Pair q dominates pair p when its width and
    κ are both no larger and one of them is smaller, or both are equal and q
    comes first."""
    groups: dict[bytes, list[tuple[int, array[int]]]] = {}
    for p, chain in enumerate(chains):
        if chain is not None:
            groups.setdefault(chain.tobytes(), []).append((p, chain))
    live = [
        (p, chain)
        for group in groups.values()
        for p, chain in group
        if not any(
            cbits[q] <= cbits[p]
            and kappa[q] <= kappa[p]
            and (cbits[q] < cbits[p] or kappa[q] < kappa[p] or q < p)
            for q, _ in group
        )
    ]
    live.sort(key=lambda pair: pair[0])
    return live


def _shortest_path(
    n: int,
    chains: list[array[int] | None],
    cbits: list[int],
    kappa: list[int],
    bound: tuple[int, int] | None = None,
) -> tuple[list[tuple[int, int, int, int]], float] | None:
    """The shortest path from node 0 to node ``n`` and its cost (lines 7-26).

    Pair p's fragments are its chain's: ``[0, chains[p][0])`` and each next
    one from the previous end; an edge costs ``(j - i) * cbits[p] +
    kappa[p]``.  A pair whose chain is None is not walked and has no edges.
    Each step of the path is ``(u, v, p, s)``: the edge ``[u, v)`` of the
    pair-p fragment that starts at ``s``.  Ties go to the candidate
    Algorithm 1 relaxes first.

    With ``bound = (c, κ)`` this is the certifying pass: the pairs left out
    are any whose edges ``(u, v)`` cost at least ``(v - u) * c + κ``, and it
    returns the path and cost of Algorithm 1 over them and the walked pairs
    together, or None when it cannot tell them.
    """
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
        [0, 0, cbits[p], kappa[p], iter(chain).__next__, p]
        for p, chain in _live(chains, cbits, kappa)
    ]
    # With a bound, a bound edge (u, v) of cost (v - u) * width + kap_min for
    # every u < v, offered to v after its other candidates: it sets no
    # back-pointer, and marks a node it reaches at no more than its
    # distance.  ``reach`` is the minimum over the nodes u passed so far of
    # distance[u] - u * width, so the cheapest one into k costs
    # reach + k * width + kap_min.
    width, kap_min = bound or (0, 0)
    marked = None if bound is None else bytearray(n + 1)
    reach = INF

    # One pass per node k, whose distance is final when the pass starts: it
    # relaxes the suffix edges (k, end) — lines 16-20 of Algorithm 1 — and
    # finds the best prefix edge (start, k + 1) — lines 12-15 — which it
    # offers to k + 1 only after the pass, so that on a tie the suffix edges
    # into k + 1 still win, and among either kind the lowest pair.
    for k in range(n):
        dk = distance[k]
        if marked is not None:
            cand = reach + (k * width + kap_min)
            if cand <= dk:
                marked[k] = 1
                distance[k] = dk = cand
            if dk - k * width < reach:
                reach = dk - k * width
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
    if marked is not None and reach + (n * width + kap_min) <= distance[n]:
        marked[n] = 1

    # Read the shortest path backwards (lines 21-26); the pass certifies
    # when it meets no marked node.
    path: list[tuple[int, int, int, int]] = []
    v = n
    while v > 0:
        if marked is not None and marked[v]:
            return None
        u = prev_u[v]
        if u < 0:  # pragma: no cover - the DAG is always connected
            raise RuntimeError(f"no path reaches node {v}")
        path.append((u, v, prev_p[v], prev_s[v]))
        v = u
    path.reverse()
    return path, distance[n]


def _chain_walker(
    z: np.ndarray, models: list[Model], fitter: RangeLineFitter
) -> Callable[[tuple[float, float]], list[array[int]]]:
    """A function that walks the greedy chain of every kind in ``models``
    over ``z`` for one ε's fitted range (:func:`_fit_range`), and returns
    their ends in ``models`` order.

    A chain starts a fragment at 0 and each next one where the previous
    ends, every fragment as long as MAKE-APPROXIMATION allows: these are the
    fragments Algorithm 1 opens for the pair.  Each abscissa array is built
    and converted to a list once per series, and each bound array once per
    ε for all the kinds that name it in ``KIND_TRANSFORMS``; only its list
    lives while those kinds walk.
    """
    names = [transform_names(model) for model in models]
    ts = {key[0]: abscissae(key[0], len(z)) for key in names if key is not None}
    t_lists = {name: t.tolist() for name, t in ts.items()}
    # The kinds with precomputed transforms, and their abscissa transforms,
    # by the bound transform they name.
    sharing: dict[str, list[tuple[int, str]]] = {}
    for m, key in enumerate(names):
        if key is not None:
            sharing.setdefault(key[1], []).append((m, key[0]))

    def walk(fit: tuple[float, float]) -> list[array[int]]:
        zc, radius = _centred(z, fit)
        chains = [array("q")] * len(models)
        for m, model in enumerate(models):
            if names[m] is None:
                chains[m] = _scalar_chain(zc, model, radius)
        for b_name, kinds in sharing.items():
            lo, hi = bounds(b_name, zc, radius)
            marks = [
                two_point_starts(PairTransform(ts[t_name], lo, hi))
                for _, t_name in kinds
            ]
            lo_list, hi_list = lo.tolist(), hi.tolist()
            del lo, hi
            for (m, t_name), two in zip(kinds, marks):
                chains[m] = fitter.chain(
                    t_lists[t_name], lo_list, hi_list, two.tolist()
                )
        return chains

    return walk


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
