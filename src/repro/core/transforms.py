"""Vectorised precomputation of Theorem-1 transforms.

For the two-parameter models every transform of Table I is a pure function of
the position ``x`` (known upfront) and of ``z ± ε`` (vectorisable with
numpy).  :func:`precompute_transform` builds the ``(t, lo, hi)`` sequences of
one ``(f, ε)`` pair, and Algorithm 1 (:func:`repro.core.partition.partition`)
hands them to :meth:`~repro.core.convex.RangeLineFitter.extend`, which fits
each fragment in one pass with no per-point ``model.transform`` call.
:func:`two_point_starts` finds, over the same arrays, every start whose
longest fragment is exactly two points, so the partitioner needs no
``extend`` call there.  Both are interpreter-level optimisations with no
algorithmic effect.

Anchored (three-parameter) models depend on the fragment's first point and
cannot be precomputed; they keep the scalar path of
:func:`~repro.core.models.make_approximation`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .models import Model

__all__ = ["PairTransform", "precompute_transform", "two_point_starts"]


class PairTransform(NamedTuple):
    """Precomputed ``(t, lo, hi)`` of one ``(model, ε)`` pair, per position.

    Three float64 arrays of the series' length.
    """

    t: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def precompute_transform(
    model: Model, eps: float, z: np.ndarray
) -> PairTransform | None:
    """Build a :class:`PairTransform`, or None for models without one."""
    if model.n_params != 2:
        return None
    n = len(z)
    xs = np.arange(1, n + 1, dtype=np.float64)
    zf = np.asarray(z, dtype=np.float64)
    name = model.name
    if name == "linear":
        t, lo, hi = xs, zf - eps, zf + eps
    elif name == "exponential":
        t = xs
        lo = np.log(np.maximum(zf - eps, 1e-12))
        hi = np.log(np.maximum(zf + eps, 1e-12))
    elif name == "power":
        t = np.log(xs)
        lo = np.log(np.maximum(zf - eps, 1e-12))
        hi = np.log(np.maximum(zf + eps, 1e-12))
    elif name == "logarithmic":
        t, lo, hi = np.log(xs), zf - eps, zf + eps
    elif name == "radical":
        t, lo, hi = np.sqrt(xs), zf - eps, zf + eps
    elif name == "quadratic":
        t, lo, hi = xs * xs, zf - eps, zf + eps
    elif name == "quadratic_linear":
        t, lo, hi = xs, (zf - eps) / xs, (zf + eps) / xs
    elif name == "cubic_linear":
        t, lo, hi = xs * xs, (zf - eps) / xs, (zf + eps) / xs
    elif name == "cubic_quadratic":
        sq = xs * xs
        t, lo, hi = xs, (zf - eps) / sq, (zf + eps) / sq
    else:
        # Unknown two-parameter model: fall back to the scalar path.
        return None
    return PairTransform(t, lo, hi)


def two_point_starts(pre: PairTransform) -> np.ndarray:
    """Mark every start ``k`` whose longest fragment is ``[k, k + 2)``.

    ``mark[k]`` is true iff ``RangeLineFitter().extend(t, lo, hi, k, n)``
    returns ``k + 2``: one line stabs any two ranges, so this is exactly
    ``extend``'s test on its third range, run here for every start at once
    with the same float operations in the same order.  A start from which
    ``extend`` would raise (an empty range or a non-increasing abscissa among
    its three points) is left unmarked, and so are the last two starts, which
    have no third range to reject.
    """
    t, lo, hi = pre
    mark = np.zeros(len(t), dtype=bool)
    if len(t) < 3:
        return mark
    t0, t1, t2 = t[:-2], t[1:-1], t[2:]
    l0, l1, l2 = lo[:-2], lo[1:-1], lo[2:]
    h0, h1, h2 = hi[:-2], hi[1:-1], hi[2:]
    # After two ranges both extreme-slope directions run from t0 to t1.
    dx = t1 - t0
    step = t2 - t1
    rejected = ((h2 - l1) * dx < (l1 - h0) * step) | (
        (h1 - l0) * step < (l2 - h1) * dx
    )
    empty = lo > hi
    raises = empty[:-2] | empty[1:-1] | empty[2:] | (t1 <= t0) | (t2 <= t1)
    mark[:-2] = rejected & ~raises
    return mark
