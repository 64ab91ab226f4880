"""Vectorised precomputation of Theorem-1 transforms.

For the two-parameter models every transform of Table I is a pure function of
the position ``x`` (known upfront) and of ``z ± ε`` (vectorisable with
numpy); a lossless fragment's band is such a range about a shifted ``z``
(see :mod:`repro.core.partition`).  :data:`KIND_TRANSFORMS` names each kind's abscissa and bound
transforms, :func:`abscissae` and :func:`bounds` build them, and
:func:`precompute_transform` builds the ``(t, lo, hi)`` sequences of one
``(f, ε)`` pair.  Algorithm 1 (:func:`repro.core.partition.partition`) builds
each named array once per series (abscissae) or per ``ε`` (bounds) and hands
them to :meth:`~repro.core.convex.RangeLineFitter.chain`, which fits every
fragment with no per-point ``model.transform`` call.  :func:`two_point_starts`
finds, over the same arrays, every start whose longest fragment is exactly
two points, so the walk skips the step there.  All are interpreter-level
optimisations with no algorithmic effect.

Anchored (three-parameter) models depend on the fragment's first point and
cannot be precomputed; they keep the scalar path of
:func:`~repro.core.models.make_approximation`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .models import Model

__all__ = [
    "KIND_TRANSFORMS",
    "PairTransform",
    "abscissae",
    "bounds",
    "precompute_transform",
    "transform_names",
    "two_point_starts",
]

#: Each two-parameter kind's abscissa and bound transforms (Table I), by
#: name.  Kinds that name the same transform get the same array: ``t``
#: depends only on ``n``, and the bounds only on ``z`` and ``ε``.
KIND_TRANSFORMS: dict[str, tuple[str, str]] = {
    "linear": ("x", "z"),
    "exponential": ("x", "ln z"),
    "power": ("ln x", "ln z"),
    "logarithmic": ("ln x", "z"),
    "radical": ("sqrt x", "z"),
    "quadratic": ("x^2", "z"),
    "quadratic_linear": ("x", "z/x"),
    "cubic_linear": ("x^2", "z/x"),
    "cubic_quadratic": ("x", "z/x^2"),
}


class PairTransform(NamedTuple):
    """Precomputed ``(t, lo, hi)`` of one ``(model, ε)`` pair, per position.

    Three float64 arrays of the series' length.
    """

    t: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def transform_names(model: Model) -> tuple[str, str] | None:
    """``model``'s entry in :data:`KIND_TRANSFORMS`, or None when it has none
    (anchored three-parameter kinds, unknown kinds)."""
    return KIND_TRANSFORMS.get(model.name) if model.n_params == 2 else None


def abscissae(name: str, n: int) -> np.ndarray:
    """The abscissae ``t`` of transform ``name`` at positions ``1, ..., n``."""
    xs = np.arange(1, n + 1, dtype=np.float64)
    if name == "x":
        return xs
    if name == "ln x":
        return np.log(xs)
    if name == "sqrt x":
        return np.sqrt(xs)
    if name == "x^2":
        return xs * xs
    raise ValueError(f"unknown abscissa transform {name!r}")


def bounds(name: str, z: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The range ends ``(lo, hi)`` of transform ``name`` for values ``z``."""
    zf = np.asarray(z, dtype=np.float64)
    lo, hi = zf - eps, zf + eps
    if name == "z":
        return lo, hi
    if name == "ln z":
        return np.log(np.maximum(lo, 1e-12)), np.log(np.maximum(hi, 1e-12))
    xs = np.arange(1, len(zf) + 1, dtype=np.float64)
    if name == "z/x":
        return lo / xs, hi / xs
    if name == "z/x^2":
        sq = xs * xs
        return lo / sq, hi / sq
    raise ValueError(f"unknown bound transform {name!r}")


def precompute_transform(
    model: Model, eps: float, z: np.ndarray
) -> PairTransform | None:
    """Build a :class:`PairTransform`, or None for models without one."""
    names = transform_names(model)
    if names is None:
        return None
    return PairTransform(abscissae(names[0], len(z)), *bounds(names[1], z, eps))


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
