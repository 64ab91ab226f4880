"""Vectorised precomputation of Theorem-1 transforms.

For the two-parameter models every transform of Table I is a pure function of
the position ``x`` (known upfront) and of ``z ± ε`` (vectorisable with
numpy).  :func:`precompute_transform` builds the ``(t, lo, hi)`` sequences of
one ``(f, ε)`` pair once, and Algorithm 1 (:func:`repro.core.partition.partition`)
hands them to :meth:`~repro.core.convex.RangeLineFitter.extend`, which fits
each fragment in one pass with no per-point ``model.transform`` call.  This
is an interpreter-level optimisation with no algorithmic effect.

Anchored (three-parameter) models depend on the fragment's first point and
cannot be precomputed; they keep the scalar path of
:func:`~repro.core.models.make_approximation`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .models import Model

__all__ = ["PairTransform", "precompute_transform"]


class PairTransform(NamedTuple):
    """Precomputed ``(t, lo, hi)`` of one ``(model, ε)`` pair, per position.

    Python lists: the fastest sequences for scalar indexing.
    """

    t: list[float]
    lo: list[float]
    hi: list[float]


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
    return PairTransform(t.tolist(), lo.tolist(), hi.tolist())
