"""Batched piecewise-function evaluation.

Full decompression of a NeaTS/LeaTS/PLA/AA representation evaluates one
fitted function per fragment.  The scalar path loops over fragments,
building a fresh ``np.arange`` and paying the numpy dispatch overhead per
fragment — painful when fragments are short.  This kernel evaluates *all*
fragments of each model kind in one vectorised pass: per-position abscissae
come from a single ramp construction, per-position parameters from one
``np.repeat`` of the parameter matrix columns.

Every registered :class:`~repro.core.models.Model` evaluates element-wise,
so broadcasting array parameters produces bit-identical float64 results to
the scalar per-fragment calls — the property the cross-backend parity
suite pins down.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["evaluate_fragments", "position_ramp"]


def position_ramp(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``[s, s+1, ..., s+len)`` ranges as one int64 array."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    resets = np.cumsum(lengths) - lengths
    ramp = np.arange(total, dtype=np.int64) - np.repeat(resets, lengths)
    return np.repeat(np.asarray(starts, dtype=np.int64), lengths) + ramp


def evaluate_fragments(
    models: Sequence,
    kinds: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
    params: Sequence[tuple],
    n: int,
    origin: int = 0,
) -> np.ndarray:
    """Evaluate a piecewise approximation over positions ``origin+1..origin+n``.

    ``models[k]`` is the :class:`~repro.core.models.Model` for kind ``k``;
    fragment ``i`` covers 0-based output positions ``[starts[i], ends[i])``
    with kind ``kinds[i]`` and parameter tuple ``params[i]``.  Fragments
    must cover ``[0, n)``; the returned float64 array holds ``f(x)`` at
    ``x = origin + position + 1``, so a window of a series starting at
    ``origin`` evaluates as the whole series would there.
    """
    out = np.empty(n, dtype=np.float64)
    if not len(kinds):
        return out
    kinds_arr = np.asarray(kinds, dtype=np.int64)
    starts_arr = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(ends, dtype=np.int64) - starts_arr
    for k in np.unique(kinds_arr).tolist():
        model = models[k]
        sel = np.nonzero(kinds_arr == k)[0]
        ls = lengths[sel]
        idx = position_ramp(starts_arr[sel], ls)
        if not len(idx):
            continue
        xs = (idx + (origin + 1)).astype(np.float64)
        mat = np.array([params[i] for i in sel], dtype=np.float64)
        cols = tuple(np.repeat(mat[:, j], ls) for j in range(mat.shape[1]))
        out[idx] = model.evaluate(cols, xs)
    return out
