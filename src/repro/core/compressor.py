"""The NeaTS lossless compressor — public API.

This module ties together the partitioner (Algorithm 1) and the succinct
layout (§III-C) into the compressor evaluated in the paper, together with the
two speed-oriented variants of §IV-C1:

* :class:`NeaTS` — the full compressor: nonlinear kinds × error bounds,
  optimal partitioning, the ``⟨S, B, O, C, K, P⟩`` layout;
* :func:`NeaTS.linear_only` (**LeaTS**) — restricts ``F`` to linear functions;
* :func:`NeaTS.with_model_selection` (**SNeaTS**) — first partitions a prefix
  sample of the series, keeps the top-``k`` most used ``(f, ε)`` pairs, and
  uses only those for the full series.

Example
-------
>>> import numpy as np
>>> from repro.core.compressor import NeaTS
>>> y = (100 * np.sin(np.arange(2000) / 50)).astype(np.int64)
>>> compressed = NeaTS().compress(y)
>>> bool(np.array_equal(compressed.decompress(), y))
True
>>> int(compressed.access(1234)) == int(y[1234])
True
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..baselines.base import Compressed
from .models import DEFAULT_MODELS, get_model
from .partition import Fragment, partition
from .storage import NeaTSStorage, correction_bits, lossless_band

__all__ = ["NeaTS", "CompressedSeries", "default_eps_set"]


def default_eps_set(values: np.ndarray, stride: int = 1) -> list[float]:
    """The error-bound set ``E`` for a series (§III-B complexity analysis).

    The paper bounds ``E`` by ``{0, 2, 4, ..., 2^ceil(log Δ)}`` where ``Δ`` is
    the value range; we use one ε per correction width instead,
    ``{0, ½, 1, 3, 7, ..., 2^b - 1}`` for the widths ``0, 1, 2, 3, 4, ...,
    b + 1``, so every width from 0 up is there and no two ε share one.  A
    lossless fragment is fitted to the band its width decodes
    (:func:`~repro.core.storage.lossless_band`), so each ε stands for its
    width; ε = ½ is the only one of width 1.  ``stride > 1`` keeps 0 and ½
    and every ``stride``-th of the rest, trading a little compression ratio
    for partitioning speed.
    """
    values = np.asarray(values)
    if len(values) == 0:
        return [0]
    delta = int(values.max()) - int(values.min()) + 1
    # Widths are capped at 50 bits: larger bounds would make the positivity
    # shift overflow the int64 headroom, and an eps beyond 2^50 is already
    # "the trivial constant function fits everything" territory.
    max_width = min(max(delta.bit_length() - 1, 1), 50)
    eps_set: list[float] = [0, 0.5]
    eps_set.extend((1 << b) - 1 for b in range(1, max_width + 1, stride))
    return eps_set


@dataclass
class CompressedSeries(Compressed):
    """The result of :meth:`NeaTS.compress`: storage plus provenance.

    Implements the full :class:`~repro.baselines.base.Compressed` protocol,
    so NeaTS output is interchangeable with every baseline codec — including
    framed serialisation, which delegates to the succinct
    :class:`NeaTSStorage` byte layout (no recompression on load).
    """

    storage: NeaTSStorage
    fragments: list[Fragment]
    original_bits: int

    codec_id = "neats"

    def decompress(self) -> np.ndarray:
        """Algorithm 2 — the original values."""
        return self.storage.decompress()

    def access(self, k: int) -> int:
        """Algorithm 3 — the value at 0-based position ``k``."""
        return self.storage.access(k)

    def decompress_range(self, lo: int, hi: int) -> np.ndarray:
        """A range query: random access to ``lo``, then a scan to ``hi``."""
        return self.storage.decompress_range(lo, hi)

    def size_bits(self) -> int:
        """Compressed size in bits: ``8 * len(self.to_payload())``."""
        return self.storage.size_bits()

    @property
    def n(self) -> int:
        """Number of values (from the storage header, O(1))."""
        return self.storage.n

    @property
    def num_fragments(self) -> int:
        """Number of fragments in the partition."""
        return self.storage.m

    def to_payload(self) -> bytes:
        """Native frame payload: the ``⟨S, B, O, C, K, P⟩`` layout (``NeaTS102``)."""
        return self.storage.to_bytes()

    @classmethod
    def from_payload(cls, payload: bytes) -> "CompressedSeries":
        """Rebuild from :meth:`to_payload` output.

        The fragment list is provenance of the *compression run* and is not
        stored; deserialised objects carry an empty one.
        """
        storage = NeaTSStorage.from_bytes(payload)
        return cls(storage, [], 64 * storage.n)


class NeaTS:
    """Nonlinear error-bounded approximation compressor for time series.

    Parameters
    ----------
    models:
        The function set ``F`` (names from the model registry).  Defaults to
        the paper's experimental choice: linear, exponential, quadratic,
        radical (§IV-A).
    eps_set:
        The error-bound set ``E``; by default derived per series via
        :func:`default_eps_set`.
    eps_stride:
        Width subsampling for the default ``E`` (ignored when ``eps_set``
        is given).

    Random access (Algorithm 3) finds a fragment by bisecting its start
    list; see :mod:`repro.core.storage` for the layout.
    """

    def __init__(
        self,
        models: tuple[str, ...] | list[str] = DEFAULT_MODELS,
        eps_set: list[float] | None = None,
        eps_stride: int = 1,
    ) -> None:
        self.models = list(models)
        if not self.models:
            raise ValueError("models must name at least one function kind")
        for name in self.models:
            get_model(name)  # fail fast on typos
        if eps_set is not None and len(eps_set) == 0:
            raise ValueError(
                "eps_set must hold at least one error bound; "
                "pass None for the per-series default"
            )
        self.eps_set = eps_set
        self.eps_stride = eps_stride

    # -- constructors for the paper's variants --------------------------------

    @classmethod
    def linear_only(cls, **kwargs) -> "NeaTS":
        """**LeaTS**: Algorithm 1 restricted to linear functions (§IV-C1)."""
        kwargs.setdefault("models", ("linear",))
        return cls(**kwargs)

    @classmethod
    def with_model_selection(
        cls,
        sample_fraction: float = 0.10,
        top_k: int = 5,
        **kwargs,
    ) -> "_SNeaTS":
        """**SNeaTS**: model-selection on a prefix sample (§IV-C1).

        Partitions the first ``sample_fraction`` of the series with the full
        ``F × E`` grid, keeps the ``top_k`` most used pairs, and compresses
        the whole series with only those pairs.
        """
        return _SNeaTS(sample_fraction, top_k, **kwargs)

    # -- main entry point ------------------------------------------------------

    def compress(self, values: np.ndarray) -> CompressedSeries:
        """Compress an integer time series losslessly."""
        y = np.asarray(values, dtype=np.int64)
        if y.ndim != 1:
            raise ValueError("expected a 1-D array of values")
        if len(y) == 0:
            raise ValueError("cannot compress an empty series")
        self._check_domain(y)
        eps_set = (
            default_eps_set(y, self.eps_stride) if self.eps_set is None else self.eps_set
        )
        shift = self._shift_for(y, eps_set)
        z = y.astype(np.float64) + shift  # fitting precision only
        z_exact = y + shift  # int64: exact, used for residual measurement
        fragments = self._partition(z, [float(e) for e in eps_set])
        storage = NeaTSStorage(z_exact, fragments, shift)
        return CompressedSeries(storage, fragments, 64 * len(y))

    def _partition(self, z: np.ndarray, eps_set: list[float]) -> list[Fragment]:
        """Algorithm 1 over the shifted values ``z`` with the whole ``F × E``."""
        return partition(z, list(self.models), eps_set).fragments

    @staticmethod
    def _shift_for(y: np.ndarray, eps_set: list[float]) -> int:
        """Global positivity shift (paper footnote 2): every band a fragment
        can be fitted to starts at 1 or above, ``z + lo >= 1`` for the
        widest ε's :func:`~repro.core.storage.lossless_band`, so the
        logarithmic transforms are defined (for the default ``E`` this is
        ``z - max(E) >= 1``)."""
        lo, _ = lossless_band(correction_bits(max(eps_set)))
        return math.ceil(1 - lo) - int(y.min())

    @staticmethod
    def _check_domain(y: np.ndarray) -> None:
        """Reject magnitudes that would overflow the shift arithmetic.

        ``z = y + shift`` and the residuals must stay inside int64; values up
        to ±2^60 leave comfortable headroom (scaled-decimal series in the
        paper's datasets peak around 2^35).
        """
        limit = 1 << 60
        if int(y.max()) >= limit or int(y.min()) <= -limit:
            raise ValueError(
                "values must lie within ±2^60; rescale the series "
                "(e.g. use fewer decimal digits) before compressing"
            )


class _SNeaTS(NeaTS):
    """NeaTS with the sample-based model-selection procedure (§IV-C1)."""

    def __init__(self, sample_fraction: float, top_k: int, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0 < sample_fraction <= 1:
            raise ValueError("sample_fraction must be in (0, 1]")
        if top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        self.sample_fraction = sample_fraction
        self.top_k = top_k

    def _partition(self, z: np.ndarray, eps_set: list[float]) -> list[Fragment]:
        """Partition a prefix sample with ``F × E``, then ``z`` with its top pairs."""
        sample_len = min(max(int(len(z) * self.sample_fraction), 64), len(z))
        sample = partition(z[:sample_len], list(self.models), eps_set)
        usage = Counter(
            (frag.model_name, frag.eps) for frag in sample.fragments
        )
        top = [pair for pair, _ in usage.most_common(self.top_k)]
        kept_models = sorted({name for name, _ in top})
        kept_eps = sorted({eps for _, eps in top})
        return partition(z, kept_models, kept_eps).fragments
