"""Ablation studies of NeaTS's design choices.

These go beyond the paper's headline tables and quantify:

1. **Variants** — NeaTS vs LeaTS vs SNeaTS compression time and ratio
   (the §IV-C1 in-text claims: LeaTS ≈5x and SNeaTS ≈13x faster, ratios
   0.89% and 8.18% worse);
2. **Error-bound grid** — the ``E`` stride: denser grids cost partitioning
   time, sparser grids cost compression ratio;
3. **Model set** — leave-one-out over the default four function kinds.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import NeaTS
from ..core.models import DEFAULT_MODELS
from ..data import DATASETS
from .render import render_table

__all__ = [
    "run_variant_ablation",
    "run_eps_grid_ablation",
    "run_model_set_ablation",
]


def _time_compress(compressor, y) -> tuple[float, object]:
    t0 = time.perf_counter()
    compressed = compressor.compress(y)
    return time.perf_counter() - t0, compressed


def run_variant_ablation(datasets=None, n=None) -> str:
    """NeaTS vs LeaTS vs SNeaTS: ratio and compression time."""
    datasets = datasets or ["IT", "US", "CT"]
    rows = []
    for ds in datasets:
        y = DATASETS[ds].generate(n)
        variants = {
            "NeaTS": NeaTS(),
            "LeaTS": NeaTS.linear_only(),
            "SNeaTS": NeaTS.with_model_selection(),
        }
        base_time = base_ratio = None
        for name, comp in variants.items():
            secs, compressed = _time_compress(comp, y)
            assert np.array_equal(compressed.decompress(), y)
            ratio = compressed.compression_ratio()
            if name == "NeaTS":
                base_time, base_ratio = secs, ratio
            rows.append([
                ds, name, f"{100 * ratio:.2f}", f"{secs:.2f}",
                f"{base_time / secs:.2f}x" if secs else "-",
                f"{100 * (ratio - base_ratio) / base_ratio:+.2f}%",
            ])
    return render_table(
        ["Dataset", "Variant", "Ratio(%)", "Time(s)", "Speedup", "Ratio delta"],
        rows,
        title="Ablation: NeaTS variants (paper §IV-C1: LeaTS ~5x, SNeaTS ~13x)",
    )


def run_eps_grid_ablation(datasets=None, n=None) -> str:
    """The ``E`` grid density: stride 1 (full) vs 2 (default) vs 4."""
    datasets = datasets or ["IT", "CT"]
    rows = []
    for ds in datasets:
        y = DATASETS[ds].generate(n)
        for stride in (1, 2, 4):
            secs, compressed = _time_compress(NeaTS(eps_stride=stride), y)
            rows.append([
                ds, str(stride),
                f"{100 * compressed.compression_ratio():.2f}",
                f"{secs:.2f}", str(compressed.num_fragments),
            ])
    return render_table(
        ["Dataset", "E stride", "Ratio(%)", "Time(s)", "Fragments"],
        rows,
        title="Ablation: error-bound grid density (E of §III-B)",
    )


def run_model_set_ablation(datasets=None, n=None) -> str:
    """Leave-one-out on the default model set F."""
    datasets = datasets or ["IT", "ECG"]
    rows = []
    for ds in datasets:
        y = DATASETS[ds].generate(n)
        full = NeaTS().compress(y)
        rows.append([ds, "all four", f"{100 * full.compression_ratio():.2f}", "-"])
        for dropped in DEFAULT_MODELS:
            models = tuple(m for m in DEFAULT_MODELS if m != dropped)
            compressed = NeaTS(models=models).compress(y)
            delta = (
                compressed.compression_ratio() - full.compression_ratio()
            ) / full.compression_ratio()
            rows.append([
                ds, f"- {dropped}",
                f"{100 * compressed.compression_ratio():.2f}",
                f"{100 * delta:+.2f}%",
            ])
    return render_table(
        ["Dataset", "Model set F", "Ratio(%)", "Delta"],
        rows,
        title="Ablation: leave-one-out over the function kinds (F of §IV-A)",
    )
