"""The full lossless evaluation: Table III and Figures 2-3 share these runs.

Running every codec on every dataset is the expensive part, so the result
object caches all measurements; the table and figure renderers then slice it
without re-running anything.  Codecs are registry ids; the renderers show
each one under its display name (:func:`.render.display_name`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codecs import available_codecs, codec_spec, get_codec
from ..data import DATASETS
from .measure import CompressorStats, measure_lossless, measure_random_access
from .render import display_name, render_scatter, render_table

__all__ = [
    "EvaluationResult",
    "TABLE3_ORDER",
    "lossless_codecs",
    "make_codec",
    "run_evaluation",
    "render_table3",
    "render_fig2",
    "render_fig3",
]

#: Table III's column order: the five general-purpose codecs, then the
#: special-purpose ones, NeaTS's family last
TABLE3_ORDER = (
    "xz", "brotli", "zstd", "lz4", "snappy",
    "chimp128", "chimp", "tsxor", "dac", "gorilla", "leco", "alp",
    "neats", "leats", "sneats",
)


def lossless_codecs() -> list[str]:
    """Every lossless registry id, in Table III's column order."""
    rank = {cid: i for i, cid in enumerate(TABLE3_ORDER)}
    ids = [cid for cid in available_codecs() if not codec_spec(cid).lossy]
    return sorted(ids, key=lambda cid: rank.get(cid, len(rank)))


def make_codec(codec_id: str, digits: int = 0):
    """A fresh compressor for ``codec_id``; ``digits`` goes to codecs using it."""
    params = {"digits": digits} if codec_spec(codec_id).needs_digits else {}
    return get_codec(codec_id, **params)


@dataclass
class EvaluationResult:
    """All measurements for a set of datasets × codecs."""

    stats: dict[str, dict[str, CompressorStats]] = field(default_factory=dict)
    datasets: list[str] = field(default_factory=list)
    codecs: list[str] = field(default_factory=list)

    def average(self, metric: str) -> dict[str, float]:
        """Average a :class:`CompressorStats` property across datasets."""
        out = {}
        for cid in self.codecs:
            vals = [
                getattr(self.stats[ds][cid], metric)
                for ds in self.datasets
                if cid in self.stats[ds]
            ]
            out[cid] = float(np.mean(vals)) if vals else float("nan")
        return out


def run_evaluation(
    datasets: list[str] | None = None,
    codecs: list[str] | None = None,
    n: int | None = None,
    access_queries: int = 500,
    repeats: int = 1,
    verbose: bool = True,
) -> EvaluationResult:
    """Measure ratio, speeds, and random access for every codec.

    ``codecs`` are registry ids (default: :func:`lossless_codecs`); each
    speed is the best of ``repeats`` timed runs.
    """
    datasets = datasets or list(DATASETS)
    codecs = list(codecs or lossless_codecs())

    result = EvaluationResult(datasets=datasets, codecs=codecs)
    for ds in datasets:
        info = DATASETS[ds]
        y = info.generate(n)
        result.stats[ds] = {}
        for cid in codecs:
            stats = measure_lossless(
                make_codec(cid, info.digits), y, dataset=ds, repeats=repeats
            )
            compressed = stats.extras.pop("compressed")
            stats.access_seconds_per_query = measure_random_access(
                compressed, y, queries=access_queries
            )
            result.stats[ds][cid] = stats
            if verbose:
                print(
                    f"  [{ds}] {display_name(cid):10s} ratio {stats.ratio_pct:6.2f}%  "
                    f"comp {stats.compress_mb_s:8.3f} MB/s  "
                    f"dec {stats.decompress_mb_s:8.2f} MB/s  "
                    f"ra {stats.access_mb_s:8.3f} MB/s"
                )
    return result


def _table_for_metric(
    result: EvaluationResult, metric: str, fmt: str, title: str, best: str
) -> str:
    headers = ["Dataset"] + [display_name(cid) for cid in result.codecs]
    rows = []
    highlight = {}
    for r_idx, ds in enumerate(result.datasets):
        row = [ds]
        vals = []
        for cid in result.codecs:
            v = getattr(result.stats[ds][cid], metric)
            vals.append(v)
            row.append(fmt % v)
        chooser = min if best == "min" else max
        best_idx = vals.index(chooser(vals))
        highlight[(r_idx, best_idx + 1)] = "*"
        rows.append(row)
    return render_table(headers, rows, title=title, highlight=highlight)


def render_table3(result: EvaluationResult) -> str:
    """The three panels of Table III (best value per row marked ``*``)."""
    parts = [
        _table_for_metric(
            result, "ratio_pct", "%.2f",
            "Table III (top): compression ratio (%)", "min",
        ),
        _table_for_metric(
            result, "decompress_mb_s", "%.2f",
            "Table III (middle): decompression speed (MB/s)", "max",
        ),
        _table_for_metric(
            result, "access_mb_s", "%.3f",
            "Table III (bottom): random access speed (MB/s)", "max",
        ),
    ]
    return "\n\n".join(parts)


def render_fig2(result: EvaluationResult) -> str:
    """Figure 2: compression ratio vs compression speed (averages)."""
    ratios = result.average("ratio_pct")
    speeds = result.average("compress_mb_s")
    points = {display_name(c): (ratios[c], speeds[c]) for c in result.codecs}
    plot = render_scatter(
        points,
        xlabel="compression ratio (%)",
        ylabel="compression speed (MB/s, log)",
        title="Figure 2: ratio vs compression speed (averaged over datasets)",
        log_y=True,
    )
    listing = "\n".join(
        f"  {display_name(c):10s} ratio {ratios[c]:6.2f}%  speed {speeds[c]:10.4f} MB/s"
        for c in sorted(result.codecs, key=lambda c: ratios[c])
    )
    return plot + "\n" + listing


def render_fig3(result: EvaluationResult) -> str:
    """Figure 3: ratio vs decompression speed and vs random access speed."""
    ratios = result.average("ratio_pct")
    dec = result.average("decompress_mb_s")
    acc = result.average("access_mb_s")
    left = render_scatter(
        {display_name(c): (ratios[c], dec[c]) for c in result.codecs},
        xlabel="compression ratio (%)",
        ylabel="decompression speed (MB/s)",
        title="Figure 3 (left): ratio vs decompression speed",
    )
    right = render_scatter(
        {display_name(c): (ratios[c], acc[c]) for c in result.codecs},
        xlabel="compression ratio (%)",
        ylabel="random access speed (MB/s, log)",
        title="Figure 3 (right): ratio vs random access speed",
        log_y=True,
    )
    listing = "\n".join(
        f"  {display_name(c):10s} ratio {ratios[c]:6.2f}%  dec {dec[c]:9.2f} MB/s  "
        f"ra {acc[c]:8.3f} MB/s"
        for c in sorted(result.codecs, key=lambda c: ratios[c])
    )
    return left + "\n\n" + right + "\n" + listing
