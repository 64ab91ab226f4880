"""Figure 4: range-query throughput across range sizes (§IV-C4).

The paper restricts this experiment to the best compressors by random access
or decompression speed — ALP, DAC, Lz4, and NeaTS — and measures queries per
second for range sizes ``10·2^0 .. 10·2^16`` averaged over the largest
datasets.  A range query is a random access (to locate the first point)
followed by a scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data import DATASETS
from .evaluation import make_codec
from .measure import measure_range_throughput
from .render import display_name, render_table

__all__ = ["Fig4Result", "run_fig4", "render_fig4"]

FIG4_CODECS = ["alp", "dac", "lz4", "neats"]


@dataclass
class Fig4Result:
    """Throughput (queries/s) per codec id per range size."""

    range_sizes: list[int]
    throughput: dict[str, list[float]] = field(default_factory=dict)


def run_fig4(
    datasets: list[str] | None = None,
    n: int | None = None,
    max_exponent: int = 10,
    queries: int = 30,
    codecs: list[str] | None = None,
    verbose: bool = True,
) -> Fig4Result:
    """Measure range-query throughput averaged over ``datasets``.

    ``codecs`` are registry ids (default: :data:`FIG4_CODECS`).
    """
    datasets = datasets or ["IT", "US", "WD"]
    codecs = codecs or FIG4_CODECS
    range_sizes = [10 * (1 << k) for k in range(max_exponent + 1)]
    sums = {c: [0.0] * len(range_sizes) for c in codecs}

    for ds in datasets:
        info = DATASETS[ds]
        y = info.generate(n)
        for cid in codecs:
            compressed = make_codec(cid, info.digits).compress(y)
            for i, size in enumerate(range_sizes):
                if size > len(y):
                    sums[cid][i] += float("nan")
                    continue
                qps = measure_range_throughput(
                    compressed, y, size, queries=queries
                )
                sums[cid][i] += qps
            if verbose:
                print(f"  [{ds}] {cid} done")

    result = Fig4Result(range_sizes=range_sizes)
    for c in codecs:
        result.throughput[c] = [s / len(datasets) for s in sums[c]]
    return result


def render_fig4(result: Fig4Result) -> str:
    """Format throughput like the paper's Figure 4 (one row per size)."""
    headers = ["Range size"] + [display_name(c) for c in result.throughput]
    rows = []
    for i, size in enumerate(result.range_sizes):
        row = [str(size)]
        vals = [result.throughput[c][i] for c in result.throughput]
        row.extend(f"{v:.0f}" for v in vals)
        rows.append(row)
    table = render_table(
        headers, rows, title="Figure 4: range query throughput (queries/s)"
    )
    return table + (
        "\n(paper shape: DAC fastest below ~40 points, NeaTS fastest above)"
    )
