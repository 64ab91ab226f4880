"""Benchmark harness regenerating every table and figure of the paper."""

from .evaluation import (
    EvaluationResult,
    lossless_codecs,
    make_codec,
    render_fig2,
    render_fig3,
    render_table3,
    run_evaluation,
)
from .fig4 import Fig4Result, render_fig4, run_fig4
from .measure import (
    CompressorStats,
    measure_lossless,
    measure_random_access,
    measure_range_throughput,
)
from .table2 import Table2Row, calibrate_eps, render_table2, run_table2

__all__ = [
    "run_table2",
    "render_table2",
    "Table2Row",
    "calibrate_eps",
    "run_evaluation",
    "render_table3",
    "render_fig2",
    "render_fig3",
    "EvaluationResult",
    "lossless_codecs",
    "make_codec",
    "run_fig4",
    "render_fig4",
    "Fig4Result",
    "CompressorStats",
    "measure_lossless",
    "measure_random_access",
    "measure_range_throughput",
]
