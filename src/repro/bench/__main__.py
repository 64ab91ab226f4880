"""Command-line entry point: ``python -m repro.bench --experiment table3``.

Experiments
-----------
``table2``     lossy: AA vs PLA vs NeaTS-L (ratio, MAPE)
``table3``     lossless: ratio / decompression / random access, all compressors
``fig2``       ratio vs compression speed (incl. LeaTS, SNeaTS)
``fig3``       ratio vs decompression and random-access speed
``fig4``       range-query throughput across range sizes
``ablations``  variant/grid/model-set ablations
``all``        everything above
"""

from __future__ import annotations

import argparse
import sys

from ..data import DATASETS
from . import ablations
from .evaluation import render_fig2, render_fig3, render_table3, run_evaluation
from .fig4 import render_fig4, run_fig4
from .table2 import render_table2, run_table2

_EXPERIMENTS = ("table2", "table3", "fig2", "fig3", "fig4", "ablations", "all")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the NeaTS evaluation (tables and figures).",
    )
    parser.add_argument("--experiment", "-e", choices=_EXPERIMENTS, default="all")
    parser.add_argument(
        "--datasets", "-d", nargs="*", default=None,
        help=f"dataset codes (default: all 16); known: {', '.join(DATASETS)}",
    )
    parser.add_argument(
        "--n", type=int, default=None,
        help="points per dataset (default: per-dataset reproduction scale)",
    )
    parser.add_argument(
        "--queries", type=int, default=500, help="random access queries"
    )
    parser.add_argument(
        "--quick-calibration", action="store_true",
        help="table2: use a fixed eps fraction instead of the paper's search",
    )
    parser.add_argument(
        "--output", "-o", default=None, help="also write the report to a file"
    )
    args = parser.parse_args(argv)

    if args.datasets:
        unknown = set(args.datasets) - set(DATASETS)
        if unknown:
            parser.error(f"unknown datasets: {', '.join(sorted(unknown))}")

    sections: list[str] = []
    wants = lambda name: args.experiment in (name, "all")

    if wants("table2"):
        print("== Running Table II (lossy) ==", flush=True)
        rows = run_table2(args.datasets, args.n, quick=args.quick_calibration)
        sections.append(render_table2(rows))

    if wants("table3") or wants("fig2") or wants("fig3"):
        print("== Running lossless evaluation ==", flush=True)
        result = run_evaluation(
            args.datasets, n=args.n, access_queries=args.queries,
            include_variants=True,
        )
        if wants("table3"):
            sections.append(render_table3(result))
        if wants("fig2"):
            sections.append(render_fig2(result))
        if wants("fig3"):
            sections.append(render_fig3(result))

    if wants("fig4"):
        print("== Running Figure 4 (range queries) ==", flush=True)
        result4 = run_fig4(args.datasets, n=args.n)
        sections.append(render_fig4(result4))

    if wants("ablations"):
        print("== Running ablations ==", flush=True)
        sections.append(ablations.run_variant_ablation(args.datasets, args.n))
        sections.append(ablations.run_eps_grid_ablation(args.datasets, args.n))
        sections.append(ablations.run_model_set_ablation(args.datasets, args.n))

    report = "\n\n".join(sections)
    print()
    print(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report + "\n")
        print(f"\n(report written to {args.output})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
