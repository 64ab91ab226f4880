#!/usr/bin/env python3
"""End-to-end benchmark of the NeaTS store and archives.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--workload`` is ``ingest``, ``history`` or ``archive`` (see README.md).
The run re-executes itself once with ``PYTHONHASHSEED`` pinned, builds its
inputs from ``--seed``, runs a fixed number of operations, checks every
answer, and prints the workload's metrics by name and unit, one per line.
The last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of :data:`END_TO_END` with
``--trace 0``, or the per-layer metrics of ``spans.PER_LAYER`` with
``--trace 1`` (a separate run with span wrappers installed).

``--seconds`` is accepted and recorded; operation counts are fixed per
workload, never a duration.  ``--quick`` shrinks every size for the
self-test (``smoke.py``) and ``--plant-wrong`` corrupts one answer there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"

#: metrics every workload reports on the result line, with their units.
#: Only these are common to all workloads and steady across runs on a
#: noisy host; latencies go to the report lines (README.md, "Noise").
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_value", "B/value"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "history", "archive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--plant-wrong", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans
    import workloads

    sizes = workloads.QUICK if args.quick else workloads.FULL
    base = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        tracer = spans.install(base / "spans") if args.trace else None
        rec, report, totals = workloads.run(
            args.workload, args.seed, sizes, base / "data",
            tracer=tracer, plant_wrong=args.plant_wrong,
        )
        env = workloads.environment(base)
        if tracer is not None:
            metrics = traced_metrics(spans, tracer, rec, totals)
            units = dict(spans.PER_LAYER)
        else:
            metrics = {name: report[name][0] for name, _ in END_TO_END}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in report.items():
        print(f"{args.workload}/{name} {value:.6g} {unit}")
    for kind in sorted(rec.attempted):
        print(f"# ops {kind}: attempted={rec.attempted[kind]} "
              f"failed={rec.failed[kind]}")
    for what, count in rec.errors.most_common(5):
        print(f"# failure x{count}: {what}")
    if tracer is not None:
        for name, unit in spans.PER_LAYER:
            print(f"{args.workload}/{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": rec.wrong == 0,
        "attempted": sum(rec.attempted.values()),
        "failed": sum(rec.failed.values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def traced_metrics(spans, tracer, rec, totals) -> dict:
    """Per-layer metrics of a traced run, tracing overhead included."""
    written = spans.io_wchar() - tracer.wchar_start - tracer.worker_bytes()
    traced = [c for c, t in zip(rec.cycles, rec.cycle_traced) if t]
    untraced = [c for c, t in zip(rec.cycles, rec.cycle_traced) if not t]
    overhead = 0.0
    if traced and untraced:
        overhead = (statistics.median(traced) / statistics.median(untraced) - 1) * 100
    return spans.layer_metrics(
        tracer.collect(),
        batches=totals["traced_batches"],
        values_written=totals["traced_values_written"],
        written_bytes=written,
        all_values_written=totals["values_written"],
        overhead_pct=float(overhead),
    )


if __name__ == "__main__":
    sys.exit(main())
