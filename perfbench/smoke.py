#!/usr/bin/env python3
"""Self-test of the benchmark at quick sizes; finishes in well under a minute.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --quick`` untraced and traced and checks
that every named metric appears with its unit: the end-to-end metrics and
the per-layer metrics on the result line, and the workload's own metrics
(README.md, "Workload metrics") on the report lines.  It also checks that
``BENCHMARK.json`` lists the same metrics, and that a planted wrong answer
(``--plant-wrong``) is counted as a failed operation and clears ``correct``.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: each workload's own metrics, as the report lines print them
WORKLOAD_METRICS = {
    "ingest": [
        ("setup_s", "s"), ("peak_rss_mb", "MiB"),
        ("stored_bytes_per_value", "B/value"),
        ("ingest_values_per_s", "values/s"),
        ("ingest_batch_ms.p50", "ms"), ("ingest_batch_ms.p80", "ms"),
        ("range_ms.p50", "ms"), ("range_ms.p90", "ms"),
    ],
    "history": [
        ("setup_s", "s"), ("peak_rss_mb", "MiB"),
        ("stored_bytes_per_value", "B/value"),
        ("compact_values_per_s", "values/s"),
        ("point_us.p50", "us"), ("point_us.p99", "us"),
        ("range_ms.p50", "ms"), ("range_ms.p90", "ms"),
        ("scatter_ms.p50", "ms"), ("scatter_ms.p90", "ms"),
        ("scan_values_per_s", "values/s"),
        ("open_first_answer_ms.p50", "ms"), ("open_first_answer_ms.p90", "ms"),
    ],
    "archive": [
        ("setup_s", "s"), ("peak_rss_mb", "MiB"),
        ("stored_bytes_per_value", "B/value"),
        ("point_us.p50", "us"), ("point_us.p99", "us"),
        ("range_ms.p50", "ms"), ("range_ms.p99", "ms"),
        ("scan_values_per_s", "values/s"),
        ("open_first_answer_ms.p50", "ms"), ("open_first_answer_ms.p90", "ms"),
    ],
}


def check(condition: bool, what: str) -> None:
    if not condition:
        print(f"smoke: FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def run(workload: str, trace: int, *extra: str):
    """One quick run: (result line as a dict, report lines name -> (value, unit))."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=300)
    check(out.returncode == 0, f"{' '.join(cmd)} exited {out.returncode}:\n"
          + out.stderr[-2000:])
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = {}
    for line in lines[:-1]:
        name, _, rest = line.partition(" ")
        if name.startswith(f"{workload}/"):
            value, unit = rest.split()
            report[name.split("/", 1)[1]] = (float(value), unit)
    return result, report


def check_result(result: dict, expected: list, what: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{what}: attempted {result['attempted']!r}")
    check(isinstance(result["failed"], int), f"{what}: failed {result['failed']!r}")
    metrics = result["metrics"]
    check(list(metrics) == [name for name, _ in expected],
          f"{what}: metrics {list(metrics)}")
    for name, unit in expected:
        value = metrics[name]["value"]
        check(metrics[name]["unit"] == unit, f"{what}: {name} unit")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{what}: {name} value {value!r}")


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import END_TO_END
    from spans import PER_LAYER

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text("utf-8"))
        check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END,
              "BENCHMARK.json end_to_end differs from run.END_TO_END")
        check([(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER,
              "BENCHMARK.json per_layer differs from spans.PER_LAYER")
        check([w["name"] for w in spec["workloads"]] == list(WORKLOAD_METRICS),
              "BENCHMARK.json workloads differ")
    for workload, own in WORKLOAD_METRICS.items():
        result, report = run(workload, 0)
        check_result(result, END_TO_END, f"{workload} --trace 0")
        for name, unit in own + END_TO_END:
            check(report.get(name, (None, None))[1] == unit,
                  f"{workload}: report line {workload}/{name} [{unit}] missing")
        traced, _ = run(workload, 1)
        check_result(traced, PER_LAYER, f"{workload} --trace 1")
        print(f"smoke: {workload}: {len(own)} workload metrics, "
              f"{len(END_TO_END)} end-to-end, {len(PER_LAYER)} per-layer; "
              f"attempted={result['attempted']} failed={result['failed']}")
    clean, _ = run("archive", 0)
    planted, _ = run("archive", 0, "--plant-wrong")
    check(planted["failed"] == clean["failed"] + 1,
          f"planted wrong answer: failed {clean['failed']} -> {planted['failed']}")
    check(planted["correct"] is False, "planted wrong answer left correct true")
    print("smoke: planted wrong answer counted as one failed op; all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
