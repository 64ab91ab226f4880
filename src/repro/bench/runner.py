"""Tracked benchmarks: the committed ``BENCH_*.json`` artefacts.

The one codec-level pipeline: unlike the paper-reproduction harness
(``python -m repro.bench``, which renders the tables and figures), this
runner writes numbers that are committed and compared across changes.  Its
Table III suite runs that harness's own measurement code.

* ``BENCH_table3.json`` — the paper's Table III for every lossless codec in
  the registry on the 16 generators at their default seeds: bits per value
  (``size_bits() / n``), compress and decompress MB/s, and warm point
  access latency, per rung of a size ladder.
* ``BENCH_table3_decompression.json`` — full-decompression wall time for
  the XOR family under the scalar (``python``) and vectorised (``numpy``)
  kernel backends, with the speedup per codec.
* ``BENCH_open_latency.json`` — eager vs lazy archive open latency, and
  the cost of the first point query on each.
* ``BENCH_random_access.json`` — per-query latency and blocks decoded for
  point/range access on a lazily-opened block-structured archive.

Timings are best-of-``repeats`` (containerised CI timers are noisy; the
minimum is the most stable location statistic).  ``--quick`` shrinks the
series so the pipeline can run as a CI smoke test; the committed artefacts
come from a full run.  Every file's meta records the CPU count.

``repro bench --compare BASE.json`` then holds the run's Table III to a
committed one (:func:`compare_table3`): every ``bits_per_value`` cell the
run measured must equal BASE's exactly, and the NeaTS family's compress
speed against BASE is printed, not gated, both raw and divided by the
host factor (how much faster every other codec ran).
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from .. import kernels
from ..data import DATASETS
from .evaluation import lossless_codecs, run_evaluation

__all__ = ["run_bench", "BENCH_FILES", "compare_table3"]

#: the block-structured XOR-family codecs the decode kernels accelerate
XOR_CODECS = ("gorilla", "chimp", "chimp128", "tsxor")

BENCH_FILES = (
    "BENCH_table3.json",
    "BENCH_table3_decompression.json",
    "BENCH_open_latency.json",
    "BENCH_random_access.json",
)

_FULL_N = 1_000_000
_QUICK_N = 20_000
#: Table III's size ladder: a quick run measures the first rung only
_TABLE3_RUNGS = (4_096, 65_536)


def _series(n: int, seed: int = 42) -> np.ndarray:
    """A deterministic mixed series: smooth cycles, a walk, a flat stretch.

    The mix exercises every control path of the XOR codecs — repeats,
    window reuse, and fresh windows — so the timings are representative.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    smooth = 2000.0 * np.sin(t / 900.0)
    walk = np.cumsum(rng.integers(-6, 7, n))
    y = (smooth + walk).astype(np.int64)
    y[n // 3 : n // 3 + n // 20] = y[n // 3]
    return y


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _meta(repeats: int, **sizes) -> dict:
    return {
        **sizes,
        "repeats": repeats,
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends": list(kernels.BACKENDS),
    }


def bench_table3(rungs: tuple[int, ...], repeats: int, log=None) -> dict:
    """Table III for every lossless codec on every generator, per rung."""
    codecs = lossless_codecs()
    seeds = {name: info.seed for name, info in DATASETS.items()}
    out = {"meta": _meta(repeats, rungs=list(rungs), seeds=seeds), "rungs": {}}
    for n in rungs:
        if log:
            log(f"  {len(codecs)} codecs x {len(seeds)} generators, n={n:,}")
        result = run_evaluation(
            codecs=codecs, n=n, repeats=repeats, verbose=log is not None
        )
        out["rungs"][str(n)] = {
            cid: {ds: _table3_row(result.stats[ds][cid]) for ds in seeds}
            for cid in codecs
        }
    return out


def _table3_row(stats) -> dict:
    """One (codec, generator) cell: the three panels of Table III."""
    return {
        "bits_per_value": stats.compressed_bits / stats.n,
        "compress_mb_s": round(stats.compress_mb_s, 3),
        "decompress_mb_s": round(stats.decompress_mb_s, 3),
        "warm_access_us": round(stats.access_seconds_per_query * 1e6, 3),
    }


#: the paper's codecs, whose compress speed ``--compare`` prints against BASE
_NEATS_FAMILY = ("neats", "leats", "sneats")


def _geomean(ratios: list[float]) -> float:
    return float(np.exp(np.mean(np.log(ratios))))


def compare_table3(base: dict, new: dict) -> tuple[list[str], list[str]]:
    """Hold the Table III of a run (``new``) to a committed one (``base``).

    Returns the cells whose ``bits_per_value`` differ, one line each with
    BASE's value and the new one (a cell BASE lacks differs too), and one
    line per rung and NeaTS-family codec with the new / BASE compress MB/s
    ratio: its geometric mean, minimum and maximum over the generators.
    Each line also gives the rung's host factor, the geometric mean of the
    ratio over every other codec's cells, and the mean divided by it: a
    faster or slower host moves every codec alike, a change to NeaTS only
    its own.
    """
    differ: list[str] = []
    speed: list[str] = []
    for rung, codecs in new["rungs"].items():
        base_codecs = base["rungs"].get(rung, {})
        for cid, rows in codecs.items():
            base_rows = base_codecs.get(cid, {})
            for ds, row in rows.items():
                was = base_rows.get(ds, {}).get("bits_per_value")
                if was != row["bits_per_value"]:
                    differ.append(
                        f"n={rung} {cid} {ds}: bits_per_value "
                        f"{was} in BASE, {row['bits_per_value']} now"
                    )
        ratios = {
            cid: [
                row["compress_mb_s"] / base_codecs[cid][ds]["compress_mb_s"]
                for ds, row in rows.items()
                if base_codecs.get(cid, {}).get(ds, {}).get("compress_mb_s")
            ]
            for cid, rows in codecs.items()
        }
        host = [r for cid, rs in ratios.items() if cid not in _NEATS_FAMILY
                for r in rs]
        for cid in _NEATS_FAMILY:
            own = ratios.get(cid)
            if not own:
                continue
            mean = _geomean(own)
            line = (
                f"n={rung} {cid}: compress MB/s {mean:.3f}x BASE "
                f"(geometric mean over {len(own)} generators; "
                f"{min(own):.3f}-{max(own):.3f})"
            )
            if host:
                factor = _geomean(host)
                line += (f"; host factor {factor:.3f}x over {len(host)} other "
                         f"cells, so {mean / factor:.3f}x normalised")
            speed.append(line)
    return differ, speed


def bench_decompression(n: int, repeats: int, log=None) -> dict:
    """Scalar vs vectorised full decompression for the XOR family."""
    import repro

    series = _series(n)
    codecs = {}
    for cid in XOR_CODECS:
        if log:
            log(f"  {cid}: compressing {n:,} values")
        compressed = repro.compress(series, codec=cid)
        with kernels.use_backend("python"):
            t_python = _best(compressed.decompress, repeats)
        with kernels.use_backend("numpy"):
            decoded = compressed.decompress()
            t_numpy = _best(compressed.decompress, repeats)
        if not np.array_equal(decoded, series):
            raise AssertionError(f"{cid}: vectorised decode mismatch")
        codecs[cid] = {
            "python_seconds": round(t_python, 6),
            "numpy_seconds": round(t_numpy, 6),
            "speedup": round(t_python / t_numpy, 2),
            "numpy_mb_s": round(8.0 * n / t_numpy / 1e6, 1),
        }
        if log:
            log(f"  {cid}: python={t_python:.3f}s numpy={t_numpy:.3f}s "
                f"({codecs[cid]['speedup']}x)")
    return {"meta": _meta(repeats, n=n), "codecs": codecs}


def bench_open_latency(n: int, repeats: int, log=None) -> dict:
    """Eager vs lazy archive open, and the first point query on each."""
    import repro
    from ..codecs import open_archive, save

    series = _series(n)
    out = {"meta": _meta(repeats, n=n), "codecs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for cid in ("gorilla", "chimp"):
            path = Path(tmp) / f"{cid}.rpac"
            save(path, repro.compress(series, codec=cid))

            def eager_open():
                open_archive(path).close()

            def lazy_open():
                open_archive(path, lazy=True).close()

            def lazy_first_access():
                with open_archive(path, lazy=True) as archive:
                    archive.access(n // 2)

            out["codecs"][cid] = {
                "eager_open_ms": round(_best(eager_open, repeats) * 1e3, 3),
                "lazy_open_ms": round(_best(lazy_open, repeats) * 1e3, 3),
                "lazy_first_access_ms": round(
                    _best(lazy_first_access, repeats) * 1e3, 3
                ),
            }
            if log:
                stats = out["codecs"][cid]
                log(f"  {cid}: eager={stats['eager_open_ms']}ms "
                    f"lazy={stats['lazy_open_ms']}ms")
    return out


def bench_random_access(n: int, repeats: int, log=None) -> dict:
    """Point/range queries on a lazily-opened block-structured archive."""
    import repro
    from ..codecs import open_archive, save

    series = _series(n)
    rng = np.random.default_rng(7)
    points = rng.integers(0, n, 256)
    out = {"meta": _meta(repeats, n=n), "codecs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for cid in ("gorilla", "tsxor"):
            path = Path(tmp) / f"{cid}.rpac"
            save(path, repro.compress(series, codec=cid))
            with open_archive(path, lazy=True) as archive:
                values = archive.values()
                t0 = time.perf_counter()
                for k in points:
                    values[int(k)]
                per_query = (time.perf_counter() - t0) / len(points)
                decoded = archive.compressed.blocks_decoded
                t_range = _best(lambda: values[n // 4 : n // 4 + 2048], repeats)
            out["codecs"][cid] = {
                "point_query_us": round(per_query * 1e6, 2),
                "blocks_decoded_for_point_queries": int(decoded),
                "range_2048_ms": round(t_range * 1e3, 3),
            }
            if log:
                stats = out["codecs"][cid]
                log(f"  {cid}: point={stats['point_query_us']}us "
                    f"({decoded} blocks for {len(points)} queries)")
    return out


def run_bench(
    out_dir, quick: bool = False, n: int | None = None, log=None
) -> list[Path]:
    """Run the tracked pipeline; write one JSON per benchmark.

    Returns the written paths.  ``quick`` shrinks the series and takes one
    repeat (CI smoke); ``n`` overrides every series length outright, the
    Table III ladder included.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if n:
        rungs = (n,)
    else:
        rungs = _TABLE3_RUNGS[:1] if quick else _TABLE3_RUNGS
        n = _QUICK_N if quick else _FULL_N
    repeats = 1 if quick else 3
    suites = (
        ("BENCH_table3.json", lambda: bench_table3(rungs, repeats, log=log)),
        ("BENCH_table3_decompression.json",
         lambda: bench_decompression(n, repeats, log=log)),
        ("BENCH_open_latency.json",
         lambda: bench_open_latency(n, repeats, log=log)),
        ("BENCH_random_access.json",
         lambda: bench_random_access(n, repeats, log=log)),
    )
    written = []
    for filename, suite in suites:
        if log:
            log(f"{filename}:")
        path = out_dir / filename
        path.write_text(json.dumps(suite(), indent=2) + "\n")
        written.append(path)
    return written
