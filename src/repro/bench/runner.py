"""Tracked kernel benchmarks: the committed ``BENCH_*.json`` artefacts.

Unlike the paper-reproduction harness (tables/figures), this runner tracks
the *repository's own* hot paths across PRs:

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
come from a full run.
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from .. import kernels

__all__ = ["run_bench", "BENCH_FILES"]

#: the block-structured XOR-family codecs the decode kernels accelerate
XOR_CODECS = ("gorilla", "chimp", "chimp128", "tsxor")

BENCH_FILES = (
    "BENCH_table3_decompression.json",
    "BENCH_open_latency.json",
    "BENCH_random_access.json",
)

_FULL_N = 1_000_000
_QUICK_N = 20_000


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


def _meta(n: int, repeats: int) -> dict:
    return {
        "n": n,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends": list(kernels.BACKENDS),
    }


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
    return {"meta": _meta(n, repeats), "codecs": codecs}


def bench_open_latency(n: int, repeats: int, log=None) -> dict:
    """Eager vs lazy archive open, and the first point query on each."""
    import repro
    from ..codecs import open_archive, save

    series = _series(n)
    out = {"meta": _meta(n, repeats), "codecs": {}}
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
    out = {"meta": _meta(n, repeats), "codecs": {}}
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

    Returns the written paths.  ``quick`` shrinks the series (CI smoke);
    ``n`` overrides the series length outright.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = n or (_QUICK_N if quick else _FULL_N)
    repeats = 1 if quick else 3
    suites = (
        ("BENCH_table3_decompression.json", bench_decompression),
        ("BENCH_open_latency.json", bench_open_latency),
        ("BENCH_random_access.json", bench_random_access),
    )
    written = []
    for filename, suite in suites:
        if log:
            log(f"{filename}:")
        payload = suite(n, repeats, log=log)
        path = out_dir / filename
        path.write_text(json.dumps(payload, indent=2) + "\n")
        written.append(path)
    return written
