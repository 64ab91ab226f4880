"""Append latency: the appendable container vs decode-everything rewrite.

Measures the two claims of the streaming ingest path:

* appending M values to an ``RPAL0001`` archive does O(M) work — latency
  is independent of the S values already sealed in the file (each append
  compresses only the new chunk and lands it as one fsync'd tail record);
* the append is far cheaper than what a one-shot ``RPAC0001`` archive
  forces: decode everything, concatenate, recompress, rewrite — O(S + M).

No other harness times an ``RPAL0001`` append: ``repro bench`` tracks
codec-level numbers and ``perfbench/`` the store's group log, not the
appendable container.

Run the full-scale numbers as a script::

    PYTHONPATH=src python benchmarks/bench_append.py
    PYTHONPATH=src python benchmarks/bench_append.py --sizes 10000 1000000
    PYTHONPATH=src python benchmarks/bench_append.py --smoke

or through pytest (explicit path; bench_* files are not swept by tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_append.py -v
"""

import argparse
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.codecs.container import AppendableArchive, open_archive, save

SIZES = (10_000, 100_000, 1_000_000)  # sealed values already in the archive
BATCH = 5_000  # values appended per measurement
REPEATS = 5
CODEC = "gorilla"
CHUNK = 50_000  # build-time append granularity


def make_series(n: int) -> np.ndarray:
    """Smooth-plus-walk, the shape these codecs are built for."""
    rng = np.random.default_rng(7)
    smooth = 2000 * np.sin(np.arange(n) / 450)
    return (smooth + np.cumsum(rng.integers(-3, 4, n))).astype(np.int64)


def build_archives(values: np.ndarray, workdir: Path, tag: str) -> tuple[Path, Path]:
    """An appendable and a one-shot archive holding the same ``values``."""
    rpal = workdir / f"base-{tag}.rpal"
    log = AppendableArchive.create(rpal, codec=CODEC)
    for lo in range(0, len(values), CHUNK):
        log.append(values[lo : lo + CHUNK])
    rpac = workdir / f"base-{tag}.rpac"
    save(rpac, repro.compress(values, codec=CODEC))
    return rpal, rpac


def time_append(rpal: Path, batch: np.ndarray, repeats: int) -> float:
    """Median seconds for open -> one fsync'd append of ``batch``."""
    samples = []
    for i in range(repeats):
        work = rpal.with_name(f"{rpal.stem}-r{i}.rpal")
        shutil.copy(rpal, work)  # setup, not measured
        t0 = time.perf_counter()
        log = AppendableArchive.open(work)
        log.append(batch)
        samples.append(time.perf_counter() - t0)
        work.unlink()
    return statistics.median(samples)


def time_rewrite(rpac: Path, batch: np.ndarray, repeats: int) -> float:
    """Median seconds for the one-shot alternative: decode + recompress + save."""
    samples = []
    for i in range(repeats):
        work = rpac.with_name(f"{rpac.stem}-r{i}.rpac")
        shutil.copy(rpac, work)
        t0 = time.perf_counter()
        archive = open_archive(work)
        merged = np.concatenate([archive.decompress(), batch])
        save(work, repro.compress(merged, codec=CODEC), archive.digits)
        samples.append(time.perf_counter() - t0)
        work.unlink()
    return statistics.median(samples)


def run(sizes, batch_n: int, repeats: int, workdir: Path) -> list[dict]:
    batch = make_series(batch_n)
    out = []
    for n in sizes:
        rpal, rpac = build_archives(make_series(n), workdir, tag=str(n))
        append_s = time_append(rpal, batch, repeats)
        rewrite_s = time_rewrite(rpac, batch, repeats)
        out.append({
            "n": n,
            "batch": batch_n,
            "append_s": append_s,
            "rewrite_s": rewrite_s,
            "speedup": rewrite_s / append_s if append_s else float("inf"),
        })
    return out


# -- pytest entry points -------------------------------------------------------


def test_append_beats_full_rewrite(tmp_path):
    """One tail record must beat decode-everything + recompress + rewrite."""
    (row,) = run([60_000], batch_n=2_000, repeats=3, workdir=tmp_path)
    assert row["speedup"] > 1.0, (
        f"append {row['append_s']:.4f}s vs rewrite {row['rewrite_s']:.4f}s"
    )


def test_append_latency_independent_of_archive_size(tmp_path):
    """O(M) contract: sealed history size must not dominate append cost.

    The bound is deliberately loose (scan of the record headers and the
    file-system tail write are not perfectly free), but a rewrite-shaped
    O(S) append would blow through it by an order of magnitude.
    """
    rows = run([5_000, 200_000], batch_n=2_000, repeats=5, workdir=tmp_path)
    small, big = rows[0]["append_s"], rows[1]["append_s"]
    assert big < 10 * small, f"append at 200k values {big:.4f}s vs 5k {small:.4f}s"


# -- script entry point --------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help="sealed archive sizes to measure against")
    parser.add_argument("--batch", type=int, default=BATCH,
                        help="values per append")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (seconds, not minutes)")
    args = parser.parse_args()
    if args.smoke:
        args.sizes, args.batch, args.repeats = [5_000, 100_000], 2_000, 3

    with tempfile.TemporaryDirectory(prefix="repro-bench-append-") as tmp:
        rows = run(args.sizes, args.batch, args.repeats, Path(tmp))
    print(f"append {args.batch:,} values vs full rewrite [{CODEC}]:")
    for row in rows:
        print(f"  S={row['n']:>9,}: append {1e3 * row['append_s']:8.2f} ms   "
              f"rewrite {1e3 * row['rewrite_s']:8.2f} ms   "
              f"({row['speedup']:.1f}x)")
    appends = [row["append_s"] for row in rows]
    spread = max(appends) / min(appends) if min(appends) else float("inf")
    print(f"append latency spread across sizes: {spread:.2f}x "
          "(O(M) contract: should stay near 1)")
    ok = all(row["speedup"] > 1.0 for row in rows)
    print("append beats rewrite at every size: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
