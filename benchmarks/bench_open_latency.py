"""Cold open latency: mmap-backed lazy archives and native codec payloads.

Measures the two claims of the zero-copy open path:

* ``repro.open(path, lazy=True)`` -> first ``access(k)`` beats the eager
  open on a large (>= 1M values) archive: the lazy path mmaps the file and
  parses the frame zero-copy off the map instead of reading, crc-ing, and
  copying the whole file up front;
* loading a native DAC / LeCo / ALP frame (a direct O(size) parse) beats
  loading the old values-fallback frame for the same data, which had to
  re-run the compressor.

The second number is this file's alone: ``repro bench`` tracks eager vs
lazy open for the XOR family (``BENCH_open_latency.json``), and no other
harness loads a values-fallback frame.

Run the full-scale numbers as a script::

    PYTHONPATH=src python benchmarks/bench_open_latency.py
    PYTHONPATH=src python benchmarks/bench_open_latency.py --n 2000000
    PYTHONPATH=src python benchmarks/bench_open_latency.py --smoke

or through pytest (explicit path; bench_* files are not swept by tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_open_latency.py -v
"""

import argparse
import statistics
import struct
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

import repro
from repro.codecs import codec_spec, open_archive, save
from repro.codecs.container import ARCHIVE_MAGIC
from repro.codecs.serialize import KIND_VALUES, encode_values, write_frame

N_LAZY = 1_000_000  # archive size for the lazy-vs-eager comparison
N_NATIVE = 200_000  # series size for the native-vs-fallback comparison
REPEATS = 5
DIGITS = 2

NATIVE_CODECS = ("dac", "leco", "alp")


def make_series(n: int) -> np.ndarray:
    """Smooth-plus-walk, the shape these codecs are built for."""
    rng = np.random.default_rng(42)
    smooth = 2000 * np.sin(np.arange(n) / 450)
    return (smooth + np.cumsum(rng.integers(-3, 4, n))).astype(np.int64)


def _params(cid: str) -> dict:
    return {"digits": DIGITS} if codec_spec(cid).needs_digits else {}


def write_fallback_archive(path, compressed, digits: int = DIGITS) -> None:
    """An archive holding the pre-native (values-kind) frame for ``compressed``.

    This is byte-layout-identical to what the repo wrote before DAC, LeCo,
    and ALP gained native payloads — the backward-compatibility load path.
    """
    frame = write_frame(
        compressed.codec_id,
        compressed.codec_params or {},
        len(compressed),
        KIND_VALUES,
        encode_values(compressed.decompress()),
    )
    header = struct.pack(
        "<8siIQ", ARCHIVE_MAGIC, digits, zlib.crc32(frame), len(frame)
    )
    Path(path).write_bytes(header + frame)


def time_open_access(path, k: int, repeats: int, lazy: bool) -> float:
    """Median seconds for a cold open -> first ``access(k)``."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        archive = open_archive(path, lazy=lazy)
        value = archive.access(k)
        samples.append(time.perf_counter() - t0)
        del archive, value
    return statistics.median(samples)


def run_lazy_vs_eager(n: int, repeats: int, codec: str, workdir: Path) -> dict:
    """Open->first-access latency, eager vs mmap-backed lazy."""
    values = make_series(n)
    path = workdir / f"lazy-{codec}.rpac"
    save(path, repro.compress(values, codec=codec, **_params(codec)), DIGITS)
    k = n // 2
    eager = time_open_access(path, k, repeats, lazy=False)
    lazy = time_open_access(path, k, repeats, lazy=True)
    return {
        "codec": codec,
        "n": n,
        "bytes": path.stat().st_size,
        "eager_s": eager,
        "lazy_s": lazy,
        "speedup": eager / lazy if lazy else float("inf"),
    }


def run_native_vs_fallback(n: int, repeats: int, workdir: Path) -> list[dict]:
    """Open->first-access latency, native frame vs values-fallback frame."""
    values = make_series(n)
    out = []
    for cid in NATIVE_CODECS:
        compressed = repro.compress(values, codec=cid, **_params(cid))
        native_path = workdir / f"{cid}-native.rpac"
        fallback_path = workdir / f"{cid}-fallback.rpac"
        save(native_path, compressed, DIGITS)
        write_fallback_archive(fallback_path, compressed)
        k = n // 2
        native = time_open_access(native_path, k, repeats, lazy=False)
        fallback = time_open_access(fallback_path, k, repeats, lazy=False)
        out.append({
            "codec": cid,
            "n": n,
            "native_s": native,
            "fallback_s": fallback,
            "speedup": fallback / native if native else float("inf"),
        })
    return out


# -- pytest entry points -------------------------------------------------------


def test_native_load_beats_fallback_smoke(tmp_path):
    """Native parse must beat re-running the compressor, even at small scale."""
    for row in run_native_vs_fallback(20_000, repeats=3, workdir=tmp_path):
        assert row["speedup"] > 1.0, (
            f"{row['codec']}: native {row['native_s']:.4f}s vs "
            f"fallback {row['fallback_s']:.4f}s"
        )


def test_lazy_open_matches_eager_answers(tmp_path):
    """Lazy and eager opens answer identically (timing checked at full scale)."""
    values = make_series(30_000)
    path = tmp_path / "archive.rpac"
    save(path, repro.compress(values, codec="gorilla"), DIGITS)
    eager = open_archive(path)
    lazy = open_archive(path, lazy=True)
    assert len(lazy) == len(eager) == len(values)
    assert lazy.access(17_123) == eager.access(17_123) == values[17_123]
    assert np.array_equal(lazy.decompress(), eager.decompress())


# -- script entry point --------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=N_LAZY,
                        help="values in the lazy-vs-eager archive")
    parser.add_argument("--n-native", type=int, default=N_NATIVE,
                        help="values in the native-vs-fallback archives")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--codec", default="gorilla",
                        help="codec for the lazy-vs-eager archive")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (seconds, not minutes)")
    args = parser.parse_args()
    if args.smoke:
        args.n, args.n_native, args.repeats = 60_000, 20_000, 3

    with tempfile.TemporaryDirectory(prefix="repro-bench-open-") as tmp:
        workdir = Path(tmp)
        row = run_lazy_vs_eager(args.n, args.repeats, args.codec, workdir)
        # Informational only: at smoke sizes the lazy margin is a few percent
        # (it saves the read copy + crc, not the parse), which is inside
        # scheduler noise on shared CI runners — don't gate on it.
        print(f"lazy vs eager open -> first access "
              f"({row['codec']}, {row['n']:,} values, {row['bytes']:,} bytes):")
        print(f"  eager : {1e3 * row['eager_s']:8.2f} ms")
        print(f"  lazy  : {1e3 * row['lazy_s']:8.2f} ms   "
              f"({row['speedup']:.2f}x)")

        ok = True
        print(f"native vs values-fallback load ({args.n_native:,} values):")
        for r in run_native_vs_fallback(args.n_native, args.repeats, workdir):
            print(f"  {r['codec']:5s}: native {1e3 * r['native_s']:8.2f} ms   "
                  f"fallback {1e3 * r['fallback_s']:8.2f} ms   "
                  f"({r['speedup']:.2f}x)")
            ok = ok and r["speedup"] > 1.0
    print("native loads all faster than fallback: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
