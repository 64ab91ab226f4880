"""The benchmark's three workloads: ``ingest``, ``history`` and ``archive``.

Each workload is one closed-loop, single-client stream of operations drawn
from ``--seed``, driven through the public API only (``PartitionedSeriesDB``,
``open_store``, ``compress_many``, ``save``, ``open(lazy=True)``).  The
program receives only the generated arrays; every answer is checked against
them, and an exception or a wrong answer counts as a failed operation of its
type.  Latency samples keep failed attempts; throughput counts only
acknowledged values.  See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro.data import DATASETS, dataset_names
from repro.store import PartitionedSeriesDB, compress_many, open_store

PARTITIONS = 2
SCATTER_WIDTH = 16
# Store set-ups per run; the reported setup_s is their median.  The archive
# set-up (NeaTS compression of the whole fleet) runs once: see README.md.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Sizes:
    """Operation counts and data sizes of one run (fixed, never a duration)."""

    per_generator: int = 4  # fleet = per_generator series of each generator
    preload: int = 4096  # values per series before the timed phase
    batch: int = 64  # values per series per ingest tick
    range_len: int = 1024
    ingest_ticks: int = 50
    ranges_per_tick: int = 10
    flush_every: int = 25
    recent_window: int = 8192
    history_cycles: int = 125
    archive_cycles: int = 500
    seal_threshold: int | None = None  # None: the store's shipped default
    strict_tails: bool = True  # refuse a percentile with < 10 samples beyond


FULL = Sizes()
# Seconds-scale sizes for the self-test: small NeaTS inputs, same code paths.
QUICK = Sizes(
    per_generator=1,
    preload=512,
    range_len=128,
    ingest_ticks=6,
    ranges_per_tick=3,
    flush_every=3,
    recent_window=1024,
    history_cycles=6,
    archive_cycles=6,
    seal_threshold=256,
    strict_tails=False,
)


def percentile(samples, q: float, strict: bool) -> float:
    """The ``q``-th percentile, refused unless ten samples lie beyond it."""
    if not samples:
        raise ValueError(f"no samples for p{q:g}")
    if strict and len(samples) * (100.0 - q) < 1000.0 - 1e-6:
        raise ValueError(
            f"p{q:g} needs ten samples beyond it; only {len(samples)} samples"
        )
    return float(np.percentile(np.asarray(samples), q))


def fleet(seed: int, per_generator: int, n: int) -> dict[str, np.ndarray]:
    """``per_generator`` series of ``n`` values from each ``repro.data`` generator."""
    names = dataset_names()
    seeds = np.random.SeedSequence([seed, 1]).generate_state(
        len(names) * per_generator
    )
    out = {}
    for g, name in enumerate(names):
        for j in range(per_generator):
            series_seed = int(seeds[g * per_generator + j])
            out[f"{name}-{j}"] = DATASETS[name].generate(n, seed=series_seed)
    return out


def stream_rng(seed: int) -> np.random.Generator:
    """The operation stream's generator, independent of the data's."""
    return np.random.default_rng(np.random.SeedSequence([seed, 2]))


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped worker, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def _perturb(result):
    """A wrong copy of ``result``: what a planted faulty answer looks like."""
    if isinstance(result, dict):
        key = next(iter(result))
        return {**result, key: _perturb(result[key])}
    if isinstance(result, list):
        return result[:-1]
    if isinstance(result, np.ndarray):
        wrong = result.copy()
        wrong[len(wrong) // 2] += 1
        return wrong
    return result + 1


class Recorder:
    """Timed operations of one run: samples, attempts, failures, verdicts.

    ``op`` runs one program call, keeps its latency whether it raised or
    not, and checks its answer.  ``plant_wrong`` corrupts the first checked
    answer, to show that a wrong answer is caught and counted.
    """

    def __init__(self, tracer=None, plant_wrong: bool = False) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.wrong = 0
        self.errors: Counter = Counter()
        self.cycles: list[float] = []
        self.cycle_traced: list[bool] = []
        self._cycle = 0.0
        self._tracer = tracer
        self._plant = plant_wrong
        self._op_id = 0

    def op(self, kind: str, call, check=None):
        """Time ``call()``; return ``(ok, result)``.  ``check(result)`` verifies."""
        self._op_id += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.begin_op(kind, self._op_id)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed op is data, not a crash
            elapsed = time.perf_counter() - start
            result, ok = None, False
            self.errors[f"{kind}: {type(exc).__name__}: {exc}"[:160]] += 1
        else:
            elapsed = time.perf_counter() - start
            ok = True
        if tracer is not None:
            tracer.end_op(not ok)
        self.samples[kind].append(elapsed)
        self._cycle += elapsed
        self.attempted[kind] += 1
        if ok and check is not None:
            answer = result
            if self._plant:
                self._plant = False
                answer = _perturb(result)
            if not check(answer):
                ok = False
                self.wrong += 1
                self.errors[f"{kind}: wrong answer"] += 1
        if not ok:
            self.failed[kind] += 1
        return ok, result

    def start_timed(self) -> None:
        """Set-up is over: the traced run starts counting written bytes."""
        if self._tracer is not None:
            self._tracer.start_phase()

    def discard_cycle(self) -> None:
        """Keep the operations timed so far out of every cycle."""
        self._cycle = 0.0

    def end_cycle(self, traced: bool = False) -> None:
        self.cycles.append(self._cycle)
        self.cycle_traced.append(traced)
        self._cycle = 0.0

    def verify(self, kind: str, ok: bool, what: str = "") -> None:
        """An untimed end-of-run check, counted like an operation."""
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1
            self.wrong += 1
            self.errors[f"{kind}: {what}"[:160]] += 1


def _same(expected):
    return lambda got: bool(np.array_equal(np.asarray(got), expected))


def _scan_rate(rec: Recorder, n: int) -> float:
    """Values returned by successful whole-series scans per second scanning."""
    done = rec.attempted["scan"] - rec.failed["scan"]
    return n * done / sum(rec.samples["scan"])


def _tracing(tracer, cycle: int) -> bool:
    """Traced runs alternate traced and untraced cycles (overhead estimate)."""
    traced = tracer is not None and cycle % 2 == 0
    if tracer is not None:
        tracer.enabled = traced
    return traced


def _store_kwargs(sizes: Sizes) -> dict:
    kwargs = {"partitions": PARTITIONS}
    if sizes.seal_threshold is not None:
        kwargs["seal_threshold"] = sizes.seal_threshold
    return kwargs


def _percentiles(name: str, samples, qs, unit: str, strict: bool, scale=1e3):
    """``{name.pQ: (value, unit)}`` for latency ``samples`` in seconds."""
    return {
        f"{name}.p{q}": (percentile(samples, q, strict) * scale, unit) for q in qs
    }


def _final_store_check(rec: Recorder, db, root: Path, data, acked, sent) -> int:
    """Close, reopen: each series a prefix of its data holding every ack."""
    rec.op("close", db.close)
    try:
        db = open_store(root)
    except Exception as exc:
        for sid in data:
            rec.verify("final_check", False, f"reopen: {type(exc).__name__}: {exc}")
        return 0
    stored = 0
    for sid, values in data.items():
        try:
            count = db.count(sid)
            got = db.decompress(sid)
        except Exception as exc:
            rec.verify("final_check", False, f"{sid}: {type(exc).__name__}")
            continue
        ok = (
            acked[sid] <= count <= sent[sid]
            and len(got) == count
            and np.array_equal(got, values[:count])
        )
        rec.verify("final_check", ok, f"{sid}: not a prefix holding every ack")
        stored += count
    rec.op("close", db.close)
    return stored


def _preloaded_store(work: Path, seed: int, sizes: Sizes, length: int):
    """Generate the fleet and preload a fresh store, :data:`SETUP_REPEATS` times.

    Every repeat starts from nothing (the previous store is closed and
    deleted) and the last store is kept.  Returns the data, the open store,
    its root and the median set-up time.
    """
    times, db, root = [], None, None
    for repeat in range(SETUP_REPEATS):
        if db is not None:
            db.close()
            shutil.rmtree(root)
        start = time.perf_counter()
        data = fleet(seed, sizes.per_generator, length)
        root = work / f"store-{repeat}"
        db = PartitionedSeriesDB(root, **_store_kwargs(sizes))
        counts = db.ingest_many({sid: v[: sizes.preload] for sid, v in data.items()})
        if counts != {sid: sizes.preload for sid in data}:
            raise RuntimeError(f"preload acknowledged wrong counts: {counts}")
        times.append(time.perf_counter() - start)
    gc.collect()
    return data, db, root, float(np.median(times))


def run_ingest(work: Path, seed: int, sizes: Sizes, rec: Recorder, tracer=None):
    """Durable writes with reads of recent data beside them."""
    total = sizes.preload + sizes.batch * sizes.ingest_ticks
    data, db, root, setup_s = _preloaded_store(work, seed, sizes, total)
    sids = list(data)
    rng = stream_rng(seed)
    acked = {sid: sizes.preload for sid in sids}
    sent = dict(acked)
    rec.start_timed()

    write_s = 0.0
    acked_values = 0
    cursor = 0
    for tick in range(sizes.ingest_ticks):
        traced = _tracing(tracer, tick)
        lo = sizes.preload + sizes.batch * tick
        batch = {sid: v[lo : lo + sizes.batch] for sid, v in data.items()}
        for sid in sids:
            sent[sid] = lo + sizes.batch
        expected = {sid: lo + sizes.batch for sid in sids}
        ok, counts = rec.op("ingest", lambda: db.ingest_many(batch), expected.__eq__)
        write_s += rec.samples["ingest"][-1]
        if ok:
            acked.update(counts)
            acked_values += sizes.batch * len(sids)
        for _ in range(sizes.ranges_per_tick):
            sid = sids[cursor % len(sids)]
            cursor += 1
            top = acked[sid]
            low = max(0, top - sizes.recent_window)
            start = int(rng.integers(low, top - sizes.range_len + 1))
            rec.op(
                "range",
                lambda: db.range(sid, start, start + sizes.range_len),
                _same(data[sid][start : start + sizes.range_len]),
            )
        if (tick + 1) % sizes.flush_every == 0:
            rec.op("flush", db.flush)
            write_s += rec.samples["flush"][-1]
        rec.end_cycle(traced)
    if tracer is not None:
        tracer.enabled = False

    stored = _final_store_check(rec, db, root, data, acked, sent)
    strict = sizes.strict_tails
    report = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "stored_bytes_per_value": (tree_bytes(root) / max(stored, 1), "B/value"),
        "ingest_values_per_s": (acked_values / write_s, "values/s"),
        **_percentiles("ingest_batch_ms", rec.samples["ingest"], (50, 80), "ms", strict),
        **_percentiles("range_ms", rec.samples["range"], (50, 90), "ms", strict),
    }
    per_tick = sizes.batch * len(sids)
    traced_ticks = sum(rec.cycle_traced)
    return report, {
        "values_written": per_tick * sizes.ingest_ticks,
        "traced_values_written": per_tick * traced_ticks,
        "traced_batches": traced_ticks,
    }


def run_history(work: Path, seed: int, sizes: Sizes, rec: Recorder, tracer=None):
    """Background compaction, then cold reads over the compacted fleet."""
    data, db, root, setup_s = _preloaded_store(work, seed, sizes, sizes.preload)
    sids = list(data)
    rng = stream_rng(seed)
    hot_values = sum(db.info()["series"][sid]["hot_values"] for sid in sids)
    if hot_values == 0:
        raise RuntimeError("no sealed hot block to compact")
    rec.start_timed()

    if tracer is not None:
        tracer.enabled = True
    ok, _ = rec.op("compact", db.compact, lambda ids: sorted(ids) == sorted(sids))
    compact_s = rec.samples["compact"][-1]
    compact_vps = hot_values / compact_s if ok else 0.0
    rec.discard_cycle()
    n = sizes.preload
    cursor = 0

    def next_sid():
        nonlocal cursor
        cursor += 1
        return sids[(cursor - 1) % len(sids)]

    def point():
        sid, k = next_sid(), int(rng.integers(n))
        rec.op("access", lambda: db.access(sid, k), lambda v: v == data[sid][k])

    def range_():
        sid, lo = next_sid(), int(rng.integers(n - sizes.range_len + 1))
        rec.op(
            "range",
            lambda: db.range(sid, lo, lo + sizes.range_len),
            _same(data[sid][lo : lo + sizes.range_len]),
        )

    def scatter():
        queries = {next_sid(): int(rng.integers(n)) for _ in range(SCATTER_WIDTH)}
        want = {sid: data[sid][k] for sid, k in queries.items()}
        rec.op("scatter", lambda: db.access_many(queries), want.__eq__)

    def scan():
        sid = next_sid()
        rec.op("scan", lambda: db.decompress(sid), _same(data[sid]))

    def open_first_answer():
        sid, k = next_sid(), int(rng.integers(n))

        def call():
            fresh = open_store(root)
            try:
                return fresh.access(sid, k)
            finally:
                fresh.close()

        rec.op("open_first_answer", call, lambda v: v == data[sid][k])

    cycle_ops = [point] * 8 + [range_] * 2 + [scatter, scan, open_first_answer]
    for cycle in range(sizes.history_cycles):
        traced = _tracing(tracer, cycle)
        for i in rng.permutation(len(cycle_ops)):
            cycle_ops[i]()
        rec.end_cycle(traced)
    if tracer is not None:
        tracer.enabled = False

    full = {sid: n for sid in sids}
    stored = _final_store_check(rec, db, root, data, full, full)
    strict = sizes.strict_tails
    samples = rec.samples
    report = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "stored_bytes_per_value": (tree_bytes(root) / max(stored, 1), "B/value"),
        "compact_values_per_s": (compact_vps, "values/s"),
        **_percentiles("point_us", samples["access"], (50, 99), "us", strict, 1e6),
        **_percentiles("range_ms", samples["range"], (50, 90), "ms", strict),
        **_percentiles("scatter_ms", samples["scatter"], (50, 90), "ms", strict),
        "scan_values_per_s": (_scan_rate(rec, n), "values/s"),
        **_percentiles(
            "open_first_answer_ms", samples["open_first_answer"], (50, 90), "ms", strict
        ),
    }
    return report, {
        "values_written": hot_values,
        "traced_values_written": hot_values if tracer is not None else 0,
        "traced_batches": 0,
    }


def run_archive(work: Path, seed: int, sizes: Sizes, rec: Recorder, tracer=None):
    """NeaTS archives: lazy open, random access and decompression, warm."""
    t0 = time.perf_counter()
    data = fleet(seed, 1, sizes.preload)
    names = list(data)
    rng = stream_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    compressed = compress_many(data, codec="neats")
    paths = {}
    for name in names:
        paths[name] = work / f"{name}.rpac"
        digits = DATASETS[name.split("-")[0]].digits
        repro.save(paths[name], compressed[name], digits=digits)
    del compressed
    held = {name: repro.open(paths[name], lazy=True) for name in names}
    for archive in held.values():
        archive.access(0)  # warm: parse and crc-check once; the stream checks
    gc.collect()
    setup_s = time.perf_counter() - t0
    rec.start_timed()

    n = sizes.preload
    cursor = 0

    def open_first_answer():
        nonlocal cursor
        name, k = names[cursor % len(names)], int(rng.integers(n))
        cursor += 1

        def call():
            with repro.open(paths[name], lazy=True) as archive:
                return archive.access(k)

        rec.op("open_first_answer", call, lambda v: v == data[name][k])

    def point():
        name, k = names[int(rng.integers(len(names)))], int(rng.integers(n))
        rec.op("access", lambda: held[name].access(k), lambda v: v == data[name][k])

    def range_():
        name = names[int(rng.integers(len(names)))]
        lo = int(rng.integers(n - sizes.range_len + 1))
        rec.op(
            "range",
            lambda: held[name].decompress_range(lo, lo + sizes.range_len),
            _same(data[name][lo : lo + sizes.range_len]),
        )

    def scan():
        name = names[int(rng.integers(len(names)))]
        rec.op("scan", held[name].decompress, _same(data[name]))

    cycle_ops = [open_first_answer] + [point] * 20 + [range_] * 4 + [scan]
    for cycle in range(sizes.archive_cycles):
        traced = _tracing(tracer, cycle)
        for i in rng.permutation(len(cycle_ops)):
            cycle_ops[i]()
        rec.end_cycle(traced)
    if tracer is not None:
        tracer.enabled = False

    for archive in held.values():
        archive.close()
    for name in names:
        with repro.open(paths[name]) as archive:
            rec.verify(
                "final_check",
                np.array_equal(archive.decompress(), data[name]),
                f"{name}: archive no longer decodes to its data",
            )
    strict = sizes.strict_tails
    samples = rec.samples
    stored = sum(p.stat().st_size for p in paths.values())
    report = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "stored_bytes_per_value": (stored / (n * len(names)), "B/value"),
        **_percentiles("point_us", samples["access"], (50, 99), "us", strict, 1e6),
        **_percentiles("range_ms", samples["range"], (50, 99), "ms", strict),
        "scan_values_per_s": (_scan_rate(rec, n), "values/s"),
        **_percentiles(
            "open_first_answer_ms", samples["open_first_answer"], (50, 90), "ms", strict
        ),
    }
    return report, {
        "values_written": 0,
        "traced_values_written": 0,
        "traced_batches": 0,
    }


WORKLOADS = {"ingest": run_ingest, "history": run_history, "archive": run_archive}


def run(name: str, seed: int, sizes: Sizes, work: Path, tracer=None, plant_wrong=False):
    """Run one workload in ``work``; returns ``(recorder, report, totals)``."""
    rec = Recorder(tracer, plant_wrong=plant_wrong)
    work.mkdir(parents=True, exist_ok=True)
    try:
        report, totals = WORKLOADS[name](work, seed, sizes, rec, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rec, report, totals


def environment(work: Path) -> dict:
    """What the figures depend on: filesystem, CPUs, versions, kernel backend."""
    from repro import kernels

    return {
        "filesystem": filesystem_type(work),
        "nproc": len(os.sched_getaffinity(0)),
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "kernel_backend": kernels.get_backend(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", ""),
    }


def filesystem_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux mountinfo)."""
    path = str(Path(path).resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                sep = fields.index("-")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[sep + 1]
    except (OSError, ValueError, IndexError):
        pass
    return fstype
