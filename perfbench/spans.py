"""Span tracing for the traced run (``--trace 1``), installed from here only.

:func:`install` wraps the public entry points of each layer of the program
(store fan-out, SeriesDB, tiered store, container, codec registry, NeaTS,
Gorilla, decode kernels, ``os.fsync``) in span recorders.  A span is
``(id, parent, name, start, end, op, error, attrs)``; spans of one benchmark
operation share the op id.  Spans are kept in memory.  Forked workers (the
store's ingest and compaction fan-out) record their own spans and append
them to a per-pid file after each task; :meth:`Tracer.collect` merges them
with the parent's at the end, so work done in workers is counted too.

:func:`layer_metrics` turns the merged spans into the per-layer metrics: a
layer's ``*_ms``/``*_us`` figure is the median *self* time of its spans (the
span's duration minus the part of it that child spans cover), throughput
figures divide values by total span time, and ``<layer>.errors`` counts the
layer's spans that raised.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

#: every per-layer metric of the traced run, with its unit
PER_LAYER = [
    ("parallel.process_pools", "count"),
    ("parallel.process_map_ms", "ms"),
    ("parallel.thread_map_ms", "ms"),
    ("parallel.errors", "count"),
    ("seriesdb.open_ms", "ms"),
    ("seriesdb.replayed_records", "count"),
    ("seriesdb.flush_ms", "ms"),
    ("seriesdb.manifest_writes_per_batch", "count/batch"),
    ("seriesdb.shard_loads_per_read", "count/read"),
    ("seriesdb.errors", "count"),
    ("tiered.extend_ms", "ms"),
    ("tiered.to_bytes_ms", "ms"),
    ("tiered.rewritten_bytes_per_value", "B/value"),
    ("tiered.from_bytes_ms", "ms"),
    ("tiered.access_us", "us"),
    ("tiered.range_ms", "ms"),
    ("tiered.consolidate_ms", "ms"),
    ("tiered.errors", "count"),
    ("container.write_atomic_per_batch", "count/batch"),
    ("container.write_atomic_ms", "ms"),
    ("container.group_append_ms", "ms"),
    ("container.open_ms", "ms"),
    ("container.first_touch_self_ms", "ms"),
    ("container.errors", "count"),
    ("codecs.load_compressed_ms", "ms"),
    ("codecs.errors", "count"),
    ("neats.compress_values_per_s", "values/s"),
    ("neats.access_us", "us"),
    ("neats.decompress_range_ms", "ms"),
    ("neats.decompress_values_per_s", "values/s"),
    ("neats.bits_per_value", "bits/value"),
    ("neats.errors", "count"),
    ("gorilla.compress_values_per_s", "values/s"),
    ("gorilla.decompress_range_ms", "ms"),
    ("gorilla.errors", "count"),
    ("kernels.xor_decode_ms", "ms"),
    ("kernels.decoded_per_returned", "ratio"),
    ("kernels.segments_eval_ms", "ms"),
    ("kernels.errors", "count"),
    ("os.fsyncs_per_batch", "count/batch"),
    ("os.fsync_ms", "ms"),
    ("io.written_bytes_per_value", "B/value"),
    ("os.errors", "count"),
    ("trace.overhead_pct", "%"),
]
LAYERS = [name.split(".")[0] for name, _ in PER_LAYER if name.endswith(".errors")]

_TRACER: "Tracer | None" = None


class Tracer:
    """In-memory span store of one process; forked children start empty."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.enabled = False
        self.spans: list[tuple] = []
        self.wchar_start = 0
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._op = 0
        self._op_token = None
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self._pid = os.getpid()
        self.spans = []
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent=None):
        stack = self._stack()
        span_id = f"{self._pid}.{next(self._ids)}"
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def end(self, token, error: bool, attrs=None) -> None:
        end = time.perf_counter()
        span_id, parent, name, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append(
            (span_id, parent, name, start, end, self._op, error,
             attrs() if attrs is not None and not error else None)
        )

    def event(self, name: str, **attrs) -> None:
        now = time.perf_counter()
        stack = self._stack()
        self.spans.append((f"{self._pid}.{next(self._ids)}",
                           stack[-1] if stack else None, name, now, now,
                           self._op, False, attrs or None))

    def begin_op(self, kind: str, op_id: int) -> None:
        """A benchmark operation starts: later spans carry its id."""
        self._op = op_id
        self._op_token = self.begin("op." + kind) if self.enabled else None

    def end_op(self, error: bool) -> None:
        if self._op_token is not None:
            self.end(self._op_token, error)
            self._op_token = None

    def dump(self) -> None:
        """Append this process's spans to its per-pid file and forget them."""
        if not self.spans:
            return
        lines = "".join(json.dumps(span) + "\n" for span in self.spans)
        with open(self.out_dir / f"spans-{self._pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(lines)
        self.spans = []

    def start_phase(self) -> None:
        """The timed phase starts: remember the written-bytes counter."""
        self.wchar_start = io_wchar()

    def worker_bytes(self) -> int:
        """Bytes of span files written by other (worker) processes."""
        own = f"spans-{self._pid}.jsonl"
        return sum(p.stat().st_size for p in self.out_dir.glob("spans-*.jsonl")
                   if p.name != own)

    def collect(self) -> list[tuple]:
        """Every span of every process, the parent's included."""
        self.dump()
        spans = []
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
        return spans


def _traced(name: str, fn, attrs=None):
    """``fn`` wrapped in a span; ``attrs(args, kwargs, result)`` adds fields."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = _TRACER
        if tracer is None or not tracer.enabled:
            return fn(*args, **kwargs)
        token = tracer.begin(name)
        result, error = None, True
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            tracer.end(token, error, None if attrs is None
                       else lambda: attrs(args, kwargs, result))

    return traced


def _worker_task(fn, parent, task):
    """Runs in a fan-out worker: one span per task, spans flushed after it."""
    tracer = _TRACER
    if tracer is None or not tracer.enabled:
        return fn(task)
    token = tracer.begin("parallel.worker_task", parent=parent)
    error = True
    try:
        result = fn(task)
        error = False
        return result
    finally:
        tracer.end(token, error)
        tracer.dump()


def _thread_task(fn, parent, task):
    tracer = _TRACER
    tracer._local.stack = [parent]
    try:
        return fn(task)
    finally:
        tracer._local.stack = []


def _fan_out(name: str, fn_map, task_wrapper):
    """Wrap ``process_map``/``thread_map``: span around it, tasks linked to it."""

    @functools.wraps(fn_map)
    def traced(fn, tasks, **kwargs):
        tracer = _TRACER
        if tracer is None or not tracer.enabled:
            return fn_map(fn, tasks, **kwargs)
        token = tracer.begin(name)
        error = True
        try:
            result = fn_map(functools.partial(task_wrapper, fn, token[0]),
                            tasks, **kwargs)
            error = False
            return result
        finally:
            tracer.end(token, error)

    return traced


class _CountedPool(ProcessPoolExecutor):
    """The store's process pool, counted once per construction."""

    def __init__(self, *args, **kwargs):
        if _TRACER is not None and _TRACER.enabled:
            _TRACER.event("parallel.process_pool")
        super().__init__(*args, **kwargs)


def _rebind(orig, replacement) -> None:
    """Point every ``repro`` module binding of ``orig`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, replacement)


def _wrap_function(orig, name, attrs=None) -> None:
    _rebind(orig, _traced(name, orig, attrs))


def _wrap_method(cls, attr: str, name: str, attrs=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_traced(name, raw.__func__, attrs)))
    else:
        setattr(cls, attr, _traced(name, raw, attrs))


def install(out_dir: Path) -> Tracer:
    """Create the process tracer and wrap every layer's entry points."""
    global _TRACER
    import repro.store.parallel as parallel
    from repro import kernels
    from repro.baselines.gorilla import GorillaCompressor, _XorBlockCompressed
    from repro.codecs import container, registry
    from repro.core.compressor import CompressedSeries, NeaTS
    from repro.core.tiered import TieredStore
    from repro.store.seriesdb import SeriesDB

    _TRACER = Tracer(out_dir)
    untouched = weakref.WeakSet()  # archives opened while tracing, not read yet

    def opened(args, kwargs, result):
        untouched.add(result)

    def first_touch(args, kwargs, result):
        first = args[0] in untouched
        untouched.discard(args[0])
        return {"first": first}

    def size_of(args, kwargs, result):
        return {"n": len(result)}

    def neats_size(result, n):
        return {"n": int(n), "bits": int(result.size_bits())}

    # store.parallel: fan-out primitives and the pool itself.
    _rebind(parallel.process_map,
            _fan_out("parallel.process_map", parallel.process_map, _worker_task))
    _rebind(parallel.thread_map,
            _fan_out("parallel.thread_map", parallel.thread_map, _thread_task))
    parallel.ProcessPoolExecutor = _CountedPool
    # store.seriesdb
    _wrap_method(SeriesDB, "open", "seriesdb.open")
    _wrap_method(SeriesDB, "flush", "seriesdb.flush")
    for read in ("access", "range", "decompress"):
        _wrap_method(SeriesDB, read, "seriesdb.read")
    _wrap_function(container.read_group_log, "seriesdb.replay",
                   lambda a, k, r: {"records": len(r)})
    # core.tiered
    _wrap_method(TieredStore, "extend", "tiered.extend")
    _wrap_method(TieredStore, "to_bytes", "tiered.to_bytes",
                 lambda a, k, r: {"bytes": len(r)})
    _wrap_method(TieredStore, "from_bytes", "tiered.from_bytes")
    _wrap_method(TieredStore, "access", "tiered.access")
    _wrap_method(TieredStore, "range", "tiered.range")
    _wrap_method(TieredStore, "consolidate", "tiered.consolidate")
    # codecs.container and the codec registry
    _wrap_function(container.write_atomic, "container.write_atomic",
                   lambda a, k, r: {"manifest": Path(a[0]).name == "MANIFEST.json"})
    _wrap_method(container.GroupLog, "append_group", "container.group_append")
    _wrap_function(container.open_archive, "container.open", opened)
    _wrap_method(container.Archive, "access", "container.access", first_touch)
    _wrap_function(registry.load_compressed, "codecs.load_compressed")
    # core NeaTS (the cold codec)
    _wrap_method(NeaTS, "compress", "neats.compress",
                 lambda a, k, r: neats_size(r, len(a[1])))
    _wrap_method(CompressedSeries, "from_payload", "neats.load",
                 lambda a, k, r: neats_size(r, r.n))
    _wrap_method(CompressedSeries, "access", "neats.access")
    _wrap_method(CompressedSeries, "decompress_range", "neats.decompress_range")
    _wrap_method(CompressedSeries, "decompress", "neats.decompress", size_of)
    # baselines.gorilla (the hot codec)
    _wrap_method(GorillaCompressor, "compress", "gorilla.compress",
                 lambda a, k, r: {"n": len(a[1])})
    _wrap_method(_XorBlockCompressed, "access", "gorilla.read",
                 lambda a, k, r: {"n": 1})
    _wrap_method(_XorBlockCompressed, "decompress_range",
                 "gorilla.decompress_range", size_of)
    _wrap_method(_XorBlockCompressed, "decompress", "gorilla.read", size_of)
    # kernels: callers look these up on the package at call time; the
    # package binding alone is wrapped so batch decodes are not counted twice.
    kernels.decode_xor_block = _traced(
        "kernels.xor_decode", kernels.decode_xor_block,
        lambda a, k, r: {"decoded": int(a[3])})
    kernels.decode_xor_blocks = _traced(
        "kernels.xor_decode", kernels.decode_xor_blocks,
        lambda a, k, r: {"decoded": len(r)})
    kernels.evaluate_fragments = _traced("kernels.segments_eval",
                                         kernels.evaluate_fragments)
    # OS
    os.fsync = _traced("os.fsync", os.fsync)
    return _TRACER


def io_wchar() -> int:
    """Bytes this process and its reaped workers passed to write calls."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def _self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))
    out = {}
    for span_id, _, _, start, end, *_ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(spans, *, batches: int, values_written: int,
                  written_bytes: int, all_values_written: int,
                  overhead_pct: float) -> dict:
    """Every metric of :data:`PER_LAYER` from the merged spans of a run."""
    self_time = _self_times(spans)
    by_id = {span[0]: span for span in spans}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def median_self(name, scale, where=None):
        times = [self_time[s[0]] for s in by_name[name]
                 if where is None or where(s)]
        return float(np.median(times)) * scale if times else 0.0

    def attr_sum(name, key):
        return sum((s[7] or {}).get(key, 0) for s in by_name[name])

    def rate(name):
        total = sum(s[4] - s[3] for s in by_name[name])
        return attr_sum(name, "n") / total if total > 0 else 0.0

    def per(count, base):
        return count / base if base else 0.0

    def under_read(span):
        parent = span[1]
        while parent in by_id:
            if by_id[parent][2] == "seriesdb.read":
                return True
            parent = by_id[parent][1]
        return False

    loads_in_reads = sum(1 for s in by_name["tiered.from_bytes"] if under_read(s))
    neats_n = attr_sum("neats.compress", "n") + attr_sum("neats.load", "n")
    neats_bits = attr_sum("neats.compress", "bits") + attr_sum("neats.load", "bits")
    returned = attr_sum("gorilla.read", "n") + attr_sum("gorilla.decompress_range", "n")
    errors = defaultdict(int)
    for span in spans:
        if span[6] and not span[2].startswith("op."):
            errors[span[2].split(".")[0]] += 1
    manifests = sum(1 for s in by_name["container.write_atomic"]
                    if (s[7] or {}).get("manifest"))
    metrics = {
        "parallel.process_pools": len(by_name["parallel.process_pool"]),
        "parallel.process_map_ms": median_self("parallel.process_map", 1e3),
        "parallel.thread_map_ms": median_self("parallel.thread_map", 1e3),
        "seriesdb.open_ms": median_self("seriesdb.open", 1e3),
        "seriesdb.replayed_records": attr_sum("seriesdb.replay", "records"),
        "seriesdb.flush_ms": median_self("seriesdb.flush", 1e3),
        "seriesdb.manifest_writes_per_batch": per(manifests, batches),
        "seriesdb.shard_loads_per_read": per(loads_in_reads,
                                             len(by_name["seriesdb.read"])),
        "tiered.extend_ms": median_self("tiered.extend", 1e3),
        "tiered.to_bytes_ms": median_self("tiered.to_bytes", 1e3),
        "tiered.rewritten_bytes_per_value": per(
            attr_sum("tiered.to_bytes", "bytes"), values_written),
        "tiered.from_bytes_ms": median_self("tiered.from_bytes", 1e3),
        "tiered.access_us": median_self("tiered.access", 1e6),
        "tiered.range_ms": median_self("tiered.range", 1e3),
        "tiered.consolidate_ms": median_self("tiered.consolidate", 1e3),
        "container.write_atomic_per_batch": per(
            len(by_name["container.write_atomic"]), batches),
        "container.write_atomic_ms": median_self("container.write_atomic", 1e3),
        "container.group_append_ms": median_self("container.group_append", 1e3),
        "container.open_ms": median_self("container.open", 1e3),
        "container.first_touch_self_ms": median_self(
            "container.access", 1e3, lambda s: (s[7] or {}).get("first")),
        "codecs.load_compressed_ms": median_self("codecs.load_compressed", 1e3),
        "neats.compress_values_per_s": rate("neats.compress"),
        "neats.access_us": median_self("neats.access", 1e6),
        "neats.decompress_range_ms": median_self("neats.decompress_range", 1e3),
        "neats.decompress_values_per_s": rate("neats.decompress"),
        "neats.bits_per_value": per(neats_bits, neats_n),
        "gorilla.compress_values_per_s": rate("gorilla.compress"),
        "gorilla.decompress_range_ms": median_self("gorilla.decompress_range", 1e3),
        "kernels.xor_decode_ms": median_self("kernels.xor_decode", 1e3),
        "kernels.decoded_per_returned": per(
            attr_sum("kernels.xor_decode", "decoded"), returned),
        "kernels.segments_eval_ms": median_self("kernels.segments_eval", 1e3),
        "os.fsyncs_per_batch": per(len(by_name["os.fsync"]), batches),
        "os.fsync_ms": median_self("os.fsync", 1e3),
        "io.written_bytes_per_value": per(written_bytes, all_values_written),
        "trace.overhead_pct": overhead_pct,
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors[layer]
    return metrics
