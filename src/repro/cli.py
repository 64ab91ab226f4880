"""Command-line interface: compress, decompress, and inspect time series.

Usage::

    python -m repro codecs     --json
    python -m repro compress   input.csv  output.rpac --digits 2
    python -m repro compress   input.csv  output.rpac --codec gorilla
    python -m repro compress   input.csv  output.rpac --codec pla --eps 0.5
    python -m repro decompress output.rpac restored.csv
    python -m repro info       output.rpac
    python -m repro access     output.rpac 12345 --lazy
    python -m repro append     stream.rpal batch1.csv --codec gorilla
    python -m repro append     stream.rpal batch2.csv --seal
    python -m repro generate   IT out.csv --n 10000

    python -m repro db init    dbdir --hot-codec gorilla --cold-codec neats
    python -m repro db ingest  dbdir a.csv b.csv
    python -m repro db query   dbdir a --at 123 456
    python -m repro db compact dbdir
    python -m repro db info    dbdir

    python -m repro fsck output.rpac stream.rpal --deep --json
    python -m repro fsck dbdir
    python -m repro lint --rules
    python -m repro lint src/repro --json

``fsck`` structurally verifies what the system persisted — archive
headers, frame lengths, per-frame crc32s, cumulative-count monotonicity,
torn tails, and (for a SeriesDB directory) manifest <-> shard <-> WAL
consistency — without decoding values unless ``--deep``.  ``lint`` runs
every one of the repo's AST-based invariant checks (binary-layout
confinement, durability and lock discipline, pickle/eval bans, buffer
lifetime, resource release, bare lock acquires and guarded-by inference)
against any source tree.  Exit codes for both: 0 = clean,
1 = violations/defects, 2 = target unusable.

The ``db`` family drives a :class:`repro.store.SeriesDB`: a directory of
per-series tiered-store shards with a JSON manifest, batch-ingested in
one compression pass and recompressed in the background by ``compact``.

Any codec from ``repro.codecs.available_codecs()`` can write an archive
(``codecs`` lists them with their capability flags); the self-describing
container records which one, so ``decompress``, ``info`` and ``access``
need no codec flag.  Lossy codecs (``neats_l``, ``pla``, ``aa``) require an
explicit error bound: ``--eps`` is in *original value units* — ``--eps 0.5``
guarantees every value within ±0.5, whatever the ``--digits`` scaling (the
codec operates on scaled integers, so the bound is scaled internally).  Any
other codec constructor param rides along via repeated ``--codec-param
k=v`` (values parsed as JSON when possible).  ``--lazy`` (on ``info``,
``access``, and ``db query``) memory-maps files and parses them zero-copy
instead of reading them up front — the cold-query fast path.  Archives
produced by older versions (magic ``NTSF0001``) remain readable.

``append`` drives the streaming ingest path: it creates an *appendable*
archive (magic ``RPAL0001``) when missing and otherwise appends one
fsync'd record holding only the new values — O(new values) however large
the file.  ``info``, ``access``, and ``decompress`` read appendable
archives transparently (the records form one logical series), and
``append --seal`` compacts the record sequence into a one-shot
``RPAC0001`` archive.

CSV files hold one fixed-precision decimal per line (the paper's dataset
interchange format); ``--digits`` controls the decimal scaling of §II.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .codecs import available_codecs, codec_spec, compress, open_archive, save
from .data import DATASETS, load, read_csv, write_csv

__all__ = ["main"]

_NEATS_FAMILY = ("neats", "leats", "sneats")


def _parse_param_pairs(pairs: list[str] | None) -> dict:
    """Parse repeated ``--codec-param k=v`` flags; values decode as JSON."""
    params: dict = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--codec-param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw  # bare strings stay strings
    return params


def _codec_params(args) -> dict:
    """Translate CLI flags into codec constructor params."""
    params: dict = _parse_param_pairs(getattr(args, "codec_param", None))
    if args.codec in _NEATS_FAMILY:
        if args.models:
            params["models"] = tuple(args.models.split(","))
    elif args.models:
        print(
            f"warning: --models only applies to the NeaTS family, "
            f"ignored for codec {args.codec!r}",
            file=sys.stderr,
        )
    spec = codec_spec(args.codec)
    if args.eps is not None:
        if not spec.lossy:
            print(
                f"warning: --eps only applies to lossy codecs, ignored for "
                f"codec {args.codec!r}",
                file=sys.stderr,
            )
        else:
            # The bound is given in original value units; codecs operate on
            # the scaled integers, so apply the decimal scaling of §II.
            params["eps"] = args.eps * 10**args.digits
    if spec.lossy and "eps" not in params:
        raise SystemExit(
            f"codec {args.codec!r} is lossy and requires an error bound: "
            "pass --eps (in value units)"
        )
    if spec.needs_digits:
        params["digits"] = args.digits
    return params


def _cmd_compress(args) -> int:
    values = read_csv(args.input, args.digits)
    params = _codec_params(args)
    t0 = time.perf_counter()
    compressed = compress(values, codec=args.codec, **params)
    elapsed = time.perf_counter() - t0
    save(Path(args.output), compressed, digits=args.digits)
    raw = 8 * len(values)
    size = Path(args.output).stat().st_size
    line = (f"{len(values):,} values -> {size:,} bytes "
            f"({100 * size / raw:.2f}% of raw) in {elapsed:.2f}s "
            f"[{args.codec}]")
    if hasattr(compressed, "num_fragments"):
        line += f", {compressed.num_fragments} fragments"
    elif hasattr(compressed, "num_segments"):
        line += f", {compressed.num_segments} segments"
    if codec_spec(args.codec).lossy:
        err = compressed.max_error(values) / 10**args.digits
        line += f", measured max error {err:.{args.digits}f}"
    print(line)
    return 0


def _cmd_codecs(args) -> int:
    """List every registered codec with its capability flags."""
    rows = []
    for cid in available_codecs():
        spec = codec_spec(cid)
        rows.append({
            "id": cid,
            "name": spec.table_name,
            "lossy": spec.lossy,
            "native_random_access": spec.native_random_access,
            "needs_digits": spec.needs_digits,
            "native_loader": spec.load_native is not None,
            "required_params": list(spec.required_params),
            "description": spec.description,
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    flags = ("lossy", "native_random_access", "needs_digits", "native_loader")
    header = (f"{'id':<10} {'lossy':<6} {'random':<7} {'digits':<7} "
              f"{'native':<7} {'params':<8} description")
    print(header)
    print("-" * len(header))
    for row in rows:
        marks = ["yes" if row[f] else "-" for f in flags]
        required = ",".join(row["required_params"]) or "-"
        print(f"{row['id']:<10} {marks[0]:<6} {marks[1]:<7} {marks[2]:<7} "
              f"{marks[3]:<7} {required:<8} {row['description']}")
    return 0


def _cmd_decompress(args) -> int:
    with open_archive(Path(args.input)) as archive:
        values = archive.decompress()
        digits = archive.digits
    write_csv(args.output, values, digits)
    print(f"restored {len(values):,} values to {args.output}")
    return 0


def _cmd_info(args) -> int:
    with open_archive(Path(args.input), lazy=args.lazy) as archive:
        compressed = archive.compressed
        print(f"codec:         {archive.codec_id}")
        if archive.params:
            shown = ", ".join(
                f"{k}={v}" for k, v in sorted(archive.params.items())
            )
            print(f"codec params:  {shown}")
        runs = getattr(compressed, "num_runs", None)
        if runs is not None:
            print(f"append runs:   {runs} (appendable archive)")
            if compressed.truncated_bytes:
                print(f"torn tail:     {compressed.truncated_bytes:,} bytes "
                      "of a crash-truncated record ignored")
        print(f"values:        {len(archive):,}")
        print(f"decimal digits: {archive.digits}")
        if archive.codec_id and codec_spec(archive.codec_id).lossy:
            eps = archive.params.get("eps")
            shown = "?" if eps is None else f"{eps / 10**archive.digits:g}"
            print(f"lossy:         yes (guaranteed max error {shown})")
        if len(archive):
            print(f"size:          {archive.size_bytes():,} bytes "
                  f"({100 * archive.compression_ratio():.2f}% of raw)")
        else:
            print("size:          0 bytes (no records appended yet)")
        storage = getattr(compressed, "storage", None)
        if storage is not None:
            print(f"fragments:     {storage.m:,}")
            print(f"model kinds:   {', '.join(storage.model_names)}")
            widths = storage._widths_list
            print(f"correction widths: min {min(widths)} / max {max(widths)} "
                  "bits")
    return 0


def _cmd_access(args) -> int:
    with open_archive(Path(args.input), lazy=args.lazy) as archive:
        n = len(archive)
        for k in args.positions:
            if not 0 <= k < n:
                print(f"position {k}: out of range [0, {n})", file=sys.stderr)
                return 1
            value = archive.access(k)
            print(f"[{k}] {value / 10**archive.digits:.{archive.digits}f}")
    return 0


def _cmd_append(args) -> int:
    from .codecs.container import append_open

    params = _parse_param_pairs(args.codec_param)
    path = Path(args.archive)
    creating = not path.exists()
    try:
        archive = append_open(path, codec=args.codec, digits=args.digits,
                              **params)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    values = read_csv(args.input, archive.digits)
    t0 = time.perf_counter()
    total = archive.append(values)
    elapsed = time.perf_counter() - t0
    verb = "created" if creating else "appended to"
    print(f"{verb} {path}: +{len(values):,} values -> {total:,} total "
          f"in {archive.num_records} record(s) [{archive.codec_id}] "
          f"({1e3 * elapsed:.1f} ms)")
    if args.seal:
        target = archive.seal()
        print(f"sealed {target} into a one-shot archive "
              f"({target.stat().st_size:,} bytes)")
    return 0


def _cmd_generate(args) -> int:
    values = load(args.dataset, n=args.n)
    digits = DATASETS[args.dataset].digits
    write_csv(args.output, values, digits)
    print(f"wrote {len(values):,} values of {args.dataset} "
          f"({digits} digits) to {args.output}")
    return 0


# -- static analysis & integrity ----------------------------------------------


def _cmd_lint(args) -> int:
    from .analysis import RULE_CATALOGUE, run_lint
    from .analysis.rules import RULE_EXAMPLES

    if args.explain:
        rule_id = args.explain.upper()
        if rule_id not in RULE_CATALOGUE:
            known = ", ".join(sorted(RULE_CATALOGUE))
            print(f"unknown rule {args.explain!r}; known: {known}",
                  file=sys.stderr)
            return 2
        title, hint = RULE_CATALOGUE[rule_id]
        print(f"{rule_id}: {title}")
        print(f"fix: {hint}")
        example = RULE_EXAMPLES.get(rule_id)
        if example:
            print("\nminimal failing example:\n")
            for line in example.splitlines():
                print(f"    {line}")
        return 0
    if args.rules:
        for rule_id, (title, hint) in sorted(RULE_CATALOGUE.items()):
            print(f"{rule_id}  {title}")
            print(f"        fix: {hint}")
        return 0
    findings = run_lint(args.paths or None)
    if args.json:
        print(json.dumps([
            {"rule": f.rule, "file": f.file, "line": f.line,
             "message": f.message, "hint": f.hint}
            for f in findings
        ], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


def _cmd_bench(args) -> int:
    from .bench.runner import compare_table3, neats_above_leats, run_bench

    base = json.loads(Path(args.compare).read_text()) if args.compare else None
    written = run_bench(args.out, quick=args.quick, n=args.n, log=print)
    for path in written:
        print(f"wrote {path}")
    if base is None:
        return 0
    new = json.loads((Path(args.out) / "BENCH_table3.json").read_text())
    differ, speed = compare_table3(base, new)
    above = neats_above_leats(new)
    for line in speed:
        print(line)
    if differ:
        print(f"{len(differ)} Table III cell(s) differ from {args.compare}:")
        for line in differ:
            print(f"  {line}")
    if above:
        print(f"{len(above)} Table III cell(s) where NeaTS is larger than LeaTS:")
        for line in above:
            print(f"  {line}")
    if differ or above:
        return 1
    cells = sum(
        len(rows) for codecs in new["rungs"].values() for rows in codecs.values()
    )
    print(f"bits_per_value: all {cells} cells match {args.compare}, "
          "and no neats cell exceeds leats")
    return 0


def _cmd_fsck(args) -> int:
    from .analysis import fsck_path

    reports = [fsck_path(target, deep=args.deep) for target in args.targets]
    if args.json:
        payload = [r.to_json() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2))
    else:
        for report in reports:
            print(report.render())
    return max(report.exit_code for report in reports)


# -- the db subcommand family -------------------------------------------------


def _cmd_db_init(args) -> int:
    from .store import PartitionedSeriesDB, SeriesDB

    root = Path(args.root)
    if (root / "MANIFEST.json").exists():
        print(f"{root} already holds a SeriesDB", file=sys.stderr)
        return 1
    # --eps / --codec-param configure the cold tier: that is where a strong
    # (possibly lossy, with --allow-lossy) codec runs during compaction.
    cold_params = _parse_param_pairs(args.codec_param)
    if args.eps is not None:
        cold_params["eps"] = args.eps
    if codec_spec(args.cold_codec).lossy and "eps" not in cold_params:
        print(f"cold codec {args.cold_codec!r} is lossy and requires an "
              "error bound: pass --eps (in stored value units)",
              file=sys.stderr)
        return 1
    config = dict(
        seal_threshold=args.seal_threshold,
        hot_codec=args.hot_codec,
        cold_codec=args.cold_codec,
        cold_params=cold_params,
        allow_lossy=args.allow_lossy,
    )
    try:
        if args.partitions:
            db = PartitionedSeriesDB(root, partitions=args.partitions, **config)
            kind = f"partitioned SeriesDB ({args.partitions} partitions)"
        else:
            db = SeriesDB(root, **config)
            kind = "SeriesDB"
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"initialised {kind} at {db.root} "
          f"(hot={args.hot_codec}, cold={args.cold_codec}, "
          f"seal_threshold={args.seal_threshold})")
    return 0


def _cmd_db_migrate(args) -> int:
    from .store import PartitionedSeriesDB

    try:
        db = PartitionedSeriesDB.migrate(args.root, partitions=args.partitions)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    with db:
        n = len(db)
    print(f"migrated {args.root} to {args.partitions} partitions "
          f"({n} series redistributed)")
    return 0


def _cmd_db_ingest(args) -> int:
    from .store import open_store

    if args.series:
        names = args.series.split(",")
        if len(names) != len(args.inputs):
            print(f"--series names {len(names)} series, "
                  f"but {len(args.inputs)} files given", file=sys.stderr)
            return 1
    else:
        names = [Path(p).stem for p in args.inputs]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        print(f"duplicate series ids {', '.join(dupes)}: files with the same "
              "stem need explicit --series names", file=sys.stderr)
        return 1
    series_map = {
        name: read_csv(path, args.digits)
        for name, path in zip(names, args.inputs)
    }
    t0 = time.perf_counter()
    with open_store(args.root) as db:
        counts = db.ingest_many(series_map, digits=args.digits)
        db.flush()
    elapsed = time.perf_counter() - t0
    total = sum(len(v) for v in series_map.values())
    for name, count in counts.items():
        print(f"{name}: +{len(series_map[name]):,} values -> {count:,} total")
    print(f"ingested {total:,} values across {len(series_map)} series "
          f"in {elapsed:.2f}s")
    return 0


def _cmd_db_query(args) -> int:
    from .store import open_store

    with open_store(args.root, lazy=args.lazy) as db:
        if args.sid not in db:
            known = ", ".join(db.series_ids()) or "(none)"
            print(f"unknown series {args.sid!r}; known: {known}",
                  file=sys.stderr)
            return 1
        # The manifest records each series' decimal scaling at ingest time,
        # so queries need no flag; --digits still overrides for display.
        digits = db.digits(args.sid) if args.digits is None else args.digits
        scale = 10**digits
        n = db.count(args.sid)
        if args.at is not None:
            for k in args.at:
                if not 0 <= k < n:
                    print(f"position {k}: out of range [0, {n})",
                          file=sys.stderr)
                    return 1
                print(f"{args.sid}[{k}] "
                      f"{db.access(args.sid, k) / scale:.{digits}f}")
        elif args.range is not None:
            lo, hi = args.range
            if not 0 <= lo <= hi <= n:
                print(f"range [{lo}, {hi}): out of range [0, {n})",
                      file=sys.stderr)
                return 1
            for v in db.range(args.sid, lo, hi):
                print(f"{v / scale:.{digits}f}")
        else:
            print(f"{args.sid}: {n:,} values")
    return 0


def _cmd_db_compact(args) -> int:
    from .store import PartitionedSeriesDB, open_store

    with open_store(args.root) as db:
        if isinstance(db, PartitionedSeriesDB):
            compacted = db.compact(args.hot_threshold, workers=args.workers)
        else:
            compacted = db.compact(hot_threshold=args.hot_threshold)
    if compacted:
        print(f"compacted {len(compacted)} shard(s): {', '.join(compacted)}")
    else:
        print("nothing to compact")
    return 0


def _cmd_db_info(args) -> int:
    from .store import open_store

    with open_store(args.root) as db:
        info = db.info()
    print(f"root:           {info['root']}")
    print(f"hot codec:      {info['hot_codec']}")
    print(f"cold codec:     {info['cold_codec']}")
    print(f"seal threshold: {info['seal_threshold']:,}")
    if "partitions" in info:
        print(f"partitions:     {info['partitions']} "
              f"(placement {info['placement']})")
    print(f"series:         {len(info['series'])}")
    for sid, entry in info["series"].items():
        where = entry["shard"]
        if "partition" in entry:
            where = f"p{entry['partition']:04d}/{where}"
        print(f"  {sid}: {entry['count']:,} values "
              f"(buffer {entry['buffer_values']:,} / hot {entry['hot_values']:,}"
              f" / cold {entry['cold_values']:,}, "
              f"digits {entry.get('digits', 0)}) -> {where}")
    return 0


def _add_db_parsers(sub) -> None:
    db = sub.add_parser("db", help="multi-series shard-per-series store")
    dbsub = db.add_subparsers(dest="db_command", required=True)

    p = dbsub.add_parser("init", help="create an empty SeriesDB directory")
    p.add_argument("root")
    p.add_argument("--seal-threshold", type=int, default=4096,
                   help="values per sealed hot block (default: 4096)")
    p.add_argument("--hot-codec", default="gorilla", choices=available_codecs(),
                   help="ingest-tier codec (default: gorilla; never lossy)")
    p.add_argument("--cold-codec", default="neats", choices=available_codecs(),
                   help="compaction-tier codec (default: neats)")
    p.add_argument("--eps", type=float, default=None,
                   help="cold-tier error bound in stored value units "
                        "(required when --cold-codec is lossy)")
    p.add_argument("--codec-param", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="extra cold-codec constructor param (repeatable; "
                        "values parsed as JSON when possible)")
    p.add_argument("--allow-lossy", action="store_true",
                   help="opt into a lossy cold tier: compacted history "
                        "answers within the codec's eps, not exactly")
    p.add_argument("--partitions", type=int, default=0, metavar="N",
                   help="create a horizontally partitioned store: N "
                        "independent SeriesDB partition directories behind "
                        "one facade (default: 0 = single directory)")
    p.set_defaults(func=_cmd_db_init)

    p = dbsub.add_parser(
        "migrate",
        help="convert a single-dir SeriesDB into a partitioned one, in place",
    )
    p.add_argument("root")
    p.add_argument("--partitions", type=int, default=4, metavar="N",
                   help="partition count (default: 4)")
    p.set_defaults(func=_cmd_db_migrate)

    p = dbsub.add_parser("ingest", help="batch-ingest CSV files, one series each")
    p.add_argument("root")
    p.add_argument("inputs", nargs="+", metavar="csv")
    p.add_argument("--series", default=None,
                   help="comma-separated series ids (default: file stems)")
    p.add_argument("--digits", type=int, default=0,
                   help="fractional decimal digits of the input values")
    p.set_defaults(func=_cmd_db_ingest)

    p = dbsub.add_parser("query", help="point/range queries against one series")
    p.add_argument("root")
    p.add_argument("sid", help="series id")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--at", type=int, nargs="+", default=None,
                       help="positions for point queries")
    group.add_argument("--range", type=int, nargs=2, default=None,
                       metavar=("LO", "HI"), help="half-open position range")
    p.add_argument("--digits", type=int, default=None,
                   help="decimal scaling for printed values "
                        "(default: as recorded at ingest)")
    p.add_argument("--lazy", action="store_true",
                   help="mmap shard files and parse them zero-copy")
    p.set_defaults(func=_cmd_db_query)

    p = dbsub.add_parser("compact", help="consolidate hot tiers into cold runs")
    p.add_argument("root")
    p.add_argument("--hot-threshold", type=int, default=0,
                   help="compact shards with more than this many sealed hot "
                        "values (default: 0 = any)")
    p.add_argument("--workers", type=int, default=None,
                   help="concurrent partition compactions on a partitioned "
                        "store (default: one per core; ignored single-dir)")
    p.set_defaults(func=_cmd_db_compact)

    p = dbsub.add_parser("info", help="describe a SeriesDB")
    p.add_argument("root")
    p.set_defaults(func=_cmd_db_info)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NeaTS time series compression (ICDE 2025 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codecs", help="list registered codecs and capabilities")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output for tooling")
    p.set_defaults(func=_cmd_codecs)

    p = sub.add_parser("compress", help="CSV -> compressed archive")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--codec", default="neats", choices=available_codecs(),
                   help="codec id from the registry (default: neats)")
    p.add_argument("--digits", type=int, default=0,
                   help="fractional decimal digits of the input values")
    p.add_argument("--eps", type=float, default=None,
                   help="lossy codecs: guaranteed max error, in original "
                        "value units (scaled by --digits internally)")
    p.add_argument("--codec-param", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="extra codec constructor param (repeatable; values "
                        "parsed as JSON when possible)")
    p.add_argument("--models", default=None,
                   help="NeaTS family: comma-separated model kinds "
                        "(default: paper's four)")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="archive -> CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("info", help="describe an archive")
    p.add_argument("input")
    p.add_argument("--lazy", action="store_true",
                   help="mmap the archive instead of reading it eagerly")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("access", help="random access into an archive")
    p.add_argument("input")
    p.add_argument("positions", type=int, nargs="+")
    p.add_argument("--lazy", action="store_true",
                   help="mmap the archive; crc is checked on first decode")
    p.set_defaults(func=_cmd_access)

    p = sub.add_parser("append",
                       help="append CSV values to an appendable archive")
    p.add_argument("archive", help="RPAL0001 archive (created when missing)")
    p.add_argument("input")
    p.add_argument("--codec", default=None, choices=available_codecs(),
                   help="codec when creating (default: gorilla); must match "
                        "the recorded codec when appending")
    p.add_argument("--digits", type=int, default=None,
                   help="fractional decimal digits when creating (default: 0; "
                        "appends reuse the recorded scaling)")
    p.add_argument("--codec-param", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="codec constructor params when creating (repeatable; "
                        "values parsed as JSON when possible)")
    p.add_argument("--seal", action="store_true",
                   help="compact the records into a one-shot RPAC archive "
                        "after appending")
    p.set_defaults(func=_cmd_append)

    p = sub.add_parser("generate", help="emit a synthetic dataset as CSV")
    p.add_argument("dataset", choices=list(DATASETS))
    p.add_argument("output")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "lint",
        help="AST-based invariant linter over the repo: binary-layout, "
             "durability and lock discipline, pickle/eval bans, buffer "
             "lifetime, resource release, guarded-by inference",
    )
    p.add_argument("paths", nargs="*", metavar="path",
                   help="files or directories to lint (default: the "
                        "installed repro package sources)")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--explain", metavar="RULE_ID",
                   help="print one rule's rationale and a minimal failing "
                        "example (e.g. --explain RPR801), then exit")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings for tooling")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("bench",
                       help="tracked kernel benchmarks (BENCH_*.json)")
    p.add_argument("--out", default=".",
                   help="directory receiving the BENCH_*.json artefacts "
                        "(default: current directory)")
    p.add_argument("--quick", action="store_true",
                   help="small series / one repeat: the CI smoke "
                        "configuration")
    p.add_argument("--n", type=int, default=None,
                   help="override the benchmark series length")
    p.add_argument("--compare", metavar="BASE.json", default=None,
                   help="after the run, exit 1 unless every bits_per_value "
                        "cell of its Table III equals BASE's and no neats "
                        "cell exceeds the leats cell of its generator and "
                        "rung; print the NeaTS family's compress speed "
                        "against BASE")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fsck",
                       help="verify archives / SeriesDB dirs structurally")
    p.add_argument("targets", nargs="+", metavar="target",
                   help="archive files (.rpac/.rpal/legacy) or SeriesDB "
                        "directories")
    p.add_argument("--deep", action="store_true",
                   help="decode every frame and cross-check counts, not "
                        "just headers and checksums")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report for tooling")
    p.set_defaults(func=_cmd_fsck)

    _add_db_parsers(sub)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
