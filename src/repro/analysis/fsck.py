"""``repro fsck``: offline structural verification of archives and SeriesDBs.

The read path verifies what it touches — lazily, and only on first decode —
so a cold archive can rot for months before anyone notices.  ``fsck`` walks
the *whole* structure up front, without decoding values unless asked:

* **one-shot archives** (``RPAC0001``): magic, fixed header, frame-length
  bounds against the file size, crc32 of the frame, and a frame-header
  parse (codec id known to the registry, non-negative count);
* **appendable archives** (``RPAL0001``): header and params, then every
  record in sequence — record-length bounds, per-frame crc32, cumulative-
  count monotonicity, frame self-accounting (``frame_span``) — and a torn
  tail (bytes past the last complete record) is reported as a defect: the
  format recovers from it, but the bytes are a lost append;
* **group logs** (``RPGW0001``): the same walk, plus each record's digits
  and the log's codec against the manifest;
* **SeriesDB directories**: manifest format and entries, shard files
  present with matching crc32 and snapshot magic, WAL generation files
  consistent with the manifest (codec and digits match the configuration),
  dangling files in ``shards/`` no manifest entry references;
* ``--deep`` additionally decodes every frame/shard: value counts must
  match the recorded headers, manifest counts must equal snapshot + WAL
  replay, and lossy payloads must agree with their frame params (ε and
  segment count).

Appendable archives and group logs are walked by the readers' own
scanners (:func:`repro.codecs.container._scan_append` and
``_scan_group``), which say where and why a walk stopped; fsck maps each
stop reason to its code and checks every complete record's crc and frame.
Manifests are read by the store's :func:`~repro.store.seriesdb.read_manifest`.
So fsck's complete records and torn tails are exactly the ones recovery
keeps and drops, and a manifest the store refuses is FSK020 here.  The
one-shot header layout is imported from :mod:`repro.codecs.container`.

Problem codes (``FSK###``) are machine-stable for ``--json`` consumers;
exit codes: 0 = clean, 1 = defects found, 2 = target unusable/missing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..codecs import serialize
from ..codecs.container import (
    APPEND_MAGIC,
    ARCHIVE_MAGIC,
    LEGACY_MAGIC,
    LogScan,
    TruncatedLogHeader,
    _HEADER,
    _scan_append,
    _scan_group,
)
from ..codecs.registry import available_codecs, codec_spec, load_compressed
from ..store.partitioned import PARTITION_MANIFEST_FORMAT, _PART_DIR
from ..store.seriesdb import MANIFEST_FORMAT, MANIFEST_NAME, read_manifest

__all__ = ["Problem", "FsckReport", "fsck_path", "fsck_archive", "fsck_seriesdb",
           "fsck_partitioned", "PROBLEM_CODES"]

#: problem code -> one-line meaning (the catalogue README documents)
PROBLEM_CODES: dict[str, str] = {
    "FSK001": "file missing or unreadable",
    "FSK002": "file too short for its container header",
    "FSK003": "bad magic (not a repro archive)",
    "FSK004": "header length field inconsistent with the file size",
    "FSK005": "frame crc32 mismatch (payload corrupt)",
    "FSK006": "frame header unparseable",
    "FSK007": "codec id not in the registry",
    "FSK008": "decoded value count disagrees with the recorded count",
    "FSK009": "lossy payload disagrees with its frame params",
    "FSK010": "frame failed to decode",
    "FSK011": "appendable header/params corrupt",
    "FSK012": "record length field out of bounds",
    "FSK013": "record crc32 mismatch (record corrupt)",
    "FSK014": "cumulative counts not strictly increasing",
    "FSK015": "torn tail: bytes beyond the last complete record",
    "FSK016": "record frame self-accounting disagrees with record length",
    "FSK020": "manifest missing or unparseable",
    "FSK021": "manifest format/field invalid",
    "FSK022": "shard file missing",
    "FSK023": "shard crc32 disagrees with the manifest",
    "FSK024": "shard snapshot magic/structure invalid",
    "FSK025": "shard value count disagrees with the manifest",
    "FSK026": "WAL archive defective",
    "FSK027": "WAL configuration conflicts with the manifest (codec/digits)",
    "FSK028": "dangling file in shards/ (no manifest reference)",
    "FSK029": "series replay count (snapshot + WAL) inconsistent",
    "FSK030": "partitioned root manifest invalid",
    "FSK031": "partition directory missing or not a SeriesDB",
    "FSK032": "partition map / partition manifest disagree (overlap or orphan)",
    "FSK033": "group WAL structurally defective",
    "FSK034": "group WAL configuration conflicts with the manifest",
}


@dataclass(frozen=True)
class Problem:
    """One defect found by fsck."""

    code: str  #: FSK### (see PROBLEM_CODES)
    path: str  #: file (or directory) the defect is in
    message: str  #: specifics, one line

    def render(self) -> str:
        return f"{self.path}: {self.code} {self.message}"


@dataclass
class FsckReport:
    """Everything one fsck run found, JSON-serialisable."""

    target: str
    #: 'archive' | 'appendable' | 'legacy' | 'seriesdb' | 'partitioned'
    #: | 'unknown'
    kind: str
    deep: bool = False
    problems: list[Problem] = field(default_factory=list)
    #: structures positively verified (frames, records, series, shards)
    checked: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def exit_code(self) -> int:
        if any(p.code == "FSK001" for p in self.problems):
            return 2
        return 0 if self.ok else 1

    def add(self, code: str, path, message: str) -> None:
        self.problems.append(Problem(code, str(path), message))

    def tally(self, key: str, delta: int = 1) -> None:
        self.checked[key] = self.checked.get(key, 0) + delta

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "kind": self.kind,
            "deep": self.deep,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "checked": dict(self.checked),
            "problems": [
                {"code": p.code, "path": p.path, "message": p.message}
                for p in self.problems
            ],
        }

    def render(self) -> str:
        lines = [
            f"fsck {self.target} ({self.kind}"
            + (", deep)" if self.deep else ")")
        ]
        for problem in self.problems:
            lines.append(f"  {problem.render()}")
        counted = ", ".join(
            f"{v} {k}" for k, v in sorted(self.checked.items())
        ) or "nothing"
        lines.append(
            ("OK: " if self.ok else "FAILED: ") + f"verified {counted}, "
            f"{len(self.problems)} problem(s)"
        )
        return "\n".join(lines)


def fsck_path(target, *, deep: bool = False) -> FsckReport:
    """Dispatch: a directory fscks as a (partitioned) SeriesDB, a file as an archive.

    Directory dispatch reads the manifest's ``format`` field: a
    ``RPPD0001`` root recurses into every partition
    (:func:`fsck_partitioned`), anything else is checked as a single-dir
    SeriesDB — whose own manifest checks then report what is wrong.
    """
    target = Path(target)
    if target.is_dir():
        try:
            manifest = read_manifest(target / MANIFEST_NAME)
        except (OSError, ValueError):
            manifest = {}
        if manifest.get("format") == PARTITION_MANIFEST_FORMAT:
            return fsck_partitioned(target, deep=deep)
        return fsck_seriesdb(target, deep=deep)
    return fsck_archive(target, deep=deep)


# -- archives ------------------------------------------------------------------


def _check_frame(
    report: FsckReport, path, label: str, frame, *, deep: bool,
    expect_n: int | None = None,
) -> int:
    """Frame-header sanity (and, deep, a full decode) for one codec frame.

    Returns the value count its header records (0 when it does not parse).
    """
    try:
        parsed = serialize.read_frame(frame)
    except ValueError as exc:
        report.add("FSK006", path, f"{label}: {exc}")
        return 0
    if parsed.codec_id not in available_codecs():
        report.add(
            "FSK007", path,
            f"{label}: codec {parsed.codec_id!r} is not registered",
        )
        return parsed.n
    if expect_n is not None and parsed.n != expect_n:
        report.add(
            "FSK008", path,
            f"{label}: frame header records {parsed.n} values, "
            f"container says {expect_n}",
        )
    report.tally("frames")
    if not deep:
        return parsed.n
    try:
        compressed = load_compressed(parsed)
        values = compressed.decompress()
    except Exception as exc:  # any decode failure is the finding itself
        report.add("FSK010", path, f"{label}: decode failed: {exc}")
        return parsed.n
    if len(values) != parsed.n:
        report.add(
            "FSK008", path,
            f"{label}: decoded {len(values)} values, header says {parsed.n}",
        )
    spec = codec_spec(parsed.codec_id)
    if spec.lossy:
        eps = parsed.params.get("eps")
        have = getattr(compressed, "eps", None)
        if eps is not None and have is not None and float(eps) != float(have):
            report.add(
                "FSK009", path,
                f"{label}: frame params say eps={eps}, payload holds {have}",
            )
        segments = parsed.params.get("segments")
        have_seg = getattr(compressed, "num_segments", None)
        if (
            segments is not None
            and have_seg is not None
            and int(segments) != int(have_seg)
        ):
            report.add(
                "FSK009", path,
                f"{label}: frame params say {segments} segments, "
                f"payload holds {have_seg}",
            )
    report.tally("decoded_values", len(values))
    return parsed.n


def _fsck_oneshot(report: FsckReport, path: Path, data: bytes, deep: bool) -> None:
    report.kind = "archive"
    if len(data) < _HEADER.size:
        report.add(
            "FSK002", path,
            f"{len(data)} bytes, container header needs {_HEADER.size}",
        )
        return
    magic, digits, crc, frame_len = _HEADER.unpack_from(data)
    frame = data[_HEADER.size:]
    if len(frame) != frame_len:
        report.add(
            "FSK004", path,
            f"header says {frame_len} frame bytes, file holds {len(frame)}",
        )
        return
    if zlib.crc32(frame) != crc:
        report.add(
            "FSK005", path,
            f"frame crc32 {zlib.crc32(frame):#010x} != header {crc:#010x}",
        )
        return
    _check_frame(report, path, "frame", frame, deep=deep)


def _reason(exc: ValueError, path) -> str:
    """A reader's error message without the path the problem already names."""
    return str(exc).removeprefix(f"{path}: ")


#: why a log scan stopped short of the end of its file -> the code reported
_STOP_CODES = {
    "overrun": "FSK012",
    "count": "FSK014",
    "frame": "FSK016",
    "series id": "FSK033",
}


def _crc_ok(report: FsckReport, path, label: str, frame, crc: int) -> bool:
    """Whether a complete record's frame matches its crc32 (else FSK013)."""
    actual = zlib.crc32(frame)
    if actual != crc:
        report.add(
            "FSK013", path,
            f"{label}: frame crc32 {actual:#010x} != recorded {crc:#010x}",
        )
    return actual == crc


def _check_stop(report: FsckReport, path, scan: LogScan, size: int) -> None:
    """Report why a log walk stopped, and the torn tail past its records."""
    if scan.stop is not None:
        report.add(_STOP_CODES[scan.stop], path, scan.detail)
    if scan.end < size:
        report.add(
            "FSK015", path,
            f"{size - scan.end} byte(s) beyond the last complete record "
            "(interrupted append; the next writer truncates them)",
        )


def _fsck_appendable(
    report: FsckReport, path: Path, data: bytes, deep: bool
) -> None:
    report.kind = "appendable"
    try:
        scan = _scan_append(data, path)
    except ValueError as exc:
        short = isinstance(exc, TruncatedLogHeader)
        report.add("FSK002" if short else "FSK011", path, _reason(exc, path))
        return
    if scan.codec_id not in available_codecs():
        report.add("FSK007", path, f"codec {scan.codec_id!r} is not registered")
    total = 0
    for index, (start, frame_len, crc, cum) in enumerate(scan.records):
        label = f"record {index}"
        frame = data[start:start + frame_len]
        # A crc mismatch leaves the chain sound: the record's values still
        # count, so later records are judged against the right total.
        if _crc_ok(report, path, label, frame, crc):
            _check_frame(
                report, path, label, frame, deep=deep, expect_n=cum - total,
            )
            report.tally("records")
        total = cum
    _check_stop(report, path, scan, len(data))
    report.tally("values", total)


def _fsck_legacy(report: FsckReport, path: Path, data: bytes, deep: bool) -> None:
    report.kind = "legacy"
    if len(data) < 12:
        report.add("FSK002", path, "truncated legacy NeaTS archive")
        return
    if not deep:
        report.tally("frames")
        return
    from ..core.storage import NeaTSStorage

    try:
        storage = NeaTSStorage.from_bytes(data[12:])
        report.tally("decoded_values", storage.n)
        report.tally("frames")
    except Exception as exc:
        report.add("FSK010", path, f"legacy payload failed to parse: {exc}")


def fsck_archive(path, *, deep: bool = False) -> FsckReport:
    """Structurally verify one archive file (any container format)."""
    path = Path(path)
    report = FsckReport(target=str(path), kind="unknown", deep=deep)
    try:
        data = path.read_bytes()
    except OSError as exc:
        report.add("FSK001", path, str(exc))
        return report
    if data[:8] == ARCHIVE_MAGIC:
        _fsck_oneshot(report, path, data, deep)
    elif data[:8] == APPEND_MAGIC:
        _fsck_appendable(report, path, data, deep)
    elif data[:8] == LEGACY_MAGIC:
        _fsck_legacy(report, path, data, deep)
    else:
        report.add(
            "FSK003", path,
            f"magic {data[:8]!r} is not a repro container",
        )
    return report


# -- SeriesDB directories ------------------------------------------------------

_TIER_MAGIC = b"RPTS0001"
# Series entry fields that must be JSON integers when present.
_ENTRY_INTS = ("count", "crc32", "digits", "hot_values", "buffer_values")


def _fsck_shard(
    report: FsckReport, path: Path, entry: dict, sid: str, deep: bool
) -> int | None:
    """Verify one shard snapshot; returns its decoded count (deep only)."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        report.add("FSK022", path, f"series {sid!r}: {exc}")
        return None
    if zlib.crc32(data) != entry.get("crc32", -1):
        report.add(
            "FSK023", path,
            f"series {sid!r}: shard crc32 {zlib.crc32(data):#010x} != "
            f"manifest {entry.get('crc32', -1):#010x}",
        )
        return None
    if data[:8] != _TIER_MAGIC:
        report.add(
            "FSK024", path,
            f"series {sid!r}: snapshot magic {data[:8]!r} != {_TIER_MAGIC!r}",
        )
        return None
    report.tally("shards")
    if not deep:
        return None
    from ..core.tiered import TieredStore

    try:
        store = TieredStore.from_bytes(data)
    except Exception as exc:
        report.add("FSK024", path, f"series {sid!r}: snapshot parse: {exc}")
        return None
    count = len(store)
    if count != entry.get("count", -1):
        report.add(
            "FSK025", path,
            f"series {sid!r}: snapshot holds {count} values, manifest "
            f"says {entry.get('count')}",
        )
    report.tally("decoded_values", count)
    return count


def _fsck_group_log(
    report: FsckReport, path: Path, hot_codec: str | None, series: dict,
    deep: bool,
) -> dict[str, int]:
    """Structurally verify one group-commit WAL (``RPGW0001``).

    ``series`` holds the manifest entries whose fields passed the entry
    check.  Returns per-series value counts taken from the frame headers,
    so the caller can fold them into the deep replay cross-check (FSK029).
    """
    counts: dict[str, int] = {}
    try:
        data = path.read_bytes()
    except OSError as exc:
        report.add("FSK001", path, str(exc))
        return counts
    try:
        scan = _scan_group(data, path)
    except ValueError as exc:
        report.add("FSK033", path, _reason(exc, path))
        return counts
    if scan.codec_id not in available_codecs():
        report.add("FSK007", path, f"codec {scan.codec_id!r} is not registered")
    if hot_codec and scan.codec_id != hot_codec:
        report.add(
            "FSK034", path,
            f"group WAL codec {scan.codec_id!r} != configured hot codec "
            f"{hot_codec!r}",
        )
    for index, (sid, digits, start, frame_len, crc) in enumerate(scan.records):
        label = f"record {index}"
        entry = series.get(sid)
        if entry is not None and entry.get("digits", 0) != digits:
            report.add(
                "FSK034", path,
                f"{label}: series {sid!r} digits {digits} != manifest "
                f"digits {entry.get('digits', 0)}",
            )
        frame = data[start:start + frame_len]
        if _crc_ok(report, path, label, frame, crc):
            counts[sid] = counts.get(sid, 0) + _check_frame(
                report, path, f"{label} (series {sid!r})", frame, deep=deep
            )
            report.tally("records")
    _check_stop(report, path, scan, len(data))
    report.tally("group_wals")
    return counts


def _read_manifest(report: FsckReport, path: Path) -> dict | None:
    """The manifest at ``path`` through the store's reader, else reported."""
    try:
        return read_manifest(path)
    except OSError as exc:
        report.add("FSK001", path, str(exc))
    except ValueError as exc:
        report.add("FSK020", path, _reason(exc, path))
    return None


def fsck_seriesdb(root, *, deep: bool = False) -> FsckReport:
    """Cross-check a SeriesDB directory: manifest <-> shards <-> WALs."""
    root = Path(root)
    report = FsckReport(target=str(root), kind="seriesdb", deep=deep)
    manifest_path = root / MANIFEST_NAME
    manifest = _read_manifest(report, manifest_path)
    if manifest is None:
        return report
    if manifest.get("format") != MANIFEST_FORMAT:
        report.add(
            "FSK021", manifest_path,
            f"manifest format {manifest.get('format')!r} != {MANIFEST_FORMAT!r}",
        )
        return report
    series = manifest.get("series")
    if not isinstance(series, dict):
        report.add("FSK021", manifest_path, "manifest has no series mapping")
        return report
    hot_codec = manifest.get("hot_codec")
    referenced: set[str] = set()
    expected_counts: dict[str, int] = {}
    usable: dict[str, dict] = {}  # the entries whose fields passed
    for sid, entry in series.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("shard"), str):
            report.add(
                "FSK021", manifest_path, f"series {sid!r}: malformed entry"
            )
            continue
        shard_rel = entry["shard"]
        referenced.add(shard_rel)  # a bad field does not orphan the shard
        bad = [k for k in _ENTRY_INTS if k in entry and type(entry[k]) is not int]
        if bad:
            report.add(
                "FSK021", manifest_path,
                f"series {sid!r}: field {bad[0]!r} is {entry[bad[0]]!r}, "
                "not an integer",
            )
            continue
        usable[sid] = entry
        report.tally("series")
        shard_path = root / shard_rel
        snapshot_count: int | None = None
        if shard_path.exists():
            snapshot_count = _fsck_shard(report, shard_path, entry, sid, deep)
        elif entry.get("count", 0) != 0:
            report.add(
                "FSK022", shard_path,
                f"series {sid!r}: manifest records {entry.get('count')} "
                "values but the shard file is gone",
            )
        wal_rel = entry.get("wal")
        wal_count = 0
        if wal_rel:
            referenced.add(wal_rel)
            wal_path = root / wal_rel
            if wal_path.exists():
                sub = fsck_archive(wal_path, deep=deep)
                for problem in sub.problems:
                    report.problems.append(Problem(
                        "FSK026", problem.path,
                        f"series {sid!r} WAL: {problem.code} {problem.message}",
                    ))
                report.tally("wals")
                if sub.kind != "appendable" and sub.ok:
                    report.add(
                        "FSK026", wal_path,
                        f"series {sid!r}: WAL is a {sub.kind}, expected an "
                        "appendable archive",
                    )
                elif sub.ok:
                    try:
                        scan = _scan_append(wal_path.read_bytes(), wal_path)
                    except (OSError, ValueError) as exc:
                        report.add(
                            "FSK026", wal_path,
                            f"series {sid!r}: WAL header unreadable: {exc}",
                        )
                    else:
                        if hot_codec and scan.codec_id != hot_codec:
                            report.add(
                                "FSK027", wal_path,
                                f"series {sid!r}: WAL codec {scan.codec_id!r} "
                                f"!= configured hot codec {hot_codec!r}",
                            )
                        recorded = entry.get("digits", 0)
                        if scan.digits != recorded:
                            report.add(
                                "FSK027", wal_path,
                                f"series {sid!r}: WAL digits {scan.digits} != "
                                f"manifest digits {recorded}",
                            )
                        wal_count = sub.checked.get("values", 0)
        expected_counts[sid] = entry.get("count", 0) + wal_count
    group_rel = manifest.get("group_wal")
    if group_rel:
        referenced.add(group_rel)
        if not bool(manifest.get("group_commit", False)):
            report.add(
                "FSK034", manifest_path,
                f"manifest references group WAL {group_rel!r} but "
                "group_commit is off",
            )
        group_path = root / group_rel
        # Absent is fine: group logs are created lazily at first append.
        if group_path.exists():
            group_counts = _fsck_group_log(
                report, group_path, hot_codec, usable, deep
            )
            for sid, n in group_counts.items():
                expected_counts[sid] = expected_counts.get(sid, 0) + n
    shard_dir = root / "shards"
    if shard_dir.is_dir():
        for file in sorted(shard_dir.iterdir()):
            rel = file.relative_to(root).as_posix()
            if rel not in referenced and not file.name.endswith(".tmp"):
                report.add(
                    "FSK028", file,
                    "no manifest entry references this file (orphaned by a "
                    "crash mid-flush, or a stale generation)",
                )
    if deep and report.ok:
        # End-to-end recovery check: open the database (read-only — WAL
        # replay goes through open_archive, which never truncates) and
        # confirm every series replays to snapshot + WAL values.
        from ..store.seriesdb import SeriesDB

        try:
            db = SeriesDB.open(root)
        except Exception as exc:
            report.add("FSK029", root, f"database failed to open: {exc}")
        else:
            for sid, expected in expected_counts.items():
                try:
                    live = db.count(sid)
                except Exception as exc:
                    report.add(
                        "FSK029", root, f"series {sid!r}: replay failed: {exc}"
                    )
                    continue
                if live != expected:
                    report.add(
                        "FSK029", root,
                        f"series {sid!r}: replays to {live} values, "
                        f"snapshot + WAL account for {expected}",
                    )
    return report


# -- partitioned roots ---------------------------------------------------------


def fsck_partitioned(root, *, deep: bool = False) -> FsckReport:
    """Recursively verify a partitioned SeriesDB root (``RPPD0001``).

    The root manifest is checked first (FSK030 on any structural defect);
    then every partition directory is located (FSK031 when missing) and
    handed to :func:`fsck_seriesdb`, whose findings are merged verbatim —
    per-partition problems keep their original codes and paths, so
    ``--json`` consumers see exactly where inside the tree each defect
    lives.  Finally the root partition map is cross-checked against what
    each partition's own manifest claims: a series present in two
    partitions, present but unmapped, mapped to the wrong partition, or
    mapped but present nowhere all report FSK032.
    """
    root = Path(root)
    report = FsckReport(target=str(root), kind="partitioned", deep=deep)
    manifest_path = root / MANIFEST_NAME
    manifest = _read_manifest(report, manifest_path)
    if manifest is None:
        return report
    if manifest.get("format") != PARTITION_MANIFEST_FORMAT:
        report.add(
            "FSK030", manifest_path,
            f"manifest format {manifest.get('format')!r} != "
            f"{PARTITION_MANIFEST_FORMAT!r}",
        )
        return report
    partitions = manifest.get("partitions")
    if not isinstance(partitions, int) or partitions < 1:
        report.add(
            "FSK030", manifest_path,
            f"partition count {partitions!r} is not a positive integer",
        )
        return report
    series_map = manifest.get("series")
    if not isinstance(series_map, dict):
        report.add("FSK030", manifest_path, "manifest has no partition map")
        return report
    for sid, part in series_map.items():
        if not isinstance(part, int) or not 0 <= part < partitions:
            report.add(
                "FSK030", manifest_path,
                f"series {sid!r} mapped to partition {part!r}, valid "
                f"range is 0..{partitions - 1}",
            )
    owned: dict[str, int] = {}
    readable: set[int] = set()
    for part in range(partitions):
        part_dir = root / _PART_DIR.format(part)
        part_manifest = part_dir / MANIFEST_NAME
        if not part_manifest.is_file():
            report.add(
                "FSK031", part_dir,
                f"partition {part}: directory missing or has no manifest",
            )
            continue
        sub = fsck_seriesdb(part_dir, deep=deep)
        report.problems.extend(sub.problems)
        for key, value in sub.checked.items():
            report.tally(key, value)
        report.tally("partitions")
        try:
            part_series = read_manifest(part_manifest).get("series")
        except (OSError, ValueError):
            continue  # fsck_seriesdb reported it; skip the cross-check
        if not isinstance(part_series, dict):
            continue
        readable.add(part)
        for sid in part_series:
            if sid in owned:
                report.add(
                    "FSK032", part_dir,
                    f"series {sid!r} present in partitions {owned[sid]} "
                    f"and {part}",
                )
                continue
            owned[sid] = part
            mapped = series_map.get(sid)
            if mapped is None:
                report.add(
                    "FSK032", part_dir,
                    f"series {sid!r} lives in partition {part} but the "
                    "partition map has no entry for it",
                )
            elif mapped != part:
                report.add(
                    "FSK032", part_dir,
                    f"series {sid!r} lives in partition {part}, the "
                    f"partition map places it in {mapped}",
                )
    for sid, part in series_map.items():
        if sid not in owned and isinstance(part, int) and part in readable:
            report.add(
                "FSK032", manifest_path,
                f"partition map claims series {sid!r} in partition "
                f"{part}, but that partition has no such series",
            )
    return report
