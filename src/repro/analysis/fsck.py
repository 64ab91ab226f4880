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
* **SeriesDB directories**: manifest format and entries, shard files
  present with matching crc32 and snapshot magic, WAL generation files
  consistent with the manifest (codec and digits match the configuration),
  dangling files in ``shards/`` no manifest entry references;
* ``--deep`` additionally decodes every frame/shard: value counts must
  match the recorded headers, manifest counts must equal snapshot + WAL
  replay, and lossy payloads must agree with their frame params (ε and
  segment count).

The struct layouts are imported from :mod:`repro.codecs.container`,
:mod:`repro.codecs.serialize`, and :mod:`repro.core.tiered` — fsck can
never drift from the parsers it audits.

Problem codes (``FSK###``) are machine-stable for ``--json`` consumers;
exit codes: 0 = clean, 1 = defects found, 2 = target unusable/missing.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..codecs import serialize
from ..codecs.container import (
    APPEND_MAGIC,
    ARCHIVE_MAGIC,
    GROUP_MAGIC,
    LEGACY_MAGIC,
    _APPEND_HEADER,
    _GROUP_HEADER,
    _GROUP_RECORD,
    _HEADER,
    _RECORD,
)
from ..codecs.registry import available_codecs, codec_spec, load_compressed
from ..store.partitioned import PARTITION_MANIFEST_FORMAT, _PART_DIR
from ..store.seriesdb import MANIFEST_FORMAT, MANIFEST_NAME

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
            manifest = json.loads((target / MANIFEST_NAME).read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            manifest = None
        if (
            isinstance(manifest, dict)
            and manifest.get("format") == PARTITION_MANIFEST_FORMAT
        ):
            return fsck_partitioned(target, deep=deep)
        return fsck_seriesdb(target, deep=deep)
    return fsck_archive(target, deep=deep)


# -- archives ------------------------------------------------------------------


def _check_frame(
    report: FsckReport, path, label: str, frame, *, deep: bool,
    expect_n: int | None = None,
) -> None:
    """Frame-header sanity (and, deep, a full decode) for one codec frame."""
    try:
        parsed = serialize.read_frame(frame)
    except ValueError as exc:
        report.add("FSK006", path, f"{label}: {exc}")
        return
    if parsed.codec_id not in available_codecs():
        report.add(
            "FSK007", path,
            f"{label}: codec {parsed.codec_id!r} is not registered",
        )
        return
    if expect_n is not None and parsed.n != expect_n:
        report.add(
            "FSK008", path,
            f"{label}: frame header records {parsed.n} values, "
            f"container says {expect_n}",
        )
    report.tally("frames")
    if not deep:
        return
    try:
        compressed = load_compressed(parsed)
        values = compressed.decompress()
    except Exception as exc:  # any decode failure is the finding itself
        report.add("FSK010", path, f"{label}: decode failed: {exc}")
        return
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


def _fsck_appendable(
    report: FsckReport, path: Path, data: bytes, deep: bool
) -> None:
    report.kind = "appendable"
    if len(data) < _APPEND_HEADER.size:
        report.add(
            "FSK002", path,
            f"{len(data)} bytes, appendable header needs {_APPEND_HEADER.size}",
        )
        return
    magic, digits, idlen, plen = _APPEND_HEADER.unpack_from(data)
    pos = _APPEND_HEADER.size
    if len(data) < pos + idlen + plen:
        report.add(
            "FSK011", path,
            f"header says {idlen}+{plen} id/params bytes, only "
            f"{len(data) - pos} present",
        )
        return
    try:
        codec_id = data[pos:pos + idlen].decode("utf-8")
        params = json.loads(data[pos + idlen:pos + idlen + plen])
        if not isinstance(params, dict):
            raise ValueError("params are not a JSON object")
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
        report.add("FSK011", path, f"corrupt codec id/params block: {exc}")
        return
    if codec_id not in available_codecs():
        report.add("FSK007", path, f"codec {codec_id!r} is not registered")
    pos += idlen + plen
    total, index = 0, 0
    # Unlike the recovering reader (_scan_append), fsck distinguishes *why*
    # the walk stopped: every structural break is reported, then whatever
    # bytes remain are the torn tail.
    while len(data) - pos >= _RECORD.size:
        frame_len, crc, cum = _RECORD.unpack_from(data, pos)
        start = pos + _RECORD.size
        label = f"record {index}"
        if start + frame_len > len(data):
            report.add(
                "FSK012", path,
                f"{label}: length {frame_len} overruns the file by "
                f"{start + frame_len - len(data)} bytes",
            )
            break
        if cum <= total:
            report.add(
                "FSK014", path,
                f"{label}: cumulative count {cum} not greater than "
                f"previous {total}",
            )
            break
        frame = data[start:start + frame_len]
        try:
            span = serialize.frame_span(frame)
        except ValueError as exc:
            report.add("FSK016", path, f"{label}: {exc}")
            break
        if span != frame_len:
            report.add(
                "FSK016", path,
                f"{label}: record says {frame_len} bytes, frame accounts "
                f"for {span}",
            )
            break
        if zlib.crc32(frame) != crc:
            report.add(
                "FSK013", path,
                f"{label}: frame crc32 {zlib.crc32(frame):#010x} != "
                f"recorded {crc:#010x}",
            )
            # structure (lengths, cumulative count) is sound: keep walking
            # the chain and account the record's values so later records
            # are judged against the right running total
            total = cum
            pos = start + frame_len
            index += 1
            continue
        _check_frame(
            report, path, label, frame, deep=deep, expect_n=cum - total,
        )
        report.tally("records")
        total = cum
        pos = start + frame_len
        index += 1
    if pos < len(data):
        report.add(
            "FSK015", path,
            f"{len(data) - pos} byte(s) beyond the last complete record "
            "(interrupted append; the next writer truncates them)",
        )
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


def _fsck_shard(
    report: FsckReport, path: Path, entry: dict, sid: str, deep: bool
) -> int | None:
    """Verify one shard snapshot; returns its decoded count (deep only)."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        report.add("FSK022", path, f"series {sid!r}: {exc}")
        return None
    if zlib.crc32(data) != int(entry.get("crc32", -1)):
        report.add(
            "FSK023", path,
            f"series {sid!r}: shard crc32 {zlib.crc32(data):#010x} != "
            f"manifest {int(entry.get('crc32', -1)):#010x}",
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
    if count != int(entry.get("count", -1)):
        report.add(
            "FSK025", path,
            f"series {sid!r}: snapshot holds {count} values, manifest "
            f"says {entry.get('count')}",
        )
    report.tally("decoded_values", count)
    return count


def _fsck_group_log(
    report: FsckReport, path: Path, manifest: dict, deep: bool
) -> dict[str, int]:
    """Structurally verify one group-commit WAL (``RPGW0001``).

    Returns per-series value counts taken from the frame headers, so the
    caller can fold them into the deep replay cross-check (FSK029).
    """
    counts: dict[str, int] = {}
    try:
        data = path.read_bytes()
    except OSError as exc:
        report.add("FSK001", path, str(exc))
        return counts
    if data[:8] != GROUP_MAGIC:
        report.add(
            "FSK033", path,
            f"magic {data[:8]!r} is not a group WAL ({GROUP_MAGIC!r})",
        )
        return counts
    if len(data) < _GROUP_HEADER.size:
        report.add(
            "FSK033", path,
            f"{len(data)} bytes, group header needs {_GROUP_HEADER.size}",
        )
        return counts
    _, idlen, plen = _GROUP_HEADER.unpack_from(data)
    pos = _GROUP_HEADER.size
    if len(data) < pos + idlen + plen:
        report.add(
            "FSK033", path,
            f"header says {idlen}+{plen} id/params bytes, only "
            f"{len(data) - pos} present",
        )
        return counts
    try:
        codec_id = data[pos:pos + idlen].decode("utf-8")
        params = json.loads(data[pos + idlen:pos + idlen + plen])
        if not isinstance(params, dict):
            raise ValueError("params are not a JSON object")
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
        report.add("FSK033", path, f"corrupt codec id/params block: {exc}")
        return counts
    if codec_id not in available_codecs():
        report.add("FSK007", path, f"codec {codec_id!r} is not registered")
    hot_codec = manifest.get("hot_codec")
    if hot_codec and codec_id != hot_codec:
        report.add(
            "FSK034", path,
            f"group WAL codec {codec_id!r} != configured hot codec "
            f"{hot_codec!r}",
        )
    series = manifest.get("series")
    series = series if isinstance(series, dict) else {}
    pos += idlen + plen
    index = 0
    while len(data) - pos >= _GROUP_RECORD.size:
        sid_len, digits, frame_len, crc = _GROUP_RECORD.unpack_from(data, pos)
        sid_start = pos + _GROUP_RECORD.size
        frame_start = sid_start + sid_len
        label = f"record {index}"
        if sid_len == 0 or frame_start + frame_len > len(data):
            report.add(
                "FSK012", path,
                f"{label}: lengths {sid_len}+{frame_len} overrun the file "
                f"by {frame_start + frame_len - len(data)} bytes",
            )
            break
        try:
            sid = data[sid_start:frame_start].decode("utf-8")
        except UnicodeDecodeError as exc:
            report.add("FSK033", path, f"{label}: series id not UTF-8: {exc}")
            break
        frame = data[frame_start:frame_start + frame_len]
        entry = series.get(sid)
        if isinstance(entry, dict) and int(entry.get("digits", 0)) != digits:
            report.add(
                "FSK034", path,
                f"{label}: series {sid!r} digits {digits} != manifest "
                f"digits {entry.get('digits', 0)}",
            )
        try:
            span = serialize.frame_span(frame)
        except ValueError as exc:
            report.add("FSK016", path, f"{label}: {exc}")
            break
        if span != frame_len:
            report.add(
                "FSK016", path,
                f"{label}: record says {frame_len} frame bytes, frame "
                f"accounts for {span}",
            )
            break
        if zlib.crc32(frame) != crc:
            report.add(
                "FSK013", path,
                f"{label}: frame crc32 {zlib.crc32(frame):#010x} != "
                f"recorded {crc:#010x}",
            )
            # the chain structure is sound: keep walking the tail
            pos = frame_start + frame_len
            index += 1
            continue
        _check_frame(report, path, f"{label} (series {sid!r})", frame, deep=deep)
        try:
            counts[sid] = counts.get(sid, 0) + serialize.read_frame(frame).n
        except ValueError:
            pass  # _check_frame reported FSK006 for this frame already
        report.tally("records")
        pos = frame_start + frame_len
        index += 1
    if pos < len(data):
        report.add(
            "FSK015", path,
            f"{len(data) - pos} byte(s) beyond the last complete record "
            "(interrupted group append; the next writer truncates them)",
        )
    report.tally("group_wals")
    return counts


def fsck_seriesdb(root, *, deep: bool = False) -> FsckReport:
    """Cross-check a SeriesDB directory: manifest <-> shards <-> WALs."""
    root = Path(root)
    report = FsckReport(target=str(root), kind="seriesdb", deep=deep)
    manifest_path = root / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except OSError as exc:
        report.add("FSK001", manifest_path, str(exc))
        return report
    except json.JSONDecodeError as exc:
        report.add("FSK020", manifest_path, f"manifest is not JSON: {exc}")
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
    for sid, entry in series.items():
        if not isinstance(entry, dict) or "shard" not in entry:
            report.add(
                "FSK021", manifest_path, f"series {sid!r}: malformed entry"
            )
            continue
        report.tally("series")
        shard_rel = entry["shard"]
        referenced.add(shard_rel)
        shard_path = root / shard_rel
        snapshot_count: int | None = None
        if shard_path.exists():
            snapshot_count = _fsck_shard(report, shard_path, entry, sid, deep)
        elif int(entry.get("count", 0)) != 0:
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
                        raw = wal_path.read_bytes()
                        _, wal_digits, idlen, _ = _APPEND_HEADER.unpack_from(raw)
                        wal_codec = raw[
                            _APPEND_HEADER.size:_APPEND_HEADER.size + idlen
                        ].decode("utf-8")
                        if hot_codec and wal_codec != hot_codec:
                            report.add(
                                "FSK027", wal_path,
                                f"series {sid!r}: WAL codec {wal_codec!r} != "
                                f"configured hot codec {hot_codec!r}",
                            )
                        recorded = int(entry.get("digits", 0))
                        if wal_digits != recorded:
                            report.add(
                                "FSK027", wal_path,
                                f"series {sid!r}: WAL digits {wal_digits} != "
                                f"manifest digits {recorded}",
                            )
                        wal_count = sub.checked.get("values", 0)
                    except Exception as exc:
                        report.add(
                            "FSK026", wal_path,
                            f"series {sid!r}: WAL header unreadable: {exc}",
                        )
        expected_counts[sid] = int(entry.get("count", 0)) + wal_count
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
            group_counts = _fsck_group_log(report, group_path, manifest, deep)
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
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except OSError as exc:
        report.add("FSK001", manifest_path, str(exc))
        return report
    except json.JSONDecodeError as exc:
        report.add("FSK020", manifest_path, f"manifest is not JSON: {exc}")
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
            part_series = json.loads(
                part_manifest.read_text("utf-8")
            ).get("series")
        except (OSError, json.JSONDecodeError, AttributeError):
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
