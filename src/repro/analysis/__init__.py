"""Static analysis & integrity: the machine-checked invariants of the repo.

Two tools live here, both wired into the CLI and CI:

* ``repro lint`` (:func:`run_lint`) — an AST-based linter (stdlib ``ast``,
  no dependencies) enforcing the conventions the paper's trust story rests
  on: binary-layout confinement, durability discipline (atomic/fsync'd
  writes only), bans on pickle/eval, and — over an intraprocedural CFG
  (:mod:`repro.analysis.cfg`) — buffer lifetime (RPR5xx), resource
  release (RPR6xx), bare lock acquires (RPR702), and SeriesDB lock
  discipline (RPR301) with guarded-by inference (RPR80x,
  :mod:`repro.analysis.concurrency`), which together are the one
  data-race check.  Every rule runs on every call, and CI fails on any
  finding.  Each rule family stays only because it flags a seeded defect
  the test suite misses (the audit in ``docs/analysis-rules.md``).

* ``repro fsck`` (:func:`fsck_path`) — an offline structural verifier for
  everything the system persists: one-shot and appendable archives
  (header/bounds/crc/monotonicity/torn-tail) and SeriesDB directories
  (manifest <-> shards <-> WAL cross-checks), with ``--deep`` decoding
  every frame.

Two runtime aids back them:

* ``REPRO_SANITIZE=1`` (:mod:`repro.analysis.sanitizer`) — a runtime
  sanitizer instrumenting ``mmap_view`` and the ``SeriesDB`` /
  ``PartitionedSeriesDB`` locks with a live ledger: lock-order
  inversions are detected as they happen, and leaked maps are reported
  at interpreter exit.  CI runs the whole test suite under it.

* :mod:`repro.analysis.schedule` — a deterministic schedule explorer:
  seeded, replayable thread interleavings (checkpoints at sanitized-lock
  boundaries) driving the ``tests/analysis/test_races.py`` stress suite.

This subsystem is the correctness gate the ROADMAP's service layer runs
behind: invariants that were reviewer-checked through PR 5 are
machine-checked from here on.
"""

from .findings import Finding
from .fsck import (
    FsckReport,
    Problem,
    fsck_archive,
    fsck_partitioned,
    fsck_path,
    fsck_seriesdb,
)
from .linter import run_lint
from .rules import RULE_CATALOGUE, RULE_EXAMPLES
from .schedule import Scheduler, checkpoint, explore

__all__ = [
    "Finding",
    "FsckReport",
    "Problem",
    "RULE_CATALOGUE",
    "RULE_EXAMPLES",
    "Scheduler",
    "checkpoint",
    "explore",
    "fsck_archive",
    "fsck_partitioned",
    "fsck_path",
    "fsck_seriesdb",
    "run_lint",
]
