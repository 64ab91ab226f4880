"""Static analysis & integrity: the machine-checked invariants of the repo.

Two tools live here, both wired into the CLI and CI:

* ``repro lint`` (:func:`run_lint`) — an AST-based linter (stdlib ``ast``,
  no dependencies) enforcing the conventions the paper's trust story rests
  on: binary-layout confinement, durability discipline (atomic/fsync'd
  writes only), SeriesDB lock discipline, and bans on pickle/eval.  Each
  rule family stays only because it flags a seeded defect the test suite
  misses (the audit in ``docs/analysis-rules.md``); codec-protocol
  conformance went, since the ``Compressed`` ABCs and the codec tests
  already catch it.  A committed baseline file (:class:`Baseline`)
  grandfathers existing debt so CI fails only on *new* violations.

* ``repro fsck`` (:func:`fsck_path`) — an offline structural verifier for
  everything the system persists: one-shot and appendable archives
  (header/bounds/crc/monotonicity/torn-tail) and SeriesDB directories
  (manifest <-> shards <-> WAL cross-checks), with ``--deep`` decoding
  every frame.

Two deeper layers extend the linter beyond syntax:

* ``repro lint --dataflow`` (:mod:`repro.analysis.cfg` +
  :mod:`repro.analysis.dataflow` + :mod:`repro.analysis.concurrency`) — an
  intraprocedural CFG/escape analysis adding buffer-lifetime (RPR5xx),
  resource-release (RPR6xx), lock-order (RPR7xx), and guarded-by
  inference (RPR80x) rules.

* ``REPRO_SANITIZE=1`` (:mod:`repro.analysis.sanitizer`) — a runtime
  sanitizer instrumenting ``mmap_view``, archive open/close, and
  ``SeriesDB._lock`` with a live ledger: use-after-close, lock-order
  inversions, and vector-clock data races on instrumented SeriesDB state
  are detected as they happen, and leaked maps are reported at
  interpreter exit.  CI runs the whole test suite under it.

* :mod:`repro.analysis.schedule` — a deterministic schedule explorer:
  seeded, replayable thread interleavings (checkpoints at sanitized-lock
  boundaries) driving the ``tests/analysis/test_races.py`` stress suite
  and CI's ``race`` job.

This subsystem is the correctness gate the ROADMAP's service layer runs
behind: invariants that were reviewer-checked through PR 5 are
machine-checked from here on.
"""

from .findings import Baseline, Finding, apply_baseline
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
    "Baseline",
    "Finding",
    "FsckReport",
    "Problem",
    "RULE_CATALOGUE",
    "RULE_EXAMPLES",
    "Scheduler",
    "apply_baseline",
    "checkpoint",
    "explore",
    "fsck_archive",
    "fsck_partitioned",
    "fsck_path",
    "fsck_seriesdb",
    "run_lint",
]
