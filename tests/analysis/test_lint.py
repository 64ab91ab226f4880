"""repro lint: every rule class must catch a seeded violation.

Each test writes a small fixture tree into ``tmp_path``, runs the linter
over it, and asserts the expected rule fires at the expected place.
The final tests run the linter over the *real* package and require it to
be clean modulo the committed baseline — the exact gate CI runs.
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, apply_baseline, run_lint
from repro.analysis.concurrency import _ClassScan, _guard_attrs
from repro.analysis.findings import Finding
from repro.analysis.rules import GUARDED_STATE

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_tree(tmp_path, files, *, dataflow=False):
    """Write ``{relpath: source}`` under tmp_path and lint the tree."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], dataflow=dataflow)


def rules_fired(findings):
    return {f.rule for f in findings}


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# -- RPR000: unparseable sources ------------------------------------------------


def test_syntax_error_is_reported_not_raised(tmp_path):
    findings = lint_tree(tmp_path, {"broken.py": "def f(:\n    pass\n"})
    (finding,) = by_rule(findings, "RPR000")
    assert finding.file == "broken.py"
    assert "syntax error" in finding.message


# -- RPR102: struct confinement -------------------------------------------------


def test_struct_import_outside_layout_modules_flagged(tmp_path):
    findings = lint_tree(tmp_path, {"app/logic.py": "import struct\n"})
    (finding,) = by_rule(findings, "RPR102")
    assert finding.file == "app/logic.py"


def test_layout_modules_may_import_struct(tmp_path):
    findings = lint_tree(tmp_path, {
        "codecs/container.py": "import struct\n",
        "codecs/serialize.py": "from struct import Struct\n",
        "bits/io.py": "import struct\n",
    })
    assert by_rule(findings, "RPR102") == []


# -- RPR201: durability discipline ----------------------------------------------


def test_bare_binary_write_flagged(tmp_path):
    findings = lint_tree(tmp_path, {"writer.py": """
        def save(path, blob):
            with open(path, "wb") as fh:
                fh.write(blob)
    """})
    (finding,) = by_rule(findings, "RPR201")
    assert "'wb'" in finding.message


def test_path_open_binary_write_flagged(tmp_path):
    findings = lint_tree(tmp_path, {"writer.py": """
        def save(path, blob):
            with path.open("wb") as fh:
                fh.write(blob)
    """})
    assert len(by_rule(findings, "RPR201")) == 1


def test_mode_keyword_and_append_modes_flagged(tmp_path):
    findings = lint_tree(tmp_path, {"writer.py": """
        def save(path, blob):
            fh = open(path, mode="r+b")
            fh.write(blob)
    """})
    assert len(by_rule(findings, "RPR201")) == 1


def test_reads_and_text_writes_are_not_durability_findings(tmp_path):
    findings = lint_tree(tmp_path, {"reader.py": """
        import os

        def load(path):
            os.open(path, 0)
            with open(path, "rb") as fh:
                return fh.read()

        def note(path, text):
            with open(path, "w") as fh:
                fh.write(text)
    """})
    assert by_rule(findings, "RPR201") == []


def test_sanctioned_writers_are_exempt(tmp_path):
    findings = lint_tree(tmp_path, {"codecs/container.py": """
        def write_atomic(path, blob):
            with open(path, "wb") as fh:
                fh.write(blob)

        class AppendableArchive:
            def append(self, values):
                with self._path.open("r+b") as fh:
                    fh.write(b"")
    """})
    assert by_rule(findings, "RPR201") == []


def test_same_function_name_elsewhere_is_not_exempt(tmp_path):
    findings = lint_tree(tmp_path, {"other.py": """
        def write_atomic(path, blob):
            with open(path, "wb") as fh:
                fh.write(blob)
    """})
    assert len(by_rule(findings, "RPR201")) == 1


# -- RPR301: lock discipline ----------------------------------------------------


def test_unlocked_guarded_state_access_flagged(tmp_path):
    findings = lint_tree(tmp_path, {"db.py": """
        import threading

        class SeriesDB:
            def __init__(self):
                self._lock = threading.RLock()
                self._stores = {}

            def count(self, sid):
                return len(self._stores[sid])

            def access(self, sid, k):
                with self._lock:
                    return self._stores[sid][k]

            def _helper(self, sid):
                return self._stores[sid]
    """}, dataflow=True)
    flagged = by_rule(findings, "RPR301")
    assert len(flagged) == 1
    assert "count" in flagged[0].message  # access is locked, _helper private
    # The unlocked *read* in count() is RPR301's alone: the guarded-by
    # rules RPR801-803 check writes and escapes, so they stay silent here.
    assert not [f for f in findings if f.rule.startswith("RPR80")]


@pytest.mark.parametrize("module, name", [
    ("store/seriesdb.py", "SeriesDB"),
    ("store/partitioned.py", "PartitionedSeriesDB"),
])
def test_guarded_state_matches_inferred_guarded_writes(module, name):
    """RPR301's hand-kept list is what the guarded-by inference sees
    written under ``self._lock``, less ``_closed``: the ``closed`` property
    reads that flag without the lock on purpose."""
    tree = ast.parse((REPO_ROOT / "src" / "repro" / module).read_text("utf-8"))
    cls = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    )
    assert _guard_attrs(cls) == {"_lock"}
    scan = _ClassScan(cls, {"_lock"})
    held_methods = scan.held_methods()
    written = {
        site.attr for site in scan.sites
        if site.write and scan.classify(site, held_methods)
    }
    assert GUARDED_STATE[name] == written - {"_closed"}


def test_missing_lock_creation_flagged(tmp_path):
    findings = lint_tree(tmp_path, {"db.py": """
        class SeriesDB:
            def __init__(self):
                self._stores = {}
    """})
    assert any(
        "does not create self._lock" in f.message
        for f in by_rule(findings, "RPR301")
    )


def test_public_dunders_need_the_lock_too(tmp_path):
    findings = lint_tree(tmp_path, {"db.py": """
        import threading

        class SeriesDB:
            def __init__(self):
                self._lock = threading.RLock()
                self._series = {}

            def __len__(self):
                return len(self._series)
    """})
    assert any("__len__" in f.message for f in by_rule(findings, "RPR301"))


# -- RPR401 / RPR402: bans -----------------------------------------------------


def test_pickle_import_banned(tmp_path):
    findings = lint_tree(tmp_path, {"p.py": "import pickle\n"})
    assert len(by_rule(findings, "RPR401")) == 1


def test_eval_and_exec_banned(tmp_path):
    findings = lint_tree(tmp_path, {"e.py": """
        def f(expr):
            eval(expr)
            exec(expr)
    """})
    assert len(by_rule(findings, "RPR402")) == 2


# -- the baseline ---------------------------------------------------------------


def _finding(rule, file, line):
    return Finding(rule, file, line, "msg", "hint")


def test_baseline_roundtrip(tmp_path):
    findings = [_finding("RPR102", "a.py", 3), _finding("RPR102", "a.py", 9)]
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(path)
    loaded = Baseline.load(path)
    assert loaded.counts == {"RPR102:a.py": 2}
    data = json.loads(path.read_text())
    assert data["version"] == 1


def test_missing_baseline_is_empty(tmp_path):
    assert Baseline.load(tmp_path / "nope.json").counts == {}


def test_corrupt_baseline_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        Baseline.load(path)


def test_baseline_grandfathers_exact_count(tmp_path):
    baseline = Baseline({"RPR102:a.py": 1})
    marked = apply_baseline(
        [_finding("RPR102", "a.py", 3), _finding("RPR102", "a.py", 9)],
        baseline,
    )
    assert [f.baselined for f in marked] == [True, False]


def test_baseline_survives_line_drift(tmp_path):
    baseline = Baseline({"RPR102:a.py": 1})
    (marked,) = apply_baseline([_finding("RPR102", "a.py", 999)], baseline)
    assert marked.baselined  # keyed rule:file, not by line


# -- the real package: the gate CI runs -----------------------------------------


def test_repo_lints_clean_modulo_baseline():
    baseline = Baseline.load(REPO_ROOT / ".repro-lint.json")
    findings = run_lint(baseline=baseline)
    fresh = [f for f in findings if not f.baselined]
    assert fresh == [], "\n".join(f.render() for f in fresh)


def test_repo_baseline_is_not_stale():
    """Fixed debt must leave the baseline (--update-baseline) promptly."""
    baseline = Baseline.load(REPO_ROOT / ".repro-lint.json")
    live = Baseline.from_findings(run_lint()).counts
    for key, allowed in baseline.counts.items():
        assert live.get(key, 0) >= allowed, (
            f"baseline allows {allowed} x {key} but only {live.get(key, 0)} "
            "remain: regenerate with `repro lint --update-baseline`"
        )
