"""Guarded-by inference lint (RPR801/802/803) on seeded fixtures.

Same harness as test_dataflow.py: write a fixture tree into ``tmp_path``,
run ``repro lint --dataflow`` over it, and assert the exact findings —
rule, line, and message shape — plus that the well-locked variants right
next to each violation stay quiet.  Ends with the package-clean gate and
the ``--explain`` catalogue contract.
"""

import textwrap
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.rules import RULE_CATALOGUE, RULE_EXAMPLES

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], dataflow=True)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# -- RPR802 + RPR803: public mutators and escaping guarded state ----------------

RACY_FIXTURE = """
    import threading


    class Racy:
        def __init__(self):
            self._lock = threading.Lock()
            self._state = {}
            self._count = 0

        def put(self, k, v):
            with self._lock:
                self._state[k] = v
                self._count += 1

        def reset(self):
            self._count = 0

        def bump(self):
            self._count += 1

        def snapshot(self):
            with self._lock:
                return self._state

        def items(self):
            with self._lock:
                out = self._state
            return out

        def safe(self):
            with self._lock:
                return dict(self._state)
"""


def test_rpr802_public_mutator_without_guard(tmp_path):
    findings = lint_tree(tmp_path, {"racy.py": RACY_FIXTURE})
    fired = by_rule(findings, "RPR802")
    # RPR802 anchors at the offending method's `def` line.
    assert sorted(f.line for f in fired) == [16, 19]
    messages = sorted(f.message for f in fired)
    assert "Racy.bump" in messages[0] and "self._count" in messages[0]
    assert "Racy.reset" in messages[1] and "never acquires" in messages[1]
    # RPR801 must NOT double-report the same methods: 802 subsumes it.
    assert by_rule(findings, "RPR801") == []


def test_rpr803_guarded_state_escapes(tmp_path):
    findings = lint_tree(tmp_path, {"racy.py": RACY_FIXTURE})
    fired = by_rule(findings, "RPR803")
    assert sorted(f.line for f in fired) == [24, 29]
    direct, aliased = sorted(fired, key=lambda f: f.line)
    assert "Racy.snapshot returns self._state" in direct.message
    assert "via alias 'out'" in aliased.message
    assert all("outlives the critical section" in f.message for f in fired)
    # safe() returns a copy: nothing fires past the alias escape.
    assert not [f for f in findings if f.line > 29]


# -- RPR801: mixed locked/bare writes -------------------------------------------

MIXED_FIXTURE = """
    import threading


    class Mixed:
        def __init__(self):
            self._lock = threading.RLock()
            self._count = 0
            self._log = []

        def add(self, v):
            with self._lock:
                self._count += v
            self._count = 0

        def _touch(self):
            self._log.append(1)

        def audited_touch(self):
            with self._lock:
                self._log.append(2)
            self._touch()
"""


def test_rpr801_mixed_guarded_and_bare_writes(tmp_path):
    findings = lint_tree(tmp_path, {"mixed.py": MIXED_FIXTURE})
    fired = by_rule(findings, "RPR801")
    assert sorted(f.line for f in fired) == [14, 17]
    same_method, via_call = sorted(fired, key=lambda f: f.line)
    # The write after the with-block in the very same method.
    assert "Mixed.add writes self._count" in same_method.message
    # The private helper with one call site outside the lock.
    assert "Mixed._touch writes self._log" in via_call.message
    assert all("data race" in f.message for f in fired)


# -- negative cases: well-locked classes stay quiet -----------------------------

CLEAN_FIXTURE = """
    import threading


    class Disciplined:
        def __init__(self):
            self._lock = threading.Lock()
            self._state = {}
            self._hits = 0
            self._unguarded = 0  # never touched under the lock

        def put(self, k, v):
            with self._lock:
                self._state[k] = v
                self._hits += 1

        def _flush(self):
            self._state.clear()

        def drain(self):
            with self._lock:
                self._flush()
                return dict(self._state)

        def tick(self):
            self._unguarded += 1


    class NoLocksAtAll:
        def __init__(self):
            self._state = {}

        def put(self, k, v):
            self._state[k] = v

        def snapshot(self):
            return self._state
"""


def test_disciplined_classes_are_clean(tmp_path):
    findings = lint_tree(tmp_path, {"clean.py": CLEAN_FIXTURE})
    assert [f for f in findings if f.rule.startswith("RPR80")] == []


INIT_FIXTURE = """
    import threading


    class WarmStart:
        def __init__(self):
            self._lock = threading.Lock()
            self._cache = {}
            self._prime()  # pre-sharing call: cannot race

        def _prime(self):
            self._cache["boot"] = 1

        def put(self, k, v):
            with self._lock:
                self._cache[k] = v
                self._prime()
"""


def test_init_call_sites_count_as_held(tmp_path):
    # __init__ runs before the object is shared; a helper reached only
    # from __init__ and from under the lock must not trip RPR801.
    findings = lint_tree(tmp_path, {"warm.py": INIT_FIXTURE})
    assert [f for f in findings if f.rule.startswith("RPR80")] == []


# -- package gate ---------------------------------------------------------------

def test_package_is_clean_of_guarded_by_findings():
    findings = run_lint(
        [str(REPO_ROOT / "src" / "repro")], dataflow=True
    )
    fired = [f for f in findings if f.rule.startswith("RPR80")]
    assert fired == [], [f"{f.file}:{f.line} {f.rule} {f.message}" for f in fired]


# -- `repro lint --explain` catalogue contract ----------------------------------

def test_every_rule_has_an_explain_example():
    assert set(RULE_EXAMPLES) == set(RULE_CATALOGUE)
    for rule_id, example in RULE_EXAMPLES.items():
        assert example.strip(), rule_id


def test_explain_cli_prints_rationale_and_example(capsys):
    from repro.cli import main

    for rule_id, (title, hint) in sorted(RULE_CATALOGUE.items()):
        assert main(["lint", "--explain", rule_id.lower()]) == 0
        out = capsys.readouterr().out
        assert rule_id in out and title in out
        assert "fix:" in out and hint in out
        assert "minimal failing example" in out
        assert RULE_EXAMPLES[rule_id].splitlines()[0] in out

    # Unknown, and retired by the audit in docs/analysis-rules.md.
    for rule_id in ("RPR999", "RPR001", "RPR002", "RPR101", "RPR403"):
        assert main(["lint", "--explain", rule_id]) == 2
        assert rule_id in capsys.readouterr().err
