"""The lint audit's seeded mutations, kept as fixtures.

A rule family stays in the catalogue only because it flags a defect the
rest of the test suite does not catch (the audit table in
``docs/analysis-rules.md``).  Each case applies that audit's mutation to
the real source file, lints the mutated copy, and requires the family's
rule to fire, while the unmutated file stays clean of it.  When the code
moves so that a mutation no longer applies, re-seed it and re-run the
audit.
"""

import itertools

import pytest

from repro.analysis import run_lint
from repro.analysis.linter import default_root


def _lock_block(relpath: str, method: str) -> str:
    """``method``'s ``with self._lock:`` line and the body it indents."""
    source = (default_root() / relpath).read_text("utf-8")
    start = source.index(f"    def {method}(")
    head = source.index("        with self._lock:\n", start)
    assert "\n    def " not in source[start + 1:head], f"re-seed: {method}"
    lines = source[head:].splitlines(keepends=True)
    body = itertools.takewhile(lambda line: line.startswith(" " * 12), lines[1:])
    return lines[0] + "".join(body)


def _dedent_block(block: str) -> str:
    """``block`` without its ``with`` line, its body one level out."""
    lines = block.splitlines(keepends=True)
    return "".join(line[4:] for line in lines[1:])


def _unlocked(relpath: str, method: str) -> list[tuple[str, str]]:
    """The edit that drops ``method``'s ``with self._lock:``."""
    block = _lock_block(relpath, method)
    return [(block, _dedent_block(block))]


LOCKED_MARK_DIRTY = _lock_block("store/seriesdb.py", "mark_dirty")


#: the clean half of both RPR201 cases: a write_atomic call
MANIFEST_WRITE = '_write_atomic(self._root / MANIFEST_NAME, blob + b"\\n")'

#: (rule, file under src/repro, [(old, new), ...]) — the audit's mutations
SEEDED = [
    ("RPR102", "core/storage.py", [
        ("import numpy as np\n", "import struct\n\nimport numpy as np\n"),
        ("NEATS102_HDR.unpack_from(data, len(_MAGIC))",
         'struct.unpack_from("<qqqq", data, len(_MAGIC))'),
    ]),
    ("RPR201", "store/seriesdb.py", [
        (MANIFEST_WRITE,
         '(self._root / MANIFEST_NAME).write_bytes(blob + b"\\n")'),
    ]),
    ("RPR201", "store/seriesdb.py", [
        (MANIFEST_WRITE,
         '(self._root / MANIFEST_NAME).write_text(blob.decode() + "\\n")'),
    ]),
    ("RPR301", "store/seriesdb.py", _unlocked("store/seriesdb.py", "count")),
    ("RPR401", "store/seriesdb.py", [
        ("import json\n", "import json\nimport pickle\n"),
        ('            return {**self._config, "root": str(self._root), '
         '"series": series}\n',
         '            return pickle.loads(pickle.dumps({**self._config, '
         '"root": str(self._root), "series": series}))\n'),
    ]),
    ("RPR402", "cli.py", [
        ('group.add_argument("--at", type=int,',
         'group.add_argument("--at", type=str,'),
        ("            for k in args.at:\n",
         "            for k in args.at:\n                k = eval(k)\n"),
    ]),
    ("RPR501", "store/seriesdb.py", [
        ("                return view\n", "                return view[:]\n"),
    ]),
    ("RPR601", "codecs/container.py", [
        ('        with open(path, "rb") as fh:\n'
         "            return memoryview(mmap.mmap(fh.fileno(), 0, "
         "access=mmap.ACCESS_READ))\n",
         '        fh = open(path, "rb")\n'
         "        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)\n"
         "        fh.close()\n"
         "        return memoryview(mapped)\n"),
    ]),
    ("RPR702", "store/seriesdb.py", [
        (LOCKED_MARK_DIRTY,
         "        self._lock.acquire()\n" + _dedent_block(LOCKED_MARK_DIRTY)
         + "        self._lock.release()\n"),
    ]),
    ("RPR802", "store/seriesdb.py", _unlocked("store/seriesdb.py", "mark_dirty")),
    # The race detector's audit: each race it was seeded with, linted.
    ("RPR802", "store/seriesdb.py", _unlocked("store/seriesdb.py", "compact")),
    ("RPR801", "store/seriesdb.py", _unlocked("store/seriesdb.py", "access")),
    ("RPR301", "store/seriesdb.py", _unlocked("store/seriesdb.py", "flush")),
    ("RPR301", "store/partitioned.py",
     _unlocked("store/partitioned.py", "ingest_many")),
]


def _rules_fired(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return {f.rule for f in run_lint([str(root)])}


@pytest.mark.parametrize(
    "rule, relpath, edits", SEEDED, ids=[f"{r}-{i}" for i, (r, *_) in enumerate(SEEDED)]
)
def test_seeded_mutation_is_flagged(tmp_path, rule, relpath, edits):
    source = (default_root() / relpath).read_text("utf-8")
    mutant = source
    for old, new in edits:
        assert mutant.count(old) == 1, f"re-seed: {old!r} moved"
        mutant = mutant.replace(old, new)
    assert rule not in _rules_fired(tmp_path / "clean", relpath, source)
    assert rule in _rules_fired(tmp_path / "mutant", relpath, mutant)
