"""The lint audit's seeded mutations, kept as fixtures.

A rule family stays in the catalogue only because it flags a defect the
rest of the test suite does not catch (the audit table in
``docs/analysis-rules.md``).  Each case applies that audit's mutation to
the real source file, lints the mutated copy, and requires the family's
rule to fire, while the unmutated file stays clean of it.  When the code
moves so that a mutation no longer applies, re-seed it and re-run the
audit.
"""

import pytest

from repro.analysis import run_lint
from repro.analysis.linter import default_root

LOCKED_COUNT = '''\
        with self._lock:
            self._check_open()
            if series_id in self._stores:
                return len(self._stores[series_id])
            return int(self._entry(series_id)["count"])
'''

LOCKED_MARK_DIRTY = '''\
        with self._lock:
            self._check_open()
            self._load(series_id)  # flush rewrites from the live store
            self._dirty.add(series_id)
'''


def _dedent_block(block: str) -> str:
    """``block`` without its ``with`` line, its body one level out."""
    lines = block.splitlines(keepends=True)
    return "".join(line[4:] for line in lines[1:])


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
    ("RPR301", "store/seriesdb.py", [
        (LOCKED_COUNT, _dedent_block(LOCKED_COUNT)),
    ]),
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
    ("RPR802", "store/seriesdb.py", [
        (LOCKED_MARK_DIRTY, _dedent_block(LOCKED_MARK_DIRTY)),
    ]),
]


def _rules_fired(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return {f.rule for f in run_lint([str(root)], dataflow=True)}


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
