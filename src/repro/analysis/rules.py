"""Per-file AST lint rules: the invariants convention used to enforce.

Every rule here is a pure function over one parsed module (no imports of
the code under analysis).  Each one stays because it flags a seeded defect
the test suite does not catch (the audit table in
``docs/analysis-rules.md``).  The catalogue:

``RPR102`` **struct-confinement** — raw ``struct`` use is confined to the
    modules that own a documented binary layout (``baselines/_native.py``,
    ``codecs/container.py``, ``codecs/serialize.py``, ``bits/io.py``).
    Everything else should reuse those layouts: a second copy of a format
    string reads the same bytes today and drifts silently tomorrow.

``RPR201`` **durability-discipline** — a write-mode binary ``open``, and
    any ``Path.write_bytes``/``Path.write_text`` call, is only legal inside
    the sanctioned writers (``write_atomic`` and the fsync'd tail-append
    paths of ``AppendableArchive`` and ``GroupLog``).  A bare
    ``open(path, "wb").write(...)`` or ``path.write_bytes(...)`` can be
    torn by a crash and must route through
    :func:`repro.codecs.container.write_atomic`.

``RPR301`` **lock-discipline** — public :class:`SeriesDB` methods touching
    the shared shard-cache / dirty-set / manifest state must hold
    ``self._lock``; private helpers are documented as
    called-under-lock.  Also checks that ``__init__`` creates the lock.

``RPR401`` **no-pickle** — ``pickle``/``dill``/``shelve`` deserialise
    arbitrary code; archives are the only persistence format.

``RPR402`` **no-eval** — ``eval``/``exec`` are banned outright.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .findings import Finding

__all__ = ["Module", "RULE_CATALOGUE", "PER_FILE_RULES", "run_per_file_rules"]


@dataclass(frozen=True)
class Module:
    """One parsed source file handed to the rules."""

    relpath: str  #: posix path relative to the lint root
    tree: ast.Module


#: rule id -> (one-line title, one-line remedy) — rendered by ``repro lint --rules``
RULE_CATALOGUE: dict[str, tuple[str, str]] = {
    "RPR000": (
        "source file must parse (syntax/encoding errors stop every other rule)",
        "fix the syntax or encoding error",
    ),
    "RPR102": (
        "raw struct use is confined to the binary-layout modules",
        "reuse the documented layouts in codecs/container.py, "
        "codecs/serialize.py, baselines/_native.py, or bits/io.py",
    ),
    "RPR201": (
        "archive/manifest/WAL writes must be atomic or fsync'd",
        "route the write through repro.codecs.container.write_atomic "
        "(or the AppendableArchive append path)",
    ),
    "RPR301": (
        "SeriesDB shared state must be touched under self._lock",
        "wrap the method body in `with self._lock:` (public API boundary)",
    ),
    "RPR401": (
        "pickle/dill/shelve are banned (arbitrary code on load)",
        "persist through the archive container or JSON instead",
    ),
    "RPR402": (
        "eval/exec are banned",
        "replace with explicit parsing or dispatch",
    ),
    # Dataflow rules, implemented in dataflow.py.
    "RPR501": (
        "a memoryview derived from mmap_view must not escape without its "
        "owning map",
        "return bytes(view), the root view, or the map alongside it",
    ),
    "RPR502": (
        "a derived mmap view stashed on self needs its root/map stashed too",
        "store the root view (or view.obj) on self so it can be closed",
    ),
    "RPR601": (
        "acquired resources (open/os.open/os.fdopen/mmap.mmap) must be "
        "closed or handed off on every path",
        "use `with ...:` or close in a finally",
    ),
    "RPR602": (
        "no use of a local on a path after its .close()",
        "reorder the use before close(), or rebind the name",
    ),
    "RPR702": (
        "no bare lock.acquire() without release() in a finally",
        "use `with lock:`",
    ),
    # Guarded-by inference, implemented in concurrency.py: inferred for
    # every class creating a Lock/RLock.
    "RPR801": (
        "a field written both under and outside its inferred guard "
        "(one unguarded write is a data race)",
        "take the lock around every write, or stop guarding the field",
    ),
    "RPR802": (
        "a public method mutates guarded state but never acquires the guard",
        "wrap the method body in `with self._lock:` (the public API is "
        "the locking boundary)",
    ),
    "RPR803": (
        "guarded mutable state (dict/list/set/memoryview) escapes the lock "
        "region via return/yield/stash",
        "return a copy (dict(...)/list(...)/bytes(...)) instead of the "
        "live container",
    ),
}

#: rule id -> a minimal source example tripping it (``repro lint --explain``)
RULE_EXAMPLES: dict[str, str] = {
    "RPR000": 'def broken(:   # SyntaxError: no other rule can run\n    pass',
    "RPR102": "import struct   # outside the binary-layout modules",
    "RPR201": (
        'open(path, "wb").write(blob)   # a crash mid-write tears the file,\n'
        "path.write_bytes(blob)         # and so does this one;\n"
        "# route both through write_atomic() instead"
    ),
    "RPR301": (
        "class SeriesDB:\n"
        "    def count(self, sid):\n"
        "        return len(self._stores[sid])   # shared state, no self._lock"
    ),
    "RPR401": "import pickle   # arbitrary code execution on load",
    "RPR402": 'eval(expression)   # banned outright',
    "RPR501": (
        "def frame(path):\n"
        "    view = mmap_view(path)\n"
        "    return view[8:16]   # derived view escapes without its map"
    ),
    "RPR502": (
        "def open_frame(self, path):\n"
        "    view = mmap_view(path)\n"
        "    self._frame = view[8:16]   # stashed; the root/map is not"
    ),
    "RPR601": (
        'def read(path):\n'
        '    fh = open(path, "rb")\n'
        "    data = parse(fh.read())   # if this raises, fh never closes\n"
        "    fh.close()\n"
        "    return data"
    ),
    "RPR602": (
        "fh.close()\n"
        "return fh.read()   # used on a path after its close()"
    ),
    "RPR702": (
        "lock.acquire()\n"
        "do_work()        # raises -> the lock is never released\n"
        "lock.release()   # use `with lock:` instead"
    ),
    "RPR801": (
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n"
        "    def add(self):\n"
        "        with self._lock:\n"
        "            self._n += 1\n"
        "        self._n = 0   # also written outside the guard: a data race"
    ),
    "RPR802": (
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._state = {}\n"
        "    def put(self, k, v):\n"
        "        with self._lock:\n"
        "            self._state[k] = v\n"
        "    def clear(self):\n"
        "        self._state.clear()   # public mutator, never takes the lock"
    ),
    "RPR803": (
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._state = {}\n"
        "    def snapshot(self):\n"
        "        with self._lock:\n"
        "            return self._state   # the live dict outlives the lock\n"
        "            # return dict(self._state) is the sanctioned idiom"
    ),
}

# -- RPR102: binary-format discipline ------------------------------------------

#: modules allowed to speak raw struct: they own a documented layout
STRUCT_ALLOWED_SUFFIXES = (
    "baselines/_native.py",
    "codecs/container.py",
    "codecs/serialize.py",
    "bits/io.py",
)


def _literal_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_name(node: ast.Call) -> str:
    """Dotted name of the callee, best effort ('struct.pack', 'S.unpack')."""
    parts: list[str] = []
    target = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    return ".".join(reversed(parts))


def check_struct_confinement(module: Module) -> list[Finding]:
    """RPR102: flag ``import struct`` outside the binary-layout modules."""
    if module.relpath.endswith(STRUCT_ALLOWED_SUFFIXES):
        return []
    findings = []
    for node in ast.walk(module.tree):
        names: list[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        if any(name.split(".")[0] == "struct" for name in names):
            findings.append(Finding(
                "RPR102", module.relpath, node.lineno,
                "raw struct use outside the binary-layout modules",
                RULE_CATALOGUE["RPR102"][1],
            ))
    return findings


# -- RPR201: durability discipline ---------------------------------------------

#: (path suffix, qualified function name) pairs allowed to write files
DURABILITY_ALLOWED = (
    ("codecs/container.py", "write_atomic"),
    ("codecs/container.py", "AppendableArchive.open"),
    ("codecs/container.py", "AppendableArchive.append"),
    ("codecs/container.py", "GroupLog.open"),
    ("codecs/container.py", "GroupLog.append_group"),
)

#: ``pathlib.Path`` methods that write a whole file in place
_PATH_WRITERS = frozenset({"write_bytes", "write_text"})


def _is_write_mode(mode: str) -> bool:
    return "b" in mode and any(ch in mode for ch in "wa+")


def check_durability(module: Module) -> list[Finding]:
    """RPR201: file writes outside the sanctioned writers.

    A write is a binary write-mode ``open`` or a ``Path.write_bytes`` /
    ``Path.write_text`` call; text-mode ``open`` (CSV export) is not one.
    """
    findings: list[Finding] = []
    allowed = {
        qual for suffix, qual in DURABILITY_ALLOWED
        if module.relpath.endswith(suffix)
    }

    def visit(node: ast.AST, stack: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = stack + (node.name,)
        if isinstance(node, ast.Call):
            mode = None
            what = None
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "open"
                and len(node.args) >= 2
            ):
                mode = _literal_str(node.args[1])
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "open"
                and node.args
                # os.open takes flag constants, not a mode string
                and not (
                    isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "os"
                )
            ):
                mode = _literal_str(node.args[0])
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _PATH_WRITERS
            ):
                what = f"bare Path.{node.func.attr}()"
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = _literal_str(kw.value)
            if mode is not None and _is_write_mode(mode):
                what = f"bare binary write (mode {mode!r})"
            qual = ".".join(s for s in stack if s)
            if what is not None and qual not in allowed:
                findings.append(Finding(
                    "RPR201", module.relpath, node.lineno,
                    f"{what} can be torn by a crash",
                    RULE_CATALOGUE["RPR201"][1],
                ))
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(module.tree, ())
    return findings


# -- RPR301: SeriesDB lock discipline ------------------------------------------

#: class name -> attributes that form its lock-guarded shared state; a
#: test holds each list equal to the guarded-by inference's locked writes
GUARDED_STATE: dict[str, frozenset[str]] = {
    "SeriesDB": frozenset({
        "_stores", "_dirty", "_cached_gen", "_series", "_next_shard",
        "_group_name", "_group_log", "_group_pending", "_synced_group",
        "_uncommitted",
    }),
    "PartitionedSeriesDB": frozenset({
        "_series_map", "_handles",
    }),
}

#: dunders that read shared state and are part of the public surface
_PUBLIC_DUNDERS = {"__contains__", "__len__", "__iter__", "__getitem__"}

#: methods that run before/without the object being shared across threads
_LOCK_EXEMPT = {"__init__", "__new__", "__repr__", "__enter__", "__exit__"}


def _is_self_lock(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "_lock"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def check_lock_discipline(module: Module) -> list[Finding]:
    """RPR301: guarded-state access in public methods must hold self._lock."""
    findings: list[Finding] = []
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef) or cls.name not in GUARDED_STATE:
            continue
        guarded = GUARDED_STATE[cls.name]
        init = next(
            (m for m in cls.body
             if isinstance(m, ast.FunctionDef) and m.name == "__init__"),
            None,
        )
        makes_lock = init is not None and any(
            isinstance(n, ast.Assign)
            and any(_is_self_lock(t) for t in n.targets)
            for n in ast.walk(init)
        )
        if not makes_lock:
            findings.append(Finding(
                "RPR301", module.relpath, cls.lineno,
                f"{cls.name}.__init__ does not create self._lock "
                "(threading.RLock) guarding its shared state",
                "assign self._lock = threading.RLock() in __init__",
            ))
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            public = not method.name.startswith("_") or (
                method.name in _PUBLIC_DUNDERS
            )
            if not public or method.name in _LOCK_EXEMPT:
                continue

            def visit(node: ast.AST, locked: bool,
                      method: ast.FunctionDef = method) -> None:
                if isinstance(node, ast.With) and any(
                    _is_self_lock(item.context_expr) for item in node.items
                ):
                    locked = True
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guarded
                    and not locked
                ):
                    findings.append(Finding(
                        "RPR301", module.relpath, node.lineno,
                        f"{cls.name}.{method.name} touches self.{node.attr} "
                        "without holding self._lock",
                        RULE_CATALOGUE["RPR301"][1],
                    ))
                for child in ast.iter_child_nodes(node):
                    visit(child, locked, method)

            visit(method, False)
    return findings


# -- RPR401 / RPR402: outright bans --------------------------------------------

_BANNED_MODULES = {"pickle", "cPickle", "dill", "shelve"}


def check_bans(module: Module) -> list[Finding]:
    """RPR401/RPR402: pickle-family imports and eval/exec calls."""
    findings = []
    for node in ast.walk(module.tree):
        names: list[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        if any(name.split(".")[0] in _BANNED_MODULES for name in names):
            findings.append(Finding(
                "RPR401", module.relpath, node.lineno,
                "pickle-family import (arbitrary code execution on load)",
                RULE_CATALOGUE["RPR401"][1],
            ))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("eval", "exec")
        ):
            findings.append(Finding(
                "RPR402", module.relpath, node.lineno,
                f"call to {node.func.id}()",
                RULE_CATALOGUE["RPR402"][1],
            ))
    return findings


PER_FILE_RULES = (
    check_struct_confinement,
    check_durability,
    check_lock_discipline,
    check_bans,
)


def run_per_file_rules(module: Module) -> list[Finding]:
    """Every per-file rule over one module."""
    findings: list[Finding] = []
    for rule in PER_FILE_RULES:
        findings.extend(rule(module))
    return findings
