"""Per-file AST lint rules: the invariants convention used to enforce.

Every rule here is a pure function over one parsed module (no imports of
the code under analysis); the cross-file protocol-conformance rules live in
:mod:`repro.analysis.protocol`.  The catalogue:

``RPR101`` **struct-format** — every literal ``struct`` format string must
    parse, and the argument count at ``pack``/tuple-unpack call sites must
    match the format's field arity.  Covers direct ``struct.pack(fmt,...)``
    calls and module-level ``struct.Struct`` constants (the idiom the
    container and frame layouts use).

``RPR102`` **struct-confinement** — raw ``struct`` use is confined to the
    modules that own a documented binary layout (``baselines/_native.py``,
    ``codecs/container.py``, ``codecs/serialize.py``, ``bits/io.py``).
    Everything else should reuse those layouts; stray ``import struct``
    elsewhere is existing debt tracked by the baseline.

``RPR201`` **durability-discipline** — a write-mode binary ``open`` is only
    legal inside the sanctioned writers (``write_atomic`` and the fsync'd
    tail-append path of ``AppendableArchive``).  A bare
    ``open(path, "wb").write(...)`` can be torn by a crash and must route
    through :func:`repro.codecs.container.write_atomic`.

``RPR301`` **lock-discipline** — public :class:`SeriesDB` methods touching
    the shared shard-cache / dirty-set / manifest state must hold
    ``self._lock``; private helpers are documented as
    called-under-lock.  Also checks that ``__init__`` creates the lock.

``RPR401`` **no-pickle** — ``pickle``/``dill``/``shelve`` deserialise
    arbitrary code; archives are the only persistence format.

``RPR402`` **no-eval** — ``eval``/``exec`` are banned outright.

``RPR403`` **no-memoryview-write** — arrays parsed zero-copy off an mmap
    (``np.frombuffer``) are views into shared file bytes: writing through
    them (item assignment, ``setflags(write=True)``) corrupts the mapped
    archive for every other reader.
"""

from __future__ import annotations

import ast
import struct as _struct
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
    "RPR001": (
        "codec protocol conformance: concrete Compressed subclasses must "
        "implement size_bits/decompress/access (and reconstruct/num_segments/"
        "from_payload when lossy)",
        "implement the missing methods or mark the class abstract",
    ),
    "RPR002": (
        "registry spec discipline: lossy codecs need a native loader and a "
        "required eps param; every factory must expose compress()",
        "fix the register_codec(...) call to match the codec's contract",
    ),
    "RPR101": (
        "struct format strings must parse and match call-site arity",
        "align the format string with the packed/unpacked fields",
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
    "RPR403": (
        "no writing through memoryview-backed (np.frombuffer) arrays",
        "copy() the array before mutating it",
    ),
    # Dataflow rules (repro lint --dataflow), implemented in dataflow.py.
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
    "RPR701": (
        "lock acquisition order must be globally consistent (no A->B with "
        "B->A elsewhere)",
        "pick one global acquisition order and stick to it",
    ),
    "RPR702": (
        "no bare lock.acquire() without release() in a finally",
        "use `with lock:`",
    ),
    # Guarded-by inference (repro lint --dataflow), implemented in
    # concurrency.py: inferred for every class creating a Lock/RLock.
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
    "RPR001": (
        "class MyCodec(Compressed):   # concrete subclass...\n"
        "    def size_bits(self):     # ...missing decompress() and access()\n"
        "        return 0"
    ),
    "RPR002": (
        '# lossy codec registered without a required eps param:\n'
        'register_codec(CodecSpec("mylossy", factory, lossy=True, params={}))'
    ),
    "RPR101": 'struct.pack("<II", 1)   # format packs 2 fields, 1 value given',
    "RPR102": "import struct   # outside the binary-layout modules",
    "RPR201": (
        'open(path, "wb").write(blob)   # a crash mid-write tears the file;\n'
        "# route it through write_atomic() instead"
    ),
    "RPR301": (
        "class SeriesDB:\n"
        "    def count(self, sid):\n"
        "        return len(self._stores[sid])   # shared state, no self._lock"
    ),
    "RPR401": "import pickle   # arbitrary code execution on load",
    "RPR402": 'eval(expression)   # banned outright',
    "RPR403": (
        "arr = np.frombuffer(view, dtype=np.int64)\n"
        "arr[0] = 42   # writes through the shared mapped bytes"
    ),
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
    "RPR701": (
        "# thread 1:                # thread 2:\n"
        "with lock_a:               with lock_b:\n"
        "    with lock_b: ...           with lock_a: ...   # A->B vs B->A"
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

# -- RPR101 / RPR102: binary-format discipline ---------------------------------

#: modules allowed to speak raw struct (they own a documented layout, or —
#: for the linter itself — validate format strings with struct.calcsize)
STRUCT_ALLOWED_SUFFIXES = (
    "baselines/_native.py",
    "codecs/container.py",
    "codecs/serialize.py",
    "bits/io.py",
    "analysis/rules.py",
)


def _struct_arity(fmt: str) -> int | None:
    """Number of values a format string packs/unpacks, or None if invalid."""
    try:
        _struct.calcsize(fmt)
    except _struct.error:
        return None
    body = fmt[1:] if fmt[:1] in "@=<>!" else fmt
    arity, repeat = 0, ""
    for ch in body:
        if ch.isdigit():
            repeat += ch
            continue
        if ch.isspace():
            repeat = ""
            continue
        count = int(repeat) if repeat else 1
        repeat = ""
        if ch in "sp":
            arity += 1  # a length-prefixed run is one python value
        elif ch != "x":
            arity += count
    return arity


def _literal_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
        try:
            return node.value.decode("ascii")
        except UnicodeDecodeError:
            return None
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


def check_struct_formats(module: Module) -> list[Finding]:
    """RPR101: literal format validity plus pack/unpack arity at call sites."""
    findings: list[Finding] = []
    # Module-level `NAME = struct.Struct("<fmt>")` constants.
    constants: dict[str, int] = {}
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and _call_name(node.value) == "struct.Struct"
            and node.value.args
        ):
            fmt = _literal_str(node.value.args[0])
            if fmt is None:
                continue
            arity = _struct_arity(fmt)
            if arity is None:
                findings.append(Finding(
                    "RPR101", module.relpath, node.lineno,
                    f"invalid struct format string {fmt!r}",
                    "fix the format string (see the struct module docs)",
                ))
            else:
                constants[node.targets[0].id] = arity

    def expected_args(call: ast.Call) -> int | None:
        """Arity a pack-style call should receive, or None when unknown."""
        name = _call_name(call)
        if name == "struct.pack" and call.args:
            fmt = _literal_str(call.args[0])
            if fmt is not None:
                arity = _struct_arity(fmt)
                if arity is None:
                    findings.append(Finding(
                        "RPR101", module.relpath, call.lineno,
                        f"invalid struct format string {fmt!r}",
                        "fix the format string (see the struct module docs)",
                    ))
                    return None
                if not any(isinstance(a, ast.Starred) for a in call.args[1:]):
                    return arity + 1  # fmt itself plus the values
        elif "." in name:
            head, _, tail = name.rpartition(".")
            if tail == "pack" and head in constants:
                if not any(isinstance(a, ast.Starred) for a in call.args):
                    return constants[head]
        return None

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            want = expected_args(node)
            if want is not None and len(node.args) != want:
                name = _call_name(node)
                findings.append(Finding(
                    "RPR101", module.relpath, node.lineno,
                    f"{name}() packs {want - (1 if name == 'struct.pack' else 0)}"
                    f" field(s) but is given "
                    f"{len(node.args) - (1 if name == 'struct.pack' else 0)}"
                    " value(s)",
                    "match the argument list to the format string",
                ))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            # Tuple-unpack arity: `a, b, c = S.unpack_from(buf, off)`.
            name = _call_name(node.value)
            head, _, tail = name.rpartition(".")
            if tail in ("unpack", "unpack_from"):
                arity = None
                if head in constants:
                    arity = constants[head]
                elif head == "struct" and node.value.args:
                    fmt = _literal_str(node.value.args[0])
                    arity = _struct_arity(fmt) if fmt is not None else None
                if arity is not None and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Tuple) and not any(
                        isinstance(e, ast.Starred) for e in target.elts
                    ) and len(target.elts) != arity:
                        findings.append(Finding(
                            "RPR101", module.relpath, node.lineno,
                            f"{name}() yields {arity} field(s) but "
                            f"{len(target.elts)} target(s) unpack it",
                            "match the unpack targets to the format string",
                        ))
    return findings


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

#: (path suffix, qualified function name) pairs allowed to open for writing
DURABILITY_ALLOWED = (
    ("codecs/container.py", "write_atomic"),
    ("codecs/container.py", "AppendableArchive.open"),
    ("codecs/container.py", "AppendableArchive.append"),
    ("codecs/container.py", "GroupLog.open"),
    ("codecs/container.py", "GroupLog.append_group"),
)


def _is_write_mode(mode: str) -> bool:
    return "b" in mode and any(ch in mode for ch in "wa+")


def check_durability(module: Module) -> list[Finding]:
    """RPR201: binary write-mode open calls outside the sanctioned writers."""
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
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = _literal_str(kw.value)
            if mode is not None and _is_write_mode(mode):
                qual = ".".join(s for s in stack if s)
                if qual not in allowed:
                    findings.append(Finding(
                        "RPR201", module.relpath, node.lineno,
                        f"bare binary write (mode {mode!r}) can be torn by "
                        "a crash",
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


# -- RPR401 / RPR402 / RPR403: outright bans -----------------------------------

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


def check_memoryview_writes(module: Module) -> list[Finding]:
    """RPR403: mutation of arrays adopted zero-copy from a byte buffer."""
    findings: list[Finding] = []
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        adopted: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = _call_name(node.value)
                if callee.endswith("frombuffer") or callee == "memoryview":
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            adopted.add(target.id)
        if not adopted:
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in adopted
                    ):
                        findings.append(Finding(
                            "RPR403", module.relpath, node.lineno,
                            f"writes into {target.value.id!r}, a buffer-"
                            "backed array adopted zero-copy",
                            RULE_CATALOGUE["RPR403"][1],
                        ))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in adopted
                and any(
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                )
            ):
                findings.append(Finding(
                    "RPR403", module.relpath, node.lineno,
                    f"re-enables writes on {node.func.value.id!r}, a "
                    "buffer-backed array adopted zero-copy",
                    RULE_CATALOGUE["RPR403"][1],
                ))
    return findings


PER_FILE_RULES = (
    check_struct_formats,
    check_struct_confinement,
    check_durability,
    check_lock_discipline,
    check_bans,
    check_memoryview_writes,
)


def run_per_file_rules(module: Module) -> list[Finding]:
    """Every per-file rule over one module."""
    findings: list[Finding] = []
    for rule in PER_FILE_RULES:
        findings.extend(rule(module))
    return findings
