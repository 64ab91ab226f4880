"""Guarded-by inference: which lock guards which attribute, checked statically.

The lock-discipline rule (RPR301) knows two classes — ``SeriesDB`` and
``PartitionedSeriesDB`` — and a hand-written attribute list for each.  This
module infers the guarded-by relation for **every** class that creates a
``threading.Lock``/``RLock`` in its ``__init__`` and checks three
invariants.  With RPR301, these rules are the package's one data-race check:
no runtime detector backs them up, so a lock dropped from a public method
must trip one of them.

``RPR801`` **mixed-guard write** — an attribute written both *under* the
    lock and *outside* it.  One unguarded write is all a data race needs;
    either every write holds the guard or the field is not shared state.

``RPR802`` **unguarded mutating public method** — a public method that
    writes guarded state but never acquires the guard.  Public methods are
    the concurrency boundary: callers on other threads reach the state
    through them, so "the caller locks" is not a contract the class can
    rely on.

``RPR803`` **guarded state escapes the lock region** — a guarded mutable
    container (dict/list/set/bytearray/memoryview) returned, yielded, or
    stashed outside ``self``.  The reference outlives the critical section
    that produced it, so every later access through it is unsynchronised
    no matter how disciplined the class itself is.  Returning a *copy*
    (``dict(...)``, ``list(...)``, ``sorted(...)``, ``bytes(...)``) is the
    sanctioned idiom.

How a site is classified lock-held:

* lexically inside a ``with self.<guard>:`` region (any guard the class
  created); or
* inside a *private* method whose every intra-class ``self.method()`` call
  site is itself lock-held — a one-level-and-fixpoint callee expansion
  formalising SeriesDB's "private helpers are documented as
  called-under-lock" convention.

The three rules check writes and escapes; an unlocked *read* of guarded
state is left to RPR301.  Extending RPR802 to reads would flag the
deliberately lock-free reads (``SeriesDB.closed``/``.root``,
``PartitionedSeriesDB.closed``/``.root``/``.partitions``), so RPR301's
explicit list stays the read check.

Scope notes (deliberate, so the rules stay quiet on legitimate code):
``__init__``/``__new__``/``__del__``/``__repr__``/``__enter__``/``__exit__``
run before or outside sharing and are exempt; a private method with *no*
intra-class call sites is unknown territory (externally driven, possibly
dead) and its sites are not classified at all; nested functions run on a
lock context of their own and are skipped; attributes only ever touched
outside the lock are not guarded state — the rules fire on *mixed* usage,
never on classes that simply happen to own a lock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .cfg import build_cfg
from .findings import Finding
from .rules import Module, _call_name

__all__ = ["check_guarded_by"]

#: callables whose result is a guard when assigned to self.<attr> in __init__
_LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "Lock", "RLock",
})

#: method names on a container that mutate it in place
_MUTATOR_METHODS = frozenset({
    "append", "extend", "add", "update", "insert", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "move_to_end", "sort",
    "reverse", "appendleft", "popleft",
})

#: constructors (and literals, handled separately) marking an attr mutable
_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "OrderedDict", "collections.OrderedDict",
    "defaultdict", "collections.defaultdict", "deque", "collections.deque",
    "bytearray", "memoryview",
})

#: copy/materialise wrappers: the escaping value is a snapshot, not the state
_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                     ast.SetComp)

#: methods that run before/without the object being shared across threads
_EXEMPT_METHODS = frozenset({
    "__init__", "__new__", "__del__", "__repr__", "__enter__", "__exit__",
    "__post_init__",
})


@dataclass
class _Site:
    """One read or write of ``self.<attr>`` inside a method."""

    attr: str
    line: int
    write: bool
    held: bool      # lexically inside a `with self.<guard>:` region
    method: str
    public: bool


@dataclass
class _Escape:
    """A guarded container leaving the class via return/yield/stash."""

    attr: str
    line: int
    verb: str       # "returns" / "yields" / "stashes"
    method: str


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is ``self.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _guard_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes ``__init__`` binds to a ``threading.Lock``/``RLock``."""
    init = next(
        (m for m in cls.body
         if isinstance(m, ast.FunctionDef) and m.name == "__init__"),
        None,
    )
    if init is None:
        return set()
    guards: set[str] = set()
    for node in ast.walk(init):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _call_name(node.value) in _LOCK_FACTORIES
        ):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    guards.add(attr)
    return guards


def _mutable_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes ``__init__`` (or any method) binds to a mutable container."""
    mutable: set[str] = set()
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            is_mutable = isinstance(value, _MUTABLE_LITERALS) or (
                isinstance(value, ast.Call)
                and _call_name(value) in _MUTABLE_FACTORIES
            )
            if not is_mutable:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    mutable.add(attr)
    return mutable


class _ClassScan:
    """Every access site, call site, and escape in one guarded class."""

    def __init__(self, cls: ast.ClassDef, guards: set[str]) -> None:
        self.cls = cls
        self.guards = guards
        self.sites: list[_Site] = []
        self.escapes: list[_Escape] = []
        #: callee name -> [(caller, lexically_held)] for self.m() call sites
        self.calls: dict[str, list[tuple[str, bool]]] = {}
        #: methods that acquire a guard anywhere in their body
        self.acquirers: set[str] = set()
        self.methods: set[str] = {
            m.name for m in cls.body if isinstance(m, ast.FunctionDef)
        }
        for method in cls.body:
            if isinstance(method, ast.FunctionDef):
                self._scan_method(method)

    # -- per-method walk -------------------------------------------------------

    def _is_guard_acquire(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return any(
                _self_attr(item.context_expr) in self.guards
                for item in node.items
            )
        return False

    def _scan_method(self, method: ast.FunctionDef) -> None:
        name = method.name
        public = not name.startswith("_")
        consumed: set[int] = set()  # Attribute nodes already classified

        def record(attr: str | None, node: ast.AST, *, write: bool,
                   held: bool) -> None:
            if attr is None or attr in self.guards:
                return
            consumed.add(id(node))
            self.sites.append(_Site(
                attr, getattr(node, "lineno", method.lineno), write, held,
                name, public,
            ))

        def visit(node: ast.AST, held: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not method:
                    return  # nested defs run on a lock context of their own
            if self._is_guard_acquire(node):
                held = True
                self.acquirers.add(name)
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    # self.<attr>.<mutator>(...) mutates the container.
                    attr = _self_attr(func.value)
                    if attr is not None and func.attr in _MUTATOR_METHODS:
                        record(attr, func.value, write=True, held=held)
                    # self.<guard>.acquire() counts as acquiring (RPR702
                    # already polices the shape of the acquire itself).
                    if (
                        _self_attr(func.value) in self.guards
                        and func.attr == "acquire"
                    ):
                        self.acquirers.add(name)
                    # self.method(...) call sites feed the fixpoint.
                    method_name = _self_attr(func)
                    if method_name in self.methods:
                        self.calls.setdefault(method_name, []).append(
                            (name, held)
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        record(attr, target, write=True, held=held)
                    elif isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                        if attr is not None:  # self.attr[k] = v mutates attr
                            record(attr, target.value, write=True, held=held)
                    elif isinstance(target, ast.Attribute):
                        attr = _self_attr(target.value)
                        if attr is not None:  # self.attr.field = v
                            record(attr, target.value, write=True, held=held)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                        target = target.value
                    if attr is not None:
                        record(attr, target, write=True, held=held)
            elif isinstance(node, ast.Attribute) and id(node) not in consumed:
                attr = _self_attr(node)
                if attr is not None and isinstance(node.ctx, ast.Load):
                    record(attr, node, write=False, held=held)
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        visit(method, False)

    # -- held classification ---------------------------------------------------

    def held_methods(self) -> set[str]:
        """Private methods whose every intra-class call site is lock-held.

        Fixpoint: a call site is held when it is lexically inside a guard
        region *or* sits in a method already known to be held.  Public
        methods never qualify — external callers reach them unheld.
        """
        held: set[str] = set()
        changed = True
        while changed:
            changed = False
            for method in self.methods:
                if method in held or not method.startswith("_"):
                    continue
                if method.startswith("__") and method.endswith("__"):
                    continue
                sites = self.calls.get(method, [])
                if not sites:
                    continue
                # A call from an exempt method (e.g. __init__) runs before
                # the object is shared: it cannot race, so it counts held.
                if all(
                    h or caller in held or caller in _EXEMPT_METHODS
                    for caller, h in sites
                ):
                    held.add(method)
                    changed = True
        return held

    def classify(self, site: _Site, held_methods: set[str]) -> bool | None:
        """True/False = held/unheld, None = unknowable (skip the site)."""
        if site.method in _EXEMPT_METHODS:
            return None
        if site.held:
            return True
        if site.public:
            return False
        if site.method in held_methods:
            return True
        if self.calls.get(site.method):
            return False  # called at least once from an unheld context
        return None  # private, never called in-class: unknown territory


# -- RPR803: escape detection --------------------------------------------------


def _bare_guarded(expr: ast.expr | None, candidates: set[str]) -> str | None:
    """The guarded attr ``expr`` leaks bare (incl. inside a tuple), or None."""
    if expr is None:
        return None
    attr = _self_attr(expr)
    if attr in candidates:
        return attr
    if isinstance(expr, (ast.Tuple, ast.List)):
        for element in expr.elts:
            leaked = _bare_guarded(element, candidates)
            if leaked is not None:
                return leaked
    return None


def _method_escapes(
    method: ast.FunctionDef, candidates: set[str]
) -> list[_Escape]:
    """Return/yield/stash escapes of guarded containers in one method."""
    escapes: list[_Escape] = []
    aliases: dict[str, list[ast.stmt]] = {}  # local -> assignment stmts
    for node in ast.walk(method):
        if isinstance(node, (ast.Return, ast.Yield)):
            attr = _bare_guarded(node.value, candidates)
            if attr is not None:
                verb = "returns" if isinstance(node, ast.Return) else "yields"
                escapes.append(_Escape(attr, node.lineno, verb, method.name))
        elif isinstance(node, ast.Assign):
            attr = _bare_guarded(node.value, candidates)
            if attr is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    owner = target.value
                    if not (isinstance(owner, ast.Name) and owner.id == "self"):
                        escapes.append(_Escape(
                            attr, node.lineno, "stashes", method.name,
                        ))
                elif isinstance(target, ast.Subscript):
                    base = target.value
                    if isinstance(base, ast.Name):  # out[k] = self._state
                        escapes.append(_Escape(
                            attr, node.lineno, "stashes", method.name,
                        ))
                elif isinstance(target, ast.Name):
                    aliases.setdefault(target.id, []).append(node)
    if aliases:
        escapes.extend(_alias_escapes(method, aliases, candidates))
    return escapes


def _alias_escapes(
    method: ast.FunctionDef,
    aliases: dict[str, list[ast.stmt]],
    candidates: set[str],
) -> list[_Escape]:
    """CFG pass: a local aliasing guarded state that reaches a return/yield.

    ``tmp = self._state`` followed (on some path, with no rebind of ``tmp``
    in between) by ``return tmp`` leaks the container exactly like
    ``return self._state`` — the alias just hides it from the syntactic
    check above.
    """
    escapes: list[_Escape] = []
    cfg = build_cfg(method)
    for local, assigns in aliases.items():
        rebinds = {
            n.index for n in cfg.nodes
            if n.stmt is not None and n.stmt not in assigns
            and any(
                isinstance(t, ast.Name) and t.id == local
                and isinstance(t.ctx, (ast.Store, ast.Del))
                for t in ast.walk(n.stmt)
            )
        }
        for assign in assigns:
            attr = _bare_guarded(assign.value, candidates)  # type: ignore[attr-defined]
            if attr is None:
                continue
            nodes = cfg.nodes_for(assign)
            if not nodes:
                continue
            for index in cfg.reachable(nodes[0].index, avoid=rebinds):
                stmt = cfg.nodes[index].stmt
                if stmt is None:
                    continue
                for node in ast.walk(stmt):
                    if not isinstance(node, (ast.Return, ast.Yield)):
                        continue
                    leaked = node.value
                    names = [
                        n for n in ast.walk(leaked) if leaked is not None
                        and isinstance(n, ast.Name) and n.id == local
                        and isinstance(n.ctx, ast.Load)
                    ] if leaked is not None else []
                    if isinstance(leaked, (ast.Name, ast.Tuple)) and names:
                        verb = (
                            "returns" if isinstance(node, ast.Return)
                            else "yields"
                        )
                        escapes.append(_Escape(
                            attr, node.lineno,
                            f"{verb} (via alias {local!r})", method.name,
                        ))
    return escapes


# -- the rule ------------------------------------------------------------------


def check_guarded_by(module: Module) -> list[Finding]:
    """RPR801/802/803 over every lock-owning class in one module."""
    findings: list[Finding] = []
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        guards = _guard_attrs(cls)
        if not guards:
            continue
        guard = sorted(guards)[0]
        scan = _ClassScan(cls, guards)
        held_methods = scan.held_methods()
        classified = [
            (site, held)
            for site in scan.sites
            if (held := scan.classify(site, held_methods)) is not None
        ]
        guarded = {
            site.attr for site, held in classified if held
        }
        # RPR802 first: a public mutating method that never acquires.
        unguarded_methods: set[str] = set()
        for method in sorted(scan.methods):
            if (
                method.startswith("_")
                or method in _EXEMPT_METHODS
                or method in scan.acquirers
            ):
                continue
            writes = sorted({
                site.attr for site in scan.sites
                if site.method == method and site.write
                and site.attr in guarded
            })
            if not writes:
                continue
            unguarded_methods.add(method)
            line = next(
                m.lineno for m in cls.body
                if isinstance(m, ast.FunctionDef) and m.name == method
            )
            listed = ", ".join(f"self.{attr}" for attr in writes)
            findings.append(Finding(
                "RPR802", module.relpath, line,
                f"public method {cls.name}.{method} mutates guarded state "
                f"({listed}) but never acquires self.{guard}",
                f"wrap the method body in `with self.{guard}:` "
                "(the public API is the locking boundary)",
            ))
        # RPR801: a field written both under and outside the guard.
        held_writes = {
            site.attr for site, held in classified if held and site.write
        }
        for site, held in classified:
            if (
                site.write and not held and site.attr in held_writes
                and site.method not in unguarded_methods
            ):
                findings.append(Finding(
                    "RPR801", module.relpath, site.line,
                    f"{cls.name}.{site.method} writes self.{site.attr} "
                    f"without holding self.{guard}, but other sites write "
                    "it under the lock (one unguarded write is a data race)",
                    f"take `with self.{guard}:` around this write, or stop "
                    "guarding the field everywhere",
                ))
        # RPR803: guarded mutable containers escaping the lock region.
        mutable_guarded = guarded & _mutable_attrs(cls)
        if mutable_guarded:
            for method in cls.body:
                if (
                    not isinstance(method, ast.FunctionDef)
                    or method.name in _EXEMPT_METHODS
                ):
                    continue
                for escape in _method_escapes(method, mutable_guarded):
                    findings.append(Finding(
                        "RPR803", module.relpath, escape.line,
                        f"{cls.name}.{escape.method} {escape.verb} "
                        f"self.{escape.attr}, mutable state guarded by "
                        f"self.{guard}: the reference outlives the critical "
                        "section",
                        "return a copy (dict(...)/list(...)/bytes(...)) or "
                        "transfer ownership explicitly",
                    ))
    return findings
