"""Dataflow lint rules: buffer lifetime, resource release, bare acquires.

These rules answer questions the syntactic rules of
:mod:`repro.analysis.rules` cannot: they track *values* through a function
(assignment chains, derived views, acquired handles) and *paths* through
its body (the CFG of :mod:`repro.analysis.cfg`).  ``repro lint`` runs them
on every call, beside the syntactic rules.

The families:

``RPR501`` **escaping mmap view** — a ``memoryview`` derived from
    :func:`repro.codecs.container.mmap_view` (a slice, an alias of a slice)
    must not be returned or yielded on its own: the caller receives bytes
    whose backing map it cannot close, and that the owner may close under
    it.  Returning the *root* view is fine (ownership transfer: the root
    carries the map in ``.obj``), as is materialising with ``bytes(...)``
    or returning the owner alongside the view.

``RPR502`` **stashed view without owner** — storing a derived view on
    ``self`` without also storing its root/map pins file bytes to the
    object's lifetime with no way to release them.

``RPR601`` **resource not closed on all paths** — every explicit
    acquisition (``open``/``os.open``/``os.fdopen``/``mmap.mmap`` assigned
    to a local) must reach a ``close`` (or be handed off: returned, stored,
    or passed to another callable, which transfers ownership) on every CFG
    path to the function exit.  Exception edges leaving the acquisition
    statement itself are ignored — if the acquisition raised, there is
    nothing to close.

``RPR602`` **use after close** — a local used on a path after its
    ``.close()`` with no rebind in between.

``RPR702`` **bare lock acquire** — ``lock.acquire()`` without a matching
    ``release()`` in a ``finally`` leaks the lock if the critical section
    raises; use ``with lock:``.

Scope notes (deliberate, so the rules stay quiet on legitimate code):
only *locals assigned in the function* are tracked — parameters and
attributes are someone else's contract; ``with open(...) as f`` is always
fine (the context manager owns the close); anything whose name does not
look like a lock (no ``"lock"`` substring) is invisible to RPR702.
Lock *order* is not checked statically: the store's one nesting (the
``PartitionedSeriesDB`` façade lock, then a partition's ``SeriesDB`` lock)
goes through calls into another class, and the sanitizer's lock-order
graph (:mod:`repro.analysis.sanitizer`) watches it at runtime.
"""

from __future__ import annotations

import ast

from .cfg import build_cfg
from .findings import Finding
from .rules import Module, _call_name

__all__ = [
    "PER_FILE_DATAFLOW_RULES",
    "check_buffer_lifetime",
    "check_resource_release",
    "check_use_after_close",
    "check_bare_acquire",
    "run_dataflow_rules",
]


def _functions(tree: ast.Module):
    """Yield ``(func, enclosing_class_name_or_None)`` for every function."""

    def walk(node: ast.AST, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
                yield from walk(child, None)
            else:
                yield from walk(child, cls)

    yield from walk(tree, None)


def _single_name_target(stmt: ast.stmt) -> str | None:
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return stmt.targets[0].id
    return None


def _loads(node: ast.AST, name: str) -> list[ast.Name]:
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Name) and n.id == name
        and isinstance(n.ctx, ast.Load)
    ]


# -- RPR501 / RPR502: buffer lifetime ------------------------------------------


class _ViewTracking:
    """Which locals hold mmap-backed views, and which are derived slices."""

    def __init__(self, func: ast.AST) -> None:
        self.maps: set[str] = set()     # locals bound to mmap.mmap(...)
        self.roots: set[str] = set()    # locals bound to mmap_view(...) etc.
        self.derived: set[str] = set()  # slices/aliases of roots or derived
        changed = True
        while changed:
            changed = False
            for stmt in ast.walk(func):
                name = _single_name_target(stmt)
                if name is None or name in self.maps | self.roots | self.derived:
                    continue
                value = stmt.value  # type: ignore[union-attr]
                if isinstance(value, ast.Call):
                    callee = _call_name(value)
                    if callee in ("mmap.mmap",):
                        self.maps.add(name)
                        changed = True
                    elif callee.split(".")[-1] == "mmap_view":
                        self.roots.add(name)
                        changed = True
                    elif callee == "memoryview" and value.args:
                        arg = value.args[0]
                        if (
                            isinstance(arg, ast.Name) and arg.id in self.maps
                        ) or (
                            isinstance(arg, ast.Call)
                            and _call_name(arg) == "mmap.mmap"
                        ):
                            self.roots.add(name)
                            changed = True
                elif isinstance(value, ast.Attribute) and value.attr == "obj":
                    if (
                        isinstance(value.value, ast.Name)
                        and value.value.id in self.roots
                    ):
                        self.maps.add(name)
                        changed = True
                elif isinstance(value, ast.Subscript):
                    if (
                        isinstance(value.value, ast.Name)
                        and value.value.id in self.roots | self.derived
                    ):
                        self.derived.add(name)
                        changed = True
                elif isinstance(value, ast.Name):
                    if value.id in self.derived:
                        self.derived.add(name)
                        changed = True
                    elif value.id in self.roots:
                        self.roots.add(name)
                        changed = True

    @property
    def owners(self) -> set[str]:
        return self.maps | self.roots

    def escaping_name(self, expr: ast.expr | None) -> str | None:
        """The derived-view name ``expr`` leaks to the caller, or None.

        ``bytes(view)`` materialises (safe); a tuple containing an owner
        alongside the view co-escapes the map (safe); the root itself is an
        ownership transfer (safe).
        """
        if expr is None:
            return None
        if isinstance(expr, ast.Name) and expr.id in self.derived:
            return expr.id
        if (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in self.roots | self.derived
        ):
            return expr.value.id
        if isinstance(expr, (ast.Tuple, ast.List)):
            if any(
                isinstance(e, ast.Name) and e.id in self.owners
                for e in expr.elts
            ):
                return None
            for element in expr.elts:
                leaked = self.escaping_name(element)
                if leaked is not None:
                    return leaked
        return None


def check_buffer_lifetime(module: Module) -> list[Finding]:
    """RPR501/RPR502: derived mmap views must not outlive their owner."""
    findings: list[Finding] = []
    for func, _cls in _functions(module.tree):
        tracking = _ViewTracking(func)
        if not tracking.roots:
            continue
        stores_owner = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name) and t.value.id == "self"
                for t in stmt.targets
            )
            and (
                (isinstance(stmt.value, ast.Name)
                 and stmt.value.id in tracking.owners)
                or (isinstance(stmt.value, ast.Attribute)
                    and stmt.value.attr == "obj"
                    and isinstance(stmt.value.value, ast.Name)
                    and stmt.value.value.id in tracking.roots)
            )
            for stmt in ast.walk(func)
        )
        for node in ast.walk(func):
            if isinstance(node, (ast.Return, ast.Yield)):
                leaked = tracking.escaping_name(node.value)
                if leaked is not None:
                    verb = "returns" if isinstance(node, ast.Return) else "yields"
                    findings.append(Finding(
                        "RPR501", module.relpath, node.lineno,
                        f"{verb} {leaked!r}, a memoryview sliced from an "
                        "mmap-backed root view, without its owning map",
                        "return bytes(view) to materialise, or return the "
                        "root view / the map alongside it",
                    ))
            elif isinstance(node, ast.Assign) and not stores_owner:
                leaked = tracking.escaping_name(node.value)
                if leaked is not None and any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"
                    for t in node.targets
                ):
                    findings.append(Finding(
                        "RPR502", module.relpath, node.lineno,
                        f"stashes a view derived from {leaked!r} on self "
                        "without also stashing its root view or map",
                        "store the root view (or view.obj) on self too, "
                        "so the map can be closed",
                    ))
    return findings


# -- RPR601 / RPR602: resource release -----------------------------------------

#: callables whose result is a resource the assignee must release
_ACQUIRERS = frozenset({"open", "os.open", "os.fdopen", "mmap.mmap"})


def _stmt_releases(stmt: ast.AST, name: str) -> bool:
    """True when ``stmt`` closes ``name`` or hands its ownership away."""
    if isinstance(stmt, (ast.Return, ast.Yield)):
        if _loads(stmt, name):
            return True  # escapes to the caller
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in ("close", "release")
                and isinstance(callee.value, ast.Name)
                and callee.value.id == name
            ):
                return True
            if _call_name(node) == "os.close" and any(
                isinstance(a, ast.Name) and a.id == name for a in node.args
            ):
                return True
            # Handing the handle to another callable transfers ownership
            # (os.fdopen(fd), memoryview(mm), constructor adoption, ...).
            if any(
                isinstance(a, ast.Name) and a.id == name
                for a in list(node.args) + [kw.value for kw in node.keywords]
            ):
                return True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and _loads(node.value, name):
                    return True  # stored on an object: that owner closes it
                if (
                    isinstance(target, ast.Name) and target.id == name
                    and node.value is not None
                    and not _is_acquisition(node)
                ):
                    return True  # rebound: tracking stops (approximation)
    return False


def _is_acquisition(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Call)
        and _call_name(stmt.value) in _ACQUIRERS
    )


def check_resource_release(module: Module) -> list[Finding]:
    """RPR601: acquisitions must be released/handed off on all CFG paths."""
    findings: list[Finding] = []
    for func, _cls in _functions(module.tree):
        acquisitions = [
            (stmt, _single_name_target(stmt))
            for stmt in ast.walk(func)
            if _is_acquisition(stmt) and _single_name_target(stmt) is not None
        ]
        if not acquisitions:
            continue
        cfg = build_cfg(func)  # type: ignore[arg-type]
        for stmt, name in acquisitions:
            nodes = cfg.nodes_for(stmt)
            if not nodes:
                continue  # inside a nested function: analysed separately
            acq = nodes[0].index
            releases = {
                n.index for n in cfg.nodes
                if n.stmt is not None and n.index != acq
                and _stmt_releases(n.stmt, name)  # type: ignore[arg-type]
            }
            reachable = cfg.reachable(
                acq, avoid=releases, skip_exc_from={acq},
            )
            if cfg.exit_index in reachable:
                resource = _call_name(stmt.value)  # type: ignore[union-attr]
                findings.append(Finding(
                    "RPR601", module.relpath, stmt.lineno,
                    f"{name!r} = {resource}(...) is not closed on every "
                    "path to the function exit",
                    "use `with ...:`, or close it in a finally "
                    "(hand-offs — return/store/pass — count as release)",
                ))
    return findings


def check_use_after_close(module: Module) -> list[Finding]:
    """RPR602: no use of a local on a path after its ``.close()``."""
    findings: list[Finding] = []
    for func, _cls in _functions(module.tree):
        closes: list[tuple[ast.stmt, str]] = []
        for stmt in ast.walk(func):
            if not isinstance(stmt, (ast.Expr, ast.Assign)):
                continue
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "close"
                    and isinstance(node.func.value, ast.Name)
                ):
                    closes.append((stmt, node.func.value.id))
        if not closes:
            continue
        cfg = build_cfg(func)  # type: ignore[arg-type]
        for stmt, name in closes:
            nodes = cfg.nodes_for(stmt)
            if not nodes:
                continue
            rebinds = {
                n.index for n in cfg.nodes
                if n.stmt is not None and _rebinds(n.stmt, name)
            }
            for index in cfg.reachable(nodes[0].index, avoid=rebinds):
                node = cfg.nodes[index]
                if node.stmt is None or not _uses_after_close(node.stmt, name):
                    continue
                findings.append(Finding(
                    "RPR602", module.relpath, node.line,
                    f"{name!r} is used here on a path after "
                    f"{name}.close() (line {stmt.lineno})",
                    "reorder the use before close(), or rebind the name",
                ))
    return findings


def _rebinds(stmt: ast.AST, name: str) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and node.id == name and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            return True
    return False


def _uses_after_close(stmt: ast.AST, name: str) -> bool:
    harmless: set[int] = set()
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("close", "closed")
            and isinstance(node.value, ast.Name)
            and node.value.id == name
        ):
            harmless.add(id(node.value))
        elif isinstance(node, ast.Compare):
            # `x is None` / `x is not None` guards are liveness checks.
            for side in [node.left, *node.comparators]:
                if isinstance(side, ast.Name) and side.id == name:
                    harmless.add(id(side))
    return any(id(n) not in harmless for n in _loads(stmt, name))


# -- RPR702: bare acquire ------------------------------------------------------


def _lock_id(expr: ast.expr, cls: str | None, relpath: str) -> str | None:
    """A stable identity for a lock expression, or None if not lock-ish."""
    if (
        isinstance(expr, ast.Attribute)
        and "lock" in expr.attr.lower()
        and isinstance(expr.value, ast.Name)
    ):
        owner = cls if expr.value.id == "self" and cls else expr.value.id
        return f"{owner}.{expr.attr}"
    if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
        return f"{relpath}:{expr.id}"
    return None


def check_bare_acquire(module: Module) -> list[Finding]:
    """RPR702: ``lock.acquire()`` without a ``release()`` in a finally."""
    findings: list[Finding] = []
    for func, cls in _functions(module.tree):
        released: set[str] = set()
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Try):
                continue
            for fin in stmt.finalbody:
                for node in ast.walk(fin):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "release"
                    ):
                        released.add(ast.unparse(node.func.value))
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                continue
            receiver = node.func.value
            if _lock_id(receiver, cls, module.relpath) is None:
                continue
            if ast.unparse(receiver) in released:
                continue
            findings.append(Finding(
                "RPR702", module.relpath, node.lineno,
                f"bare {ast.unparse(receiver)}.acquire() with no release() "
                "in a finally: the lock leaks if the critical section raises",
                "use `with lock:` (or release in a finally)",
            ))
    return findings


PER_FILE_DATAFLOW_RULES = (
    check_buffer_lifetime,
    check_resource_release,
    check_use_after_close,
    check_bare_acquire,
)


def run_dataflow_rules(module: Module) -> list[Finding]:
    """Every per-file dataflow rule over one module."""
    findings: list[Finding] = []
    for rule in PER_FILE_DATAFLOW_RULES:
        findings.extend(rule(module))
    return findings
