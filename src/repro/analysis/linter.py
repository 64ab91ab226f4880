"""The lint engine: collect sources, run every rule.

``run_lint`` is the library surface (the CLI and CI call it; tests point it
at fixture trees).  It parses every target file once, feeds it to every
rule — the syntactic ones of :mod:`repro.analysis.rules`, the CFG-based
ones of :mod:`repro.analysis.dataflow` and the guarded-by inference of
:mod:`repro.analysis.concurrency` — and returns findings sorted by location.
``lint_paths`` resolves what to analyse: given nothing it lints the
installed ``repro`` package sources — so ``repro lint`` works from any
checkout or install without configuration.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path

from .findings import Finding
from .rules import Module, run_per_file_rules

__all__ = ["default_root", "lint_paths", "run_lint"]


def default_root() -> Path:
    """The source tree ``repro lint`` analyses by default: this package."""
    return Path(__file__).resolve().parent.parent


def lint_paths(paths: list | None = None) -> tuple[Path, list[Path]]:
    """Resolve CLI arguments to ``(root, files)``.

    No arguments: the installed ``repro`` package.  Directories expand to
    every ``*.py`` beneath them; explicit files pass through.  The root
    (findings are reported relative to it) is the common parent.
    """
    if not paths:
        root = default_root()
        return root.parent, sorted(root.rglob("*.py"))
    resolved = [Path(p).resolve() for p in paths]
    files: list[Path] = []
    for path in resolved:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    roots = [p if p.is_dir() else p.parent for p in resolved]
    common = os.path.commonprefix([r.parts for r in roots])
    root = Path(*common) if common else Path.cwd()
    return root, files


def _parse(root: Path, files: list[Path]) -> tuple[list[Module], list[Finding]]:
    modules: list[Module] = []
    findings: list[Finding] = []
    for path in files:
        try:
            relpath = path.relative_to(root).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            source = path.read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(
                "RPR000", relpath, 0, f"unreadable source file: {exc}",
                "fix the file encoding or permissions",
            ))
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(Finding(
                "RPR000", relpath, exc.lineno or 0,
                f"syntax error: {exc.msg}", "fix the syntax error",
            ))
            continue
        modules.append(Module(relpath=relpath, tree=tree))
    return modules, findings


def run_lint(paths: list | None = None) -> list[Finding]:
    """Lint ``paths`` (default: the repro package) and return all findings."""
    # Imported here, not at the top: ``import repro`` loads this module, and
    # the CFG-based rules need not load until something is linted.
    from .concurrency import check_guarded_by
    from .dataflow import run_dataflow_rules

    root, files = lint_paths(paths)
    modules, findings = _parse(root, files)
    for module in modules:
        findings.extend(run_per_file_rules(module))
        findings.extend(run_dataflow_rules(module))
        findings.extend(check_guarded_by(module))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
