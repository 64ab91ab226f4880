"""Lint findings: one rule violation each.

A :class:`Finding` is one rule violation: rule id, file, line, message, and
a one-line fix hint.  ``repro lint`` fails on any finding; there is no
allowance for old debt, so a change that adds a violation fixes it too.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific location."""

    rule: str  #: rule id, e.g. "RPR201"
    file: str  #: path relative to the lint root (posix separators)
    line: int  #: 1-based line number
    message: str  #: what is wrong, one line
    hint: str = ""  #: how to fix it, one line

    def render(self) -> str:
        text = f"{self.file}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
