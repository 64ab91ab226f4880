"""Fixtures shared by the lint tests."""

from pathlib import Path

import pytest

from repro.analysis import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def package_findings():
    """Every finding of ``repro lint`` on src/repro, linted once per session."""
    return tuple(run_lint([str(REPO_ROOT / "src" / "repro")]))
