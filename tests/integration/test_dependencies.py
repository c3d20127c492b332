"""Every third-party package ``src/repro`` imports is declared in pyproject.toml.

A clean install gets only the declared dependencies, so an undeclared
import fails there even though it passes wherever the package happens to
be installed.  Imports are read with ``ast``, so nothing is imported.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[2]


def imported_packages() -> dict[str, str]:
    """Top-level package of every absolute import -> first module using it."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], str(path.relative_to(ROOT)))
    return found


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
        for dep in project["dependencies"]
    }


def test_third_party_imports_are_declared():
    declared = declared_dependencies()
    missing = {
        name: where
        for name, where in imported_packages().items()
        if name != "repro" and name not in sys.stdlib_module_names and name not in declared
    }
    assert not missing, f"imported but not in [project].dependencies: {missing}"


def test_the_scan_sees_the_numeric_stack():
    assert {"numpy", "scipy"} <= set(imported_packages())
