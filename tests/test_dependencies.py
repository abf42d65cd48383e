"""The runtime dependency is numpy alone: every import in the package is of
the standard library, numpy or the package itself, and the project declares
numpy as its one dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "viralearly"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "viralearly"}


def imported_modules(path: Path):
    """(line, top-level module) of each import in the file; a relative import is the package's own."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "viralearly" if node.level else node.module.partition(".")[0]


def test_every_import_is_stdlib_numpy_or_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    outside = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in sources
        for line, module in imported_modules(path)
        if module not in ALLOWED
    ]
    assert outside == []


def test_numpy_is_the_only_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", spec).group(0).lower() for spec in project["dependencies"]]
    assert names == ["numpy"]
