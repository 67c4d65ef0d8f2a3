"""The package imports nothing but the standard library and itself.

This pins ``dependencies = []`` in ``pyproject.toml``: a module that imports a
third-party package fails here, before it can fail on an installation that
lacks it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import mediacube

PACKAGE = Path(mediacube.__file__).resolve().parent


def test_every_module_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"mediacube"}
    foreign = []
    for module in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{module.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
