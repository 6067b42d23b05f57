"""Packaging: ``setup.py`` declares every third-party module the code imports.

A module-level import that ``install_requires`` does not name breaks a
clean ``pip install`` at import time (``repro.core.brascamp_lieb`` imported
numpy and scipy for a long time while only sympy and networkx were
declared).  Function-level imports are left out: they guard optional
extras.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _install_requires() -> set[str]:
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {ast.literal_eval(item) for item in node.value.elts}
    raise AssertionError("setup.py has no install_requires")


def _module_level_imports() -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def test_module_level_imports_are_declared():
    declared = _install_requires()
    imported = _module_level_imports()
    missing = {name: sorted(paths) for name, paths in imported.items() if name not in declared}
    assert not missing, f"imported at module level but not in install_requires: {missing}"
    assert {"numpy", "scipy", "sympy", "networkx"} <= set(imported)
