"""Every name a pssmplab module imports is used in that module, and every
name in its ``__all__`` is bound in it.

Package ``__init__.py`` files only re-export, so they are exempt from the
first check, as are ``__future__`` imports.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pssmplab"
ALL_MODULES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - used)


def test_scan_sees_unused_and_used_names():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\n"
           "from typing import Optional, Sequence\n"
           "def f(x: Optional[int]):\n    return np.zeros(x)\n")
    assert _unused_imports(src) == ["Sequence", "os"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("path", ALL_MODULES,
                         ids=[str(p.relative_to(SRC)) for p in ALL_MODULES])
def test_module_all_names_are_bound(path):
    module = importlib.import_module(_module_name(path))
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []
