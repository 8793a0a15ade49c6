"""Every module of the package uses each name it imports.

The walk reads each module's syntax tree: an imported name counts as used
where it appears as a name or as the root of an attribute chain, type
annotations included. An import kept on purpose carries `# noqa` on its line.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "robustlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, each with its line number."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_walk_finds_an_unused_name_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .errors import (\n"
        "    ParameterError, ShapeError,\n"
        "    check_seed,\n"
        ")\n"
        "from .model import forward_logits  # noqa: F401\n"
        "def f(x: ShapeError) -> None:\n"
        "    return os.path.join(check_seed(x))\n"
    )
    assert unused_imports(source) == ["math (line 2)", "ParameterError (line 5)"]
