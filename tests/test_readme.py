"""The README's "Python API" list is the package's public exports, module by module."""
import ast
import inspect
import re
from pathlib import Path

import robustlab

ROOT = Path(__file__).resolve().parents[1]


def readme_api() -> dict[str, list[str]]:
    """The README's Python API list: module -> the names listed under it, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    entries = re.findall(r"^- `robustlab\.(\w+)`: (.*?)(?=^- |^$)", section, flags=re.M | re.S)
    return {module: re.findall(r"`(\w+)`", names) for module, names in entries}


def package_exports() -> dict[str, list[str]]:
    """module -> the names `robustlab/__init__.py` imports from it, in order."""
    tree = ast.parse((ROOT / "src" / "robustlab" / "__init__.py").read_text(encoding="utf-8"))
    return {node.module: [a.asname or a.name for a in node.names]
            for node in tree.body if isinstance(node, ast.ImportFrom)}


def test_readme_lists_the_exports_by_module():
    assert readme_api() == package_exports()


def test_the_exports_are_every_public_name_of_the_package():
    public = {name for name, value in vars(robustlab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {name for names in package_exports().values() for name in names}
    for module, names in package_exports().items():
        for name in names:
            assert getattr(robustlab, name) is getattr(getattr(robustlab, module), name)
