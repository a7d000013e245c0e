"""Every name a `magmetric` module imports is used in that module."""
import ast
from pathlib import Path

import pytest

import magmetric

MODULES = sorted(p for p in Path(magmetric.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")

# (module, name) pairs imported on purpose without a use in the module
ALLOWED = {
    ("distance", "dedupe"),  # bench/tracer.py binds magmetric.distance.dedupe
}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_finds_an_unused_name():
    assert unused_imports("import os\nimport math as m\nfrom a.b import c, d\nd()\n") == \
        {"os", "m", "c"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    unused = {name for name in unused_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in ALLOWED}
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"
