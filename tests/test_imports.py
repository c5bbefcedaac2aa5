"""Every library module uses each name it imports (an ast scan; the package
re-exports its names from ``__init__``, which is exempt)."""

import ast
from pathlib import Path

import pytest

import perfscore

MODULES = sorted(
    p for p in Path(perfscore.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_names():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nc(np.pi)\n"
    assert unused_imports(source) == ["a", "os"]
