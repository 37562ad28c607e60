"""Every module of the package references each name it imports.
`__init__.py` is left out: its imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liebalance"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """The names the source imports and never references, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_unused_imports():
    source = ("import os\nimport numpy as np\nimport a.b\n"
              "from .x import y, z as w\nprint(np.pi, y, a.b)\n")
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_references_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
