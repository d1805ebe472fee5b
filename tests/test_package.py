import ast
from pathlib import Path

import pytest

import weyldelta

MODULES = sorted(Path(weyldelta.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    """Names a module imports and never reads, by a walk of its syntax tree."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_guard_sees_an_unused_import():
    source = "from typing import Optional, Tuple\nimport numpy as np\n\nx: Tuple = np.pi\n"
    assert unused_imports(source) == [(1, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
