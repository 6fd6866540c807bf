"""No module of the package imports a name that it does not use.

`__init__.py` is skipped: its imports are the public surface.  An
import marked `# noqa: F401` is kept on purpose (the benchmark tracer
rebinds such names as attributes of the importing module).
"""

import ast
from pathlib import Path

import pytest

import surfemit

MODULES = sorted(p for p in Path(surfemit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import in source and never read, except those
    on an import statement that carries `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "# noqa: F401" in text:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\n"
              "from math import (pi,\n    tau)\nprint(pi)\n")
    assert unused_imports(source) == ["line 1: os", "line 3: tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
