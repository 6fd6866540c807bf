"""No module of the package imports a name that it does not use, no
computation module keeps code that only the check suite calls, and the
check suite keeps no public code that none of its checks reaches.

`__init__.py` is skipped: its imports are the public surface.  An
import marked `# noqa: F401` is kept on purpose (the benchmark tracer
rebinds such names as attributes of the importing module).  Check-only
routes belong in `surfemit.validation`, next to the checks.
"""

import ast
import re
from pathlib import Path

import pytest

import surfemit

PACKAGE = Path(surfemit.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
COMPUTATION = ("optics", "density", "quadrature", "rates", "sweep", "cli")


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


def check_only_names(sources: dict, named: str) -> list:
    """Public top-level functions and classes of the computation modules
    in sources (module name -> source text) that no module other than
    validation uses and that the text named does not mention."""
    used = set()
    for module, source in sources.items():
        if module != "validation":
            used.update(node.id if isinstance(node, ast.Name) else node.attr
                        for node in ast.walk(ast.parse(source))
                        if isinstance(node, (ast.Name, ast.Attribute)))
    return [f"{module}.{node.name}"
            for module in COMPUTATION if module in sources
            for node in ast.parse(sources[module]).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used
            and not re.search(rf"\b{node.name}\b", named)]


def test_the_check_finds_check_only_code():
    sources = {"optics": "def kept(): pass\ndef moved(): pass\n"
                         "class _Private: pass\n",
               "rates": "kept()\n", "validation": "moved()\n"}
    assert check_only_names(sources, "") == ["optics.moved"]
    assert check_only_names(sources, "see `moved`") == []


def test_no_check_only_code_in_the_computation_modules():
    root = PACKAGE.parents[1]
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)",
                        (root / "pyproject.toml").read_text(), re.M | re.S)
    named = "\n".join([(root / "README.md").read_text(), scripts.group(1),
                       *surfemit.__all__])
    sources = {p.stem: p.read_text() for p in MODULES}
    assert check_only_names(sources, named) == []


def unreached_names(source: str, named: str) -> list:
    """Public top-level functions and classes of the validation source
    that no check reaches and that the text named does not mention.

    A name is reached when the functions listed in CHECKS, run_checks or
    format_report use it, directly or through the top-level definitions
    they use in turn."""
    tree = ast.parse(source)
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    roots = {"run_checks", "format_report"}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CHECKS"
                for t in node.targets):
            roots.update(n.id for n in ast.walk(node.value)
                         if isinstance(n, ast.Name))
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(n.id for n in ast.walk(defs[name])
                    if isinstance(n, ast.Name) and n.id in defs)
    return [name for name in defs
            if not name.startswith("_") and name not in reached
            and not re.search(rf"\b{name}\b", named)]


def test_the_check_finds_unreached_validation_code():
    source = ("def _check_a(cfg): return helper()\n"
              "def helper(): return Inner()\n"
              "class Inner: pass\n"
              "def documented(): pass\ndef orphan(): pass\n"
              "def run_checks(): return [c for _, c in CHECKS]\n"
              "def format_report(results): pass\n"
              "CHECKS = ((\"a\", _check_a),)\n")
    assert unreached_names(source, "see `documented`") == ["orphan"]


def test_validation_keeps_only_code_that_a_check_reaches():
    named = (PACKAGE.parents[1] / "README.md").read_text()
    assert unreached_names((PACKAGE / "validation.py").read_text(),
                           named) == []
