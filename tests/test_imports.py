"""Every name a `cosimplex` module imports is used in that module, no
module imports `random`, and every module parses as Python 3.10, the least
version that pyproject.toml declares.

`from __future__` imports are compiler switches, so they are exempt. The
JSON output of a request depends on the request alone, so the library
draws nothing at random; tests that want random inputs seed their own.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cosimplex"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_the_scan_sees_an_unused_name():
    source = "from __future__ import annotations\nimport os, sys\nfrom math import gcd, lcm\nlcm(os.sep, 1)\n"
    assert unused_imports(source) == ["line 2: sys", "line 3: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """The top-level packages a source imports from."""
    tree = ast.parse(source)
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    return {name.split(".")[0] for name in names}


def test_the_scan_sees_a_random_import():
    for source in ("import random\n", "from random import Random\n", "import os, random as r\n"):
        assert "random" in imported_modules(source)
    assert "random" not in imported_modules("from . import reports\nimport secrets\n")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_random(path):
    assert "random" not in imported_modules(path.read_text())


def test_the_scan_sees_syntax_newer_than_3_10():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # Python 3.11
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_parses_as_python_3_10(path):
    # the grammar only: the interpreter that runs the tests may be newer
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
