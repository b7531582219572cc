"""Every module-level import in the package is used by its module.

Read with ast, nothing imported: a name counts as used when it appears
as a name anywhere in the module (annotations included). The package's
``__init__`` re-exports the names in its ``__all__``; those are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fluorgen"
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """(line, bound name) for each import statement at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def exported_names(tree):
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = exported_names(tree)
    return [
        (line, name)
        for line, name in imported_names(tree)
        if name not in used and name not in exempt
    ]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "generator.py", "reactions.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == [], [f"{path.name}:{line}: {name}" for line, name in unused]


def test_detector_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "from typing import NamedTuple\n"
        "from a import b\n"
        "__all__ = ['b']\n"
        "x: NamedTuple = np.zeros(1)\n"
        "@dataclass\n"
        "class C:\n"
        "    def f(self):\n"
        "        import sys\n"
        "        return sys\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "field")]
