"""Every module-level import in the package is used by its module, and
every module-level private name is used somewhere in the package.

Read with ast, nothing imported: a name counts as used when it appears
as a name anywhere in the module (annotations included). The package's
``__init__`` re-exports the names in its ``__all__``; those are exempt.
A private name (``_x``, assigned, or defined by ``def`` or ``class``) is
used when the package reads it, as a name, an attribute or an import,
anywhere but in its own definition; a table left behind when its
replacement lands is not. Methods count too: every method of a private
class, and every private method of any class, must be read somewhere,
so an alternate constructor left behind is flagged.
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


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree):
    """(line, name) for each module-level private assignment, function or
    class, and for each method of a module-level class that is private or
    belongs to a private class; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if private(name):
                yield node.lineno, name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("__")
                    and (private(node.name) or private(item.name))
                ):
                    yield item.lineno, item.name


def references(tree):
    """Every name the module reads: loaded names, attribute names and the
    names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unused_private_names(sources: dict[str, str]):
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {ref for tree in trees.values() for ref in references(tree)}
    return [
        (module, line, name)
        for module, tree in trees.items()
        for line, name in private_definitions(tree)
        if name not in read
    ]


def test_no_unused_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    unused = unused_private_names(sources)
    assert unused == [], [f"{module}:{line}: {name}" for module, line, name in unused]


def test_private_detector_flags_what_it_should():
    sources = {
        "a.py": (
            "import b\n"
            "_TABLE = {'c': 'C'}\n"
            "_LEFT_BEHIND = ('Cl', 'Br')\n"
            "_x, (_y, _z) = 1, (2, 3)\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    _LEFT_BEHIND = 1\n"
            "    return _TABLE\n"
            "class _Unused:\n"
            "    pass\n"
            "print(_x, b._remote, _helper())\n"
            "class _Stack:\n"
            "    def __init__(self):\n"
            "        self.run()\n"
            "    def run(self):\n"
            "        pass\n"
            "    @classmethod\n"
            "    def of(cls):\n"
            "        return cls()\n"
            "class Public:\n"
            "    def method(self):\n"
            "        return self._kept()\n"
            "    def _kept(self):\n"
            "        return _Stack()\n"
            "    def _dead(self):\n"
            "        pass\n"
        ),
        "b.py": "from a import _y\n_remote: int = 0\n_orphan: int = 0\n",
    }
    assert unused_private_names(sources) == [
        ("a.py", 3, "_LEFT_BEHIND"),
        ("a.py", 4, "_z"),
        ("a.py", 9, "_Unused"),
        ("a.py", 18, "of"),
        ("a.py", 25, "_dead"),
        ("b.py", 3, "_orphan"),
    ]
