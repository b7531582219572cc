"""The benchmark (perfbench/) drives fluorgen from outside: it imports
functions by name, often inside the function that uses them, and patches
a few attributes by name. These tests read its sources with ast, so a
renamed or deleted name fails here rather than in a benchmark run.
Nothing under perfbench/ is imported, executed or written."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from fluorgen.fingerprints import FP_BITS, morgan_fingerprint, morgan_fingerprints
from fluorgen.smiles import parse_smiles

from randmol import random_molecule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def fluorgen_imports(tree):
    """(line, module, name) for every `from fluorgen... import name` and
    (line, module, None) for every `import fluorgen...`, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fluorgen":
            for alias in node.names:
                yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fluorgen":
                    yield node.lineno, alias.name, None


def resolve(module_name, name):
    module = importlib.import_module(module_name)
    if name is None:
        return module
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"run.py", "inputs.py", "checks.py", "tracing.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_fluorgen_import_resolves(path):
    imports = list(fluorgen_imports(parsed(path)))
    for line, module_name, name in imports:
        try:
            resolve(module_name, name)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{path.name}:{line}: from {module_name} import {name}: {exc}")


def _bound_names(function):
    """Local names a function binds with `from fluorgen... import`."""
    return {
        name: resolve(module_name, name)
        for _, module_name, name in fluorgen_imports(function)
        if name is not None
    }


def _evaluate(node, bound):
    """A Name or dotted Attribute chain over the bound names."""
    if isinstance(node, ast.Name):
        return bound[node.id]
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return getattr(_evaluate(node.value, bound), node.attr)


def test_patched_attributes_exist():
    """Every _wrap_attribute(owner, "name", ...) call patches a callable
    that exists."""
    sites = 0
    for path in SOURCES:
        for function in ast.walk(parsed(path)):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_wrap_attribute"
                ):
                    continue
                owner = _evaluate(node.args[0], _bound_names(function))
                name = node.args[1].value
                assert callable(getattr(owner, name, None)), f"{path.name}:{node.lineno}: {name}"
                sites += 1
    assert sites >= 3  # generate, filter and train each mark their set-up boundary


@pytest.mark.parametrize("smiles", ["C", "c1ccccc1", "CC(=O)Nc1ccc(O)cc1", "[NH4+].[Cl-]"])
def test_fingerprint_bits_is_a_bounded_int(smiles):
    """checks.packed writes fp.bits as FP_BITS / 8 little-endian bytes."""
    bits = morgan_fingerprint(parse_smiles(smiles)).bits
    assert type(bits) is int
    assert 0 < bits < 2**FP_BITS


def test_bits_reach_the_top_word():
    """Over a few hundred molecules the bits reach the top word, so the
    width bound above is not met by accident."""
    rng = np.random.default_rng(0)
    graphs = [random_molecule(rng) for _ in range(300)]
    for graph in graphs:
        bits = morgan_fingerprint(graph).bits
        assert type(bits) is int and bits < 2**FP_BITS
    assert morgan_fingerprints(graphs)[:, -1].any()
