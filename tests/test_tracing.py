"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps fluorgen
functions by module and name. These tests fail when a wrapped function is
renamed or deleted, or when removing the tracer leaves a wrapper behind.
Nothing under perfbench/ is written."""

import importlib
import sys
from pathlib import Path

import pytest

import fluorgen.cli  # noqa: F401  (imports every module the tracer patches)

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        sys.path.remove(PERFBENCH)


def fluorgen_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name.startswith("fluorgen.") and module is not None
    }


def test_every_layer_is_a_fluorgen_callable(tracing):
    for module_name, function_name in tracing.LAYERS:
        module = importlib.import_module(f"fluorgen.{module_name}")
        assert callable(getattr(module, function_name, None)), f"{module_name}.{function_name}"


def test_install_then_remove_restores_every_attribute(tracing):
    from fluorgen import patterns
    from fluorgen.smiles import parse_smiles

    before = fluorgen_namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, function_name in tracing.LAYERS:
            module = sys.modules[f"fluorgen.{module_name}"]
            original = before[module.__name__][function_name]
            assert getattr(module, function_name) is not original
            assert getattr(module, function_name).__wrapped__ is original
        patterns.has_match(patterns.parse_pattern("C"), parse_smiles("CO"))
        assert tracer.calls["patterns.has_match"] == 1
        assert tracer.calls["patterns.match_pattern"] == 1
    finally:
        tracer.remove()
    after = fluorgen_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        changed = [attr for attr, value in namespace.items() if after[name][attr] is not value]
        assert not changed, (name, changed)
