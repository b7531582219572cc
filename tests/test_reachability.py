"""Every function in the package is entered by a command, or is excused.

One child process sets a profile hook, then imports fluorgen and runs
``train``, ``generate`` with a baseline sample, ``stats``, ``filter``
with novelty references and ``--print-config`` through ``cli.main`` on
tiny inputs. The hook is set before the import, so module-level calls
and ``functools.cache``d helpers count. A code object is matched to its
``def`` by file and first line, decorators included.

A ``def`` in ``src/fluorgen`` that no command enters fails the test
unless one of two excuses holds:

- it is an error path, by rule: a method of an exception class, or a
  function every path of which ends in ``raise``;
- it is in ``LEDGER``: only the benchmark reaches it, through the
  perfbench name the entry cites (an import from ``fluorgen``, an
  attribute read, or a ``tracing.LAYERS`` entry).

perfbench is read with ast; nothing there is imported or run. Each cited
name must still be there, and each entry must name a ``def`` that exists
and that no command enters, so the ledger only shrinks: once perfbench
stops citing a name, the code behind it goes, or a command enters it.
"""

import ast
import builtins
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fluorgen"
PERFBENCH = ROOT / "perfbench"

# package def (module.qualified name) -> the perfbench name that reaches it
LEDGER = {
    "filters.distance_matrix": "layer filters.distance_matrix",
    "fingerprints.morgan_fingerprint": "import fingerprints.morgan_fingerprint",
    "fingerprints.tanimoto": "layer fingerprints.tanimoto",
    "fingerprints.pack": "import fingerprints.feature_matrix",
    "fingerprints.build_feature_vector": "layer fingerprints.build_feature_vector",
    "fingerprints.feature_matrix": "import fingerprints.feature_matrix",
    "generator.node_features": "layer generator.node_features",
    "generator.train_value_model": "layer generator.train_value_model",
    "generator.replay_route": "import generator.replay_route",
    "generator.parse_route": "import generator.parse_route",
    "molgraph.MolecularGraph.__init__": "import molgraph.MolecularGraph",
    "molgraph.MolecularGraph.atoms": "attribute atoms",
    "molgraph.MolecularGraph.bonds": "attribute bonds",
    "molgraph.MolecularGraph.neighbors": "attribute neighbors",
    "molgraph.MolecularGraph.bond_between": "attribute bond_between",
    "molgraph.MolecularGraph.with_atoms": "import molgraph.perceive_hybridization",
    "molgraph._perceived_states": "import molgraph.perceive_hybridization",
    "molgraph.perceive_hybridization": "import molgraph.perceive_hybridization",
    "reactions.BuildingBlock.smiles": "attribute smiles",
    "scorers.SparseRows.from_dense": "import scorers.mlp_train",
    "scorers.loss_and_grads": "layer scorers.loss_and_grads",
    "scorers.mlp_train": "import scorers.mlp_train",
    "scorers.score_property": "layer scorers.score_property",
}


# ---------------------------------------------------------------------------
# the package's defs, and the excuses


def _first_line(node) -> int:
    return min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])


def exception_classes(trees) -> set[str]:
    """Names of the classes that derive, through the given modules, from a
    built-in exception."""
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = {
        name for name, of in bases.items()
        if any(isinstance(getattr(builtins, base, None), type)
               and issubclass(getattr(builtins, base), BaseException) for base in of)
    }
    while True:
        more = {name for name, of in bases.items() if of & found} - found
        if not more:
            return found
        found |= more


def _ends_in_raise(body) -> bool:
    for statement in body:
        if isinstance(statement, ast.Raise):
            return True
        if isinstance(statement, ast.If) and statement.orelse and (
            _ends_in_raise(statement.body) and _ends_in_raise(statement.orelse)
        ):
            return True
    return False


def always_raises(function) -> bool:
    """True when every path through the function ends in ``raise``: no
    ``return`` of its own, and its body reaches a ``raise`` (or an
    if/else whose branches both do) on every path."""
    own = list(ast.iter_child_nodes(function))
    while own:
        node = own.pop()
        if isinstance(node, ast.Return):
            return False
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            own.extend(ast.iter_child_nodes(node))
    return _ends_in_raise(function.body)


def definitions(sources: dict[str, str]):
    """(file, first line, module.qualified name, is error path) for every
    ``def`` in the modules, nested ones included."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    errors = exception_classes(trees.values())

    def walk(file, node, prefix, in_error_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(file, child, f"{prefix}.{child.name}", child.name in errors)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                yield file, _first_line(child), name, in_error_class or always_raises(child)
                yield from walk(file, child, name, False)
            else:
                yield from walk(file, child, prefix, in_error_class)

    for file, tree in trees.items():
        yield from walk(file, tree, file.removesuffix(".py"), False)


def perfbench_names(sources: dict[str, str]) -> set[str]:
    """What perfbench's source names of the package: ``import m.name`` for
    each ``from fluorgen.m import name``, ``attribute name`` for each
    attribute read, and ``layer m.name`` for each ``LAYERS`` entry."""
    names = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fluorgen"):
                module = node.module.removeprefix("fluorgen").lstrip(".")
                names.update(
                    f"import {module + '.' if module else ''}{alias.name}" for alias in node.names
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(f"attribute {node.attr}")
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
            ):
                names.update(f"layer {m}.{f}" for m, f in ast.literal_eval(node.value))
    return names


def unexcused(sources, entered, ledger) -> list[str]:
    """The defs that no command entered, that are no error path and that
    the ledger does not hold."""
    return [
        f"{file}:{line}: {name}"
        for file, line, name, error_path in definitions(sources)
        if (file, line) not in entered and not error_path and name not in ledger
    ]


def ledger_faults(sources, entered, ledger, cited) -> list[str]:
    """Ledger entries whose def is missing or entered by a command, or
    whose perfbench name is gone."""
    unentered = {
        name for file, line, name, _ in definitions(sources) if (file, line) not in entered
    }
    defined = {name for _, _, name, _ in definitions(sources)}
    faults = []
    for name, reach in ledger.items():
        if name not in defined:
            faults.append(f"{name}: no such def")
        elif name not in unentered:
            faults.append(f"{name}: a command enters it")
        if reach not in cited:
            faults.append(f"{name}: perfbench has no {reach}")
    return faults


# ---------------------------------------------------------------------------
# the child: run every command under the profile hook


def run_commands(workdir: Path) -> None:
    from test_cli import synthetic_csv, write_config

    from fluorgen.cli import main

    synthetic_csv(workdir / "chemfluor.csv")
    references = workdir / "references.smi"
    references.write_text("# novelty references\nc1ccccc1\nc1ccc2ccccc2c1\nCCO\n")
    config = write_config(workdir, n_rollouts=12, novelty_references=references)
    # open thresholds, so molecules survive to clustering and novelty
    with config.open("a") as handle:
        handle.write("sp2_min = 0\nplqy_min = 0\nwindow_min_nm = 0\nwindow_max_nm = 1e6\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in (["train"], ["generate"], ["stats"], ["filter"], ["--print-config"]):
            code = main(["--config", str(config), *argv])
            if code != 0:
                raise SystemExit(f"{argv[0]} exited {code}")


def probe(workdir: Path) -> None:
    """Run the commands and write the (file, first line) of every package
    code object entered to ``entered.json``."""
    codes = set()

    def hook(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run_commands(workdir)
    finally:
        sys.setprofile(None)
    entered = sorted(
        (Path(code.co_filename).name, code.co_firstlineno)
        for code in codes
        if Path(code.co_filename).resolve().parent == PACKAGE
    )
    (workdir / "entered.json").write_text(json.dumps(entered))


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


@pytest.fixture(scope="module")
def entered(tmp_path_factory) -> set[tuple[str, int]]:
    workdir = tmp_path_factory.mktemp("reach")
    done = subprocess.run(
        [sys.executable, __file__, str(workdir)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return {tuple(pair) for pair in json.loads((workdir / "entered.json").read_text())}


def test_every_def_is_entered_or_excused(entered):
    missed = unexcused(package_sources(), entered, LEDGER)
    assert missed == [], missed


def test_ledger_is_current(entered):
    cited = perfbench_names(
        {path.name: path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py")}
    )
    faults = ledger_faults(package_sources(), entered, LEDGER, cited)
    assert faults == [], faults


def test_detector_flags_what_it_should():
    sources = {
        "a.py": (
            "import functools\n"
            "class AError(ValueError):\n"
            "    def __init__(self, message):\n"
            "        super().__init__(message)\n"
            "class BError(AError):\n"
            "    def describe(self):\n"
            "        return 'b'\n"
            "@functools.cache\n"
            "def cached():\n"
            "    return 1\n"
            "def run(lines):\n"
            "    def fail(message):\n"
            "        raise AError(message)\n"
            "    def check(line):\n"
            "        if not line:\n"
            "            return None\n"
            "        raise AError(line)\n"
            "    return [check(line) for line in lines]\n"
            "def either(flag):\n"
            "    if flag:\n"
            "        raise AError('x')\n"
            "    else:\n"
            "        raise BError('y')\n"
            "def kept():\n"
            "    pass\n"
            "class Graph:\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def unused(self):\n"
            "        return 1\n"
        ),
    }
    # cached's code starts at its decorator, so line 8 is its entry
    entered = {("a.py", 8), ("a.py", 11), ("a.py", 27)}
    ledger = {"a.kept": "import a.kept"}
    assert unexcused(sources, entered, ledger) == [
        "a.py:14: a.run.check",
        "a.py:30: a.Graph.unused",
    ]
    cited = perfbench_names({"checks.py": (
        "from fluorgen.a import kept\n"
        "from fluorgen import cli\n"
        "LAYERS = (('a', 'run'),)\n"
        "graph.size\n"
    )})
    assert cited == {"import a.kept", "import cli", "layer a.run", "attribute size"}
    assert ledger_faults(sources, entered, ledger, cited) == []
    stale = {"a.run": "layer a.run", "a.gone": "import a.gone", "a.Graph.unused": "attribute unused"}
    assert ledger_faults(sources, entered, stale, cited) == [
        "a.run: a command enters it",
        "a.gone: no such def",
        "a.gone: perfbench has no import a.gone",
        "a.Graph.unused: perfbench has no attribute unused",
    ]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    probe(Path(sys.argv[1]))
