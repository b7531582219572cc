"""The fits leave ``scorers._NetStack``'s layout to the stack.

The fits that train through it, ``_train_group`` (cross-validation
folds) and ``update_nets`` (value retrains), hand it rows and labels and
read back losses and nets: they read none of the attributes that place a
net in the stacked w1t rows. Read with ast, nothing imported.
"""

import ast
from pathlib import Path

SCORERS = Path(__file__).resolve().parent.parent / "src" / "fluorgen" / "scorers.py"
LAYOUT = {"bounds", "live", "solvent_at"}
FITS = ("_train_group", "update_nets")


def layout_reads(source: str):
    """(function, line, attribute), in line order, for each layout
    attribute that a module-level function named in FITS reads, nested
    functions included."""
    reads = [
        (node.name, inner.lineno, inner.attr)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in FITS
        for inner in ast.walk(node)
        if isinstance(inner, ast.Attribute) and inner.attr in LAYOUT
    ]
    return sorted(reads, key=lambda read: read[1])


def test_fits_found():
    tree = ast.parse(SCORERS.read_text(encoding="utf-8"))
    assert set(FITS) <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_fits_read_no_stack_layout():
    reads = layout_reads(SCORERS.read_text(encoding="utf-8"))
    assert reads == [], [f"scorers.py:{line}: {name} reads .{attr}" for name, line, attr in reads]


def test_detector_flags_what_it_should():
    source = (
        "def _train_group(stack, best):\n"
        "    low = stack.bounds[0]\n"
        "    stack.save(0, best)\n"
        "    return low\n"
        "def update_nets(stack):\n"
        "    def losses():\n"
        "        return stack.live[0]\n"
        "    return stack.spans[0], losses, stack.solvent_at\n"
        "def other(stack):\n"
        "    return stack.bounds\n"
        "class _NetStack:\n"
        "    def step(self):\n"
        "        return self.bounds, self.live\n"
    )
    assert layout_reads(source) == [
        ("_train_group", 2, "bounds"),
        ("update_nets", 7, "live"),
        ("update_nets", 8, "solvent_at"),
    ]
