"""Input files saved with a UTF-8 byte-order mark read as they do
without one, and every reader in the package opens its file so.

The lock is read with ast, nothing imported: every ``open(...)`` call in
``src/fluorgen`` that reads (no mode, or a mode without w, a, x or +)
must pass ``encoding="utf-8-sig"``, which skips a leading mark and reads
plain UTF-8 unchanged.
"""

import ast
import codecs
from pathlib import Path

import pytest

from fluorgen import cli
from fluorgen.config import load_config
from fluorgen.dataset import ingest_chemfluor
from fluorgen.reactions import ingest_building_blocks, ingest_reaction_templates

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "fluorgen"

# reader name: (text whose first line a mark would spoil, the read, and
# what of its result is compared)
READERS = {
    "building_blocks": (
        "B1\tO=Cc1ccccc1\nB2\tNc1ccccc1\n",
        ingest_building_blocks,
        lambda library: ([b.id for b in library.blocks], library.words.tobytes(),
                         library.rejected),
    ),
    "reaction_templates": (
        (REPO / "data" / "reactions.txt").read_text(encoding="utf-8"),
        ingest_reaction_templates,
        lambda templates: templates,
    ),
    "config": ("[generate]\nn_rollouts = 3\n", load_config, lambda config: config),
    "molecules": (
        "smiles\troute\nc1ccccc1\t-\nCCO\t-\n", cli._read_molecule_smiles, lambda read: read
    ),
    "references": ("c1ccccc1\n# note\nCCO\n", cli._read_reference_smiles, lambda read: read),
    "chemfluor": (
        "SMILES,SP,SdP,SA,SB,PLQY,Absorption,Emission\n"
        "c1ccccc1,0.681,0.997,1.062,0.025,0.5,300,350\n",
        ingest_chemfluor,
        lambda result: (result.records, result.rejected),
    ),
}


@pytest.mark.parametrize("name", READERS)
def test_byte_order_mark_ignored(name, tmp_path, monkeypatch):
    monkeypatch.delenv("FLUORGEN_OUTPUT_DIR", raising=False)
    text, read, result = READERS[name]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert result(read(str(marked))) == result(read(str(plain)))


def reading_opens_without_bom_encoding(source: str):
    """Line of each read-mode ``open(...)`` call whose encoding is not
    the literal "utf-8-sig"."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        if isinstance(mode, ast.Constant) and set(mode.value) & set("wax+"):
            continue
        encoding = keywords.get("encoding")
        if not (isinstance(encoding, ast.Constant) and encoding.value == "utf-8-sig"):
            yield node.lineno


def test_every_reader_skips_a_byte_order_mark():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in reading_opens_without_bom_encoding(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_detector_flags_what_it_should():
    source = (
        "open(a, encoding='utf-8-sig')\n"
        "open(a, encoding='utf-8')\n"
        "open(a)\n"
        "open(a, 'r', encoding='utf-8')\n"
        "open(a, mode='rb')\n"
        "open(a, 'w', encoding='utf-8')\n"
        "open(a, mode='ab')\n"
        "open(a, 'r+', encoding='utf-8')\n"
        "open(a, m, encoding='utf-8')\n"
    )
    assert list(reading_opens_without_bom_encoding(source)) == [2, 3, 4, 5, 9]
