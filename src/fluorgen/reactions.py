"""Reaction templates: role patterns plus graph edit scripts.

A template has 1 to 3 reactant roles, each a substructure pattern, and an
ordered edit script over the matched atoms (add/remove bond, delete atom,
set charge, set aromatic flag). Applying a template takes one molecule per
role, enumerates the pattern matches, and runs the edits on the disjoint
union for every match combination. Products that violate valence rules
are dropped and counted; survivors are deduplicated by canonical SMILES.
Block and product strings are written when first read: a reaction with one
valid match combination writes none.

File formats for template and building-block libraries are documented in
docs/formats.md.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from fluorgen.fingerprints import morgan_fingerprints
from fluorgen.molgraph import BondOrder, MolecularGraph, MoleculeError, is_digits
from fluorgen.patterns import PatternError, PatternQuery, has_match, match_pattern, parse_pattern
from fluorgen.smiles import SmilesError, parse_smiles, write_canonical_smiles

_ORDER_NAMES = {
    "single": BondOrder.SINGLE,
    "double": BondOrder.DOUBLE,
    "triple": BondOrder.TRIPLE,
    "aromatic": BondOrder.AROMATIC,
}

MAX_ARITY = 3

# A route (docs/formats.md) writes a step as template(input,...)->product
# and joins steps with ';', naming the previous step's product PREV_MARKER;
# no block or template id may contain a delimiter, nor a block id be the
# marker.
PREV_MARKER = "@prev"
ROUTE_DELIMITERS = ",;()"


class ReactionFormatError(ValueError):
    """Bad template or building-block file content."""


def _check_id(kind: str, ident: str, path: str, lineno: int):
    """Reject an id holding a route delimiter."""
    reserved = [ch for ch in ROUTE_DELIMITERS if ch in ident]
    if reserved:
        raise ReactionFormatError(
            f"{path}:{lineno}: {kind} id {ident!r} contains {reserved[0]!r}, a route delimiter"
        )


AtomRef = tuple[int, int]  # (role index, pattern node index)


@dataclass(frozen=True)
class EditOp:
    kind: str
    a: AtomRef
    b: AtomRef | None = None
    order: BondOrder | None = None
    charge: int | None = None
    aromatic: bool | None = None


@dataclass(frozen=True)
class ReactionTemplate:
    id: str
    arity: int
    roles: tuple[PatternQuery, ...]
    edits: tuple[EditOp, ...]

    def __post_init__(self):
        if not 1 <= self.arity <= MAX_ARITY:
            raise ReactionFormatError(
                f"reaction {self.id}: arity {self.arity} outside 1..{MAX_ARITY}"
            )
        if len(self.roles) != self.arity:
            raise ReactionFormatError(
                f"reaction {self.id}: {len(self.roles)} roles for arity {self.arity}"
            )
        for edit in self.edits:
            refs = [edit.a] + ([edit.b] if edit.b is not None else [])
            for role, node in refs:
                if not 0 <= role < self.arity:
                    raise ReactionFormatError(
                        f"reaction {self.id}: edit references role {role}"
                    )
                if not 0 <= node < len(self.roles[role].atoms):
                    raise ReactionFormatError(
                        f"reaction {self.id}: edit references node {node} of role {role}"
                    )


@dataclass(frozen=True)
class ReactionResult:
    products: tuple[MolecularGraph, ...]
    skipped: int  # match combinations whose edits produced an invalid molecule

    @property
    def smiles(self) -> tuple[str, ...]:
        """Canonical SMILES of each product, same order."""
        return tuple(write_canonical_smiles(product) for product in self.products)


def apply_reaction(
    template: ReactionTemplate, reactants: list[MolecularGraph]
) -> ReactionResult:
    """Run the template on one molecule per role.

    Every combination of role matches is edited independently; invalid
    outcomes (valence violations, edit conflicts such as adding a bond
    that already exists) are skipped and counted. Products come back
    deduplicated and sorted by canonical SMILES, so the result does not
    depend on reactant atom ordering; ``smiles`` holds those strings. A
    lone valid combination needs no string, and its product's is written
    when ``smiles`` is read.
    """
    if len(reactants) != template.arity:
        raise ValueError(
            f"reaction {template.id} needs {template.arity} reactants, got {len(reactants)}"
        )
    all_matches = []
    for role_idx, (role, mol) in enumerate(zip(template.roles, reactants)):
        found = match_pattern(role, mol)
        if not found:
            raise ValueError(
                f"reaction {template.id}: reactant {role_idx} does not match its role"
            )
        all_matches.append(found)

    offsets = []
    total = 0
    for mol in reactants:
        offsets.append(total)
        total += len(mol)

    # the reactants side by side: their atom columns joined, and their
    # bond orders keyed by (low, high) atom pair
    numbers: list[int] = []
    aromatic: list[bool] = []
    charges: list[int] = []
    hydrogens: list[int] = []
    base_bonds: dict[tuple[int, int], int] = {}
    for mol, offset in zip(reactants, offsets):
        numbers += mol.atomic_numbers
        aromatic += mol.aromatic
        charges += mol.charges
        hydrogens += mol.explicit_hs
        for a1, a2, order in zip(mol.bond_a1, mol.bond_a2, mol.bond_orders):
            a1 += offset
            a2 += offset
            base_bonds[(a1, a2) if a1 < a2 else (a2, a1)] = order

    valid: list[MolecularGraph] = []
    skipped = 0
    for combo in itertools.product(*all_matches):
        def resolve(ref: AtomRef) -> int:
            role, node = ref
            return offsets[role] + combo[role][node]

        atom_aromatic = list(aromatic)
        atom_charges = list(charges)
        bonds = dict(base_bonds)
        deleted: set[int] = set()
        ok = True
        for edit in template.edits:
            u = resolve(edit.a)
            v = resolve(edit.b) if edit.b is not None else None
            if u in deleted or (v is not None and v in deleted):
                ok = False
                break
            if edit.kind == "add_bond":
                key = (min(u, v), max(u, v))
                if u == v or key in bonds:
                    ok = False
                    break
                bonds[key] = edit.order.value
            elif edit.kind == "remove_bond":
                key = (min(u, v), max(u, v))
                if key not in bonds:
                    ok = False
                    break
                del bonds[key]
            elif edit.kind == "delete_atom":
                deleted.add(u)
            elif edit.kind == "set_charge":
                atom_charges[u] = edit.charge
            elif edit.kind == "set_aromatic":
                atom_aromatic[u] = edit.aromatic
            else:
                raise ReactionFormatError(f"unknown edit kind {edit.kind!r}")
        kept = [index for index in range(total) if index not in deleted]
        if not ok or not kept:
            skipped += 1
            continue
        remap = {old: new for new, old in enumerate(kept)}
        kept_bonds = [
            (remap[a], remap[b], order)
            for (a, b), order in sorted(bonds.items())
            if a not in deleted and b not in deleted
        ]
        try:
            valid.append(MolecularGraph.from_columns(
                [numbers[index] for index in kept],
                [atom_aromatic[index] for index in kept],
                [atom_charges[index] for index in kept],
                [hydrogens[index] for index in kept],
                [a for a, _, _ in kept_bonds],
                [b for _, b, _ in kept_bonds],
                [order for _, _, order in kept_bonds],
            ))
        except MoleculeError:
            skipped += 1

    if len(valid) < 2:
        return ReactionResult(products=tuple(valid), skipped=skipped)
    products: dict[str, MolecularGraph] = {}
    for product in valid:
        products.setdefault(write_canonical_smiles(product), product)
    return ReactionResult(
        products=tuple(products[key] for key in sorted(products)), skipped=skipped
    )


@dataclass(frozen=True)
class BuildingBlock:
    id: str
    graph: MolecularGraph

    @property
    def smiles(self) -> str:
        """Canonical SMILES, written when first read."""
        return write_canonical_smiles(self.graph)


@dataclass(frozen=True)
class BlockLibrary:
    blocks: tuple[BuildingBlock, ...]
    words: np.ndarray  # (len(blocks), FP_WORDS) packed fingerprints, in block order
    rejected: tuple[str, ...]  # human-readable reports for skipped lines

    def __len__(self) -> int:
        return len(self.blocks)


def ingest_building_blocks(path: str) -> BlockLibrary:
    """Read a tab-separated ``id<TAB>smiles`` file.

    Lines starting with '#' and blank lines are ignored. Unparseable
    SMILES are skipped and reported; duplicate ids, ids a route could not
    hold, or an empty result raise ReactionFormatError.
    """
    blocks: list[BuildingBlock] = []
    rejected: list[str] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                rejected.append(f"line {lineno}: expected 'id<TAB>smiles'")
                continue
            block_id, smiles = parts[0].strip(), parts[1].strip()
            if block_id in seen_ids:
                raise ReactionFormatError(f"{path}:{lineno}: duplicate block id {block_id!r}")
            _check_id("block", block_id, path, lineno)
            if block_id == PREV_MARKER:
                raise ReactionFormatError(f"{path}:{lineno}: block id {PREV_MARKER!r} is reserved")
            try:
                graph = parse_smiles(smiles)
            except SmilesError as exc:
                rejected.append(f"line {lineno}: {block_id}: {exc}")
                continue
            seen_ids.add(block_id)
            blocks.append(BuildingBlock(id=block_id, graph=graph))
    if not blocks:
        raise ReactionFormatError(f"{path}: no valid building blocks")
    words = morgan_fingerprints(block.graph for block in blocks)
    return BlockLibrary(blocks=tuple(blocks), words=words, rejected=tuple(rejected))


def ingest_reaction_templates(path: str) -> tuple[ReactionTemplate, ...]:
    """Read the block-structured reaction template file (docs/formats.md)."""
    templates: list[ReactionTemplate] = []
    seen_ids: set[str] = set()
    current_id: str | None = None
    arity: int | None = None
    roles: dict[int, PatternQuery] = {}
    edits: list[EditOp] = []

    def fail(lineno: int, message: str):
        raise ReactionFormatError(f"{path}:{lineno}: {message}")

    def finish(lineno: int):
        nonlocal current_id, arity, roles, edits
        if arity is None:
            fail(lineno, f"reaction {current_id}: missing arity")
        if sorted(roles) != list(range(arity)):
            fail(lineno, f"reaction {current_id}: roles must cover 0..{arity - 1}")
        try:
            template = ReactionTemplate(
                id=current_id,
                arity=arity,
                roles=tuple(roles[k] for k in range(arity)),
                edits=tuple(edits),
            )
        except ReactionFormatError as exc:
            fail(lineno, str(exc))
        templates.append(template)
        current_id = None
        arity = None
        roles = {}
        edits = []

    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            keyword = fields[0]
            if keyword == "reaction":
                if current_id is not None:
                    fail(lineno, "nested reaction block")
                if len(fields) != 2:
                    fail(lineno, "reaction line needs exactly one id")
                if fields[1] in seen_ids:
                    fail(lineno, f"duplicate reaction id {fields[1]!r}")
                _check_id("reaction", fields[1], path, lineno)
                seen_ids.add(fields[1])
                current_id = fields[1]
            elif current_id is None:
                fail(lineno, f"{keyword!r} outside a reaction block")
            elif keyword == "arity":
                if len(fields) != 2 or not is_digits(fields[1]):
                    fail(lineno, "arity needs one integer")
                arity = int(fields[1])
            elif keyword == "role":
                if len(fields) != 3 or not is_digits(fields[1]):
                    fail(lineno, "role line is 'role <index> <pattern>'")
                idx = int(fields[1])
                if idx in roles:
                    fail(lineno, f"role {idx} defined twice")
                try:
                    roles[idx] = parse_pattern(fields[2])
                except PatternError as exc:
                    fail(lineno, f"role {idx}: {exc}")
            elif keyword == "edit":
                edits.append(_parse_edit(fields[1:], lineno, path))
            elif keyword == "end":
                finish(lineno)
            else:
                fail(lineno, f"unknown keyword {keyword!r}")
    if current_id is not None:
        raise ReactionFormatError(f"{path}: unterminated reaction block {current_id!r}")
    if not templates:
        raise ReactionFormatError(f"{path}: no reaction templates")
    return tuple(templates)


def _parse_edit(fields: list[str], lineno: int, path: str) -> EditOp:
    def fail(message: str):
        raise ReactionFormatError(f"{path}:{lineno}: {message}")

    def ref(token: str) -> AtomRef:
        parts = token.split(".")
        if len(parts) != 2 or not all(map(is_digits, parts)):
            fail(f"bad atom reference {token!r}, expected role.node")
        return (int(parts[0]), int(parts[1]))

    if not fields:
        fail("empty edit")
    kind = fields[0]
    if kind == "add_bond":
        if len(fields) != 4 or fields[3] not in _ORDER_NAMES:
            fail("add_bond needs two refs and an order")
        return EditOp(kind=kind, a=ref(fields[1]), b=ref(fields[2]), order=_ORDER_NAMES[fields[3]])
    if kind == "remove_bond":
        if len(fields) != 3:
            fail("remove_bond needs two refs")
        return EditOp(kind=kind, a=ref(fields[1]), b=ref(fields[2]))
    if kind == "delete_atom":
        if len(fields) != 2:
            fail("delete_atom needs one ref")
        return EditOp(kind=kind, a=ref(fields[1]))
    if kind == "set_charge":
        if len(fields) != 3:
            fail("set_charge needs a ref and an integer")
        text = fields[2]
        if not is_digits(text[1:] if text[0] in "+-" else text):
            fail(f"bad charge {text!r}")
        return EditOp(kind=kind, a=ref(fields[1]), charge=int(text))
    if kind == "set_aromatic":
        if len(fields) != 3 or fields[2] not in ("on", "off"):
            fail("set_aromatic needs a ref and on/off")
        return EditOp(kind=kind, a=ref(fields[1]), aromatic=fields[2] == "on")
    fail(f"unknown edit kind {kind!r}")


class CompatibilityIndex:
    """Per-(template, role) table of the library positions of the matching
    building blocks, an ascending intp array, filled when the index is
    built."""

    def __init__(self, library: BlockLibrary, templates: tuple[ReactionTemplate, ...]):
        self.templates = {t.id: t for t in templates}
        self._table: dict[tuple[str, int], np.ndarray] = {
            (template.id, role): np.array(
                [k for k, block in enumerate(library.blocks) if has_match(pattern, block.graph)],
                dtype=np.intp,
            )
            for template in self.templates.values()
            for role, pattern in enumerate(template.roles)
        }

    def compatible_blocks(self, template_id: str, role: int) -> np.ndarray:
        return self._table[(template_id, role)]

    def viable_templates(self) -> tuple[str, ...]:
        """Templates whose every role has at least one compatible block,
        in file order."""
        return tuple(
            tid
            for tid, template in self.templates.items()
            if all(len(self._table[(tid, role)]) for role in range(template.arity))
        )
