"""Molecular graphs: atoms, bonds, valence bookkeeping, and hybridization.

The graph is the common currency of the whole package: the SMILES layer
builds graphs, fingerprints and reaction templates read them, and the
conjugation score counts atoms on them. Instances are treated as immutable
once constructed; anything that "edits" a molecule builds a new graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import Enum


SUPPORTED_ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", "Si")
# the symbols a reader must try before their one-letter prefixes
TWO_LETTER_ELEMENTS = tuple(symbol for symbol in SUPPORTED_ELEMENTS if len(symbol) == 2)
# lowercase aromatic symbol -> element, for SMILES and role patterns alike
AROMATIC_SYMBOLS = {"b": "B", "c": "C", "n": "N", "o": "O", "p": "P", "s": "S"}

ATOMIC_NUMBER = {
    "B": 5, "C": 6, "N": 7, "O": 8, "F": 9, "Si": 14,
    "P": 15, "S": 16, "Cl": 17, "Br": 35, "I": 53,
}

# Valences used to fill implicit hydrogens, lowest consistent value wins.
_FILL_VALENCES = {
    "B": (3,), "C": (4,), "N": (3,), "O": (2,), "P": (3, 5),
    "S": (2, 4, 6), "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,), "Si": (4,),
}

# Neutral hypervalent forms tolerated on input but never used to add hydrogens
# (pentavalent nitro-style nitrogen being the common real-world case).
_TOLERATED_MAX = {"N": 5}

_AROMATIC_CAPABLE = frozenset(AROMATIC_SYMBOLS.values())


class MoleculeError(ValueError):
    """Raised when atoms and bonds cannot form a chemically valid graph."""

    def __init__(self, message: str, atom_index: int | None = None):
        super().__init__(message)
        self.atom_index = atom_index


class BondOrder(Enum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4


class Hybridization(Enum):
    SP = "sp"
    SP2 = "sp2"
    SP3 = "sp3"
    OTHER = "other"


@dataclass(frozen=True)
class Atom:
    """One heavy atom. ``explicit_h`` is the hydrogen count written in the
    source (bracket atoms); implicit hydrogens live on the graph, not here."""

    index: int
    element: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int = 0
    hybridization: Hybridization | None = None


@dataclass(frozen=True)
class Bond:
    a1: int
    a2: int
    order: BondOrder


@functools.cache
def max_valence(element: str, charge: int) -> int:
    """Largest bond-order sum (hydrogens included) the element tolerates."""
    top = max(_FILL_VALENCES[element])
    if charge == 0:
        top = max(top, _TOLERATED_MAX.get(element, 0))
    return max(_charge_adjust(element, charge, top), 0)


def _charge_adjust(element: str, charge: int, valence: int) -> int:
    # Cations of N/O/P/S/halogens gain a bond, anions lose one; carbon and
    # silicon lose a bond either way, boron mirrors nitrogen's direction.
    if element in ("C", "Si"):
        return valence - abs(charge)
    if element == "B":
        return valence - charge
    return valence + charge


@functools.cache
def _fill_valences(element: str, charge: int) -> tuple[int, ...]:
    vals = tuple(_charge_adjust(element, charge, v) for v in _FILL_VALENCES[element])
    return tuple(v for v in vals if v >= 0)


def _fill_hydrogens(element: str, charge: int, used: int) -> int:
    """Hydrogens that bring a bond-order sum up to the lowest fill valence
    that holds it; 0 when none does."""
    for v in _fill_valences(element, charge):
        if v >= used:
            return v - used
    return 0


def _bond_order_sum(element: str, k: int, other: int, explicit_h: int, charge: int) -> int:
    """MolecularGraph.bond_order_sum's rule for an atom with k aromatic
    bonds and the order sum ``other`` of its other bonds."""
    if k == 0:
        return other
    if element in ("C", "B"):
        contrib = k + 1
    elif element in ("N", "P"):
        pyridine_like = k == 2 and other == 0 and explicit_h == 0 and charge == 0
        contrib = k + 1 if pyridine_like else k
    else:
        contrib = k
    return other + contrib


@functools.cache
def _valence(element: str, charge: int, explicit_h: int, k: int, other: int):
    """(used valence, maximum valence, implicit hydrogens) of an atom with
    k aromatic bonds and the order sum ``other`` of its other bonds."""
    used = _bond_order_sum(element, k, other, explicit_h, charge) + explicit_h
    if explicit_h > 0 or charge != 0:
        # Bracket-style atoms state their hydrogen count outright.
        implicit = 0
    else:
        implicit = _fill_hydrogens(element, charge, used)
    return used, max_valence(element, charge), implicit


class MolecularGraph:
    """Immutable heavy-atom graph with derived hydrogen counts.

    Construction validates the structural invariants: contiguous atom
    indices, bonds between distinct existing atoms, at most one bond per
    atom pair, and element valences within the allowed range. Disconnected
    graphs (multi-fragment molecules) are fine.
    """

    __slots__ = (
        "atoms", "bonds", "_neighbors", "_implicit_h", "_ring_atom", "_atoms_by_kind",
        "_canonical_smiles",
    )

    def __init__(self, atoms: tuple[Atom, ...], bonds: tuple[Bond, ...]):
        atoms = tuple(atoms)
        bonds = tuple(bonds)
        for pos, atom in enumerate(atoms):
            if atom.index != pos:
                raise MoleculeError(
                    f"atom index {atom.index} at position {pos}: indices must be contiguous from 0",
                    atom_index=pos,
                )
            if atom.element not in _FILL_VALENCES:
                raise MoleculeError(f"unsupported element {atom.element!r}", atom_index=pos)
            if atom.explicit_h < 0:
                raise MoleculeError("negative hydrogen count", atom_index=pos)
            if atom.aromatic and atom.element not in _AROMATIC_CAPABLE:
                raise MoleculeError(
                    f"element {atom.element} cannot be aromatic", atom_index=pos
                )
        n = len(atoms)
        seen_pairs = set()
        neighbors: list[list[tuple[int, Bond]]] = [[] for _ in range(n)]
        # per atom: aromatic bonds, and the order sum of the others
        aromatic_bonds = [0] * n
        other_orders = [0] * n
        aromatic = BondOrder.AROMATIC
        for bond in bonds:
            a1, a2 = bond.a1, bond.a2
            if not (0 <= a1 < n and 0 <= a2 < n):
                raise MoleculeError(f"bond references missing atom ({a1}, {a2})")
            if a1 == a2:
                raise MoleculeError(f"self-bond on atom {a1}", atom_index=a1)
            pair = (a1, a2) if a1 < a2 else (a2, a1)
            if pair in seen_pairs:
                raise MoleculeError(f"duplicate bond between atoms {pair[0]} and {pair[1]}")
            seen_pairs.add(pair)
            neighbors[a1].append((a2, bond))
            neighbors[a2].append((a1, bond))
            if bond.order is aromatic:
                aromatic_bonds[a1] += 1
                aromatic_bonds[a2] += 1
            else:
                order = bond.order.value
                other_orders[a1] += order
                other_orders[a2] += order
        implicit_h = []
        for atom, k, other in zip(atoms, aromatic_bonds, other_orders):
            used, top, implicit = _valence(
                atom.element, atom.formal_charge, atom.explicit_h, k, other
            )
            if used > top:
                raise MoleculeError(
                    f"valence {used} on {atom.element} (charge {atom.formal_charge}) "
                    f"exceeds maximum {top}",
                    atom_index=atom.index,
                )
            implicit_h.append(implicit)
        self.atoms = atoms
        self.bonds = bonds
        self._neighbors = tuple(tuple(adj) for adj in neighbors)
        self._implicit_h = tuple(implicit_h)
        # filled on first use: ring flags by in_ring, atoms by (element,
        # aromatic) kind by atoms_by_kind, the string by
        # smiles.write_canonical_smiles
        self._ring_atom: tuple[bool, ...] | None = None
        self._atoms_by_kind: dict[tuple[str, bool], tuple[int, ...]] | None = None
        self._canonical_smiles: str | None = None

    def __len__(self) -> int:
        return len(self.atoms)

    def neighbors(self, index: int) -> tuple[tuple[int, Bond], ...]:
        return self._neighbors[index]

    def degree(self, index: int) -> int:
        return len(self._neighbors[index])

    def bond_order_sum(self, index: int) -> int:
        """Bond-order sum over explicit bonds, aromatic system included.

        Aromatic bonds cannot be summed naively: a benzene carbon carries
        three sigma bonds plus a share of the pi system. The share depends
        on the element: carbon and boron host part of the ring double bond
        (k aromatic bonds count k + 1), oxygen and sulfur always donate a
        lone pair instead (count k), and nitrogen/phosphorus host a double
        bond only in the bare two-connected pyridine-like case.
        """
        atom = self.atoms[index]
        return self._order_sum(index, atom.explicit_h, atom.formal_charge)

    def _order_sum(self, index: int, explicit_h: int, charge: int) -> int:
        # bond_order_sum's rule, for the atom read with the given hydrogen
        # count and charge
        k = 0
        other = 0
        for _, bond in self._neighbors[index]:
            if bond.order is BondOrder.AROMATIC:
                k += 1
            else:
                other += bond.order.value
        return _bond_order_sum(self.atoms[index].element, k, other, explicit_h, charge)

    def bare_implicit_h(self, index: int) -> int:
        """Hydrogens a reader infers for this atom written bare, without
        brackets: read with no explicit hydrogens and no charge."""
        return _fill_hydrogens(self.atoms[index].element, 0, self._order_sum(index, 0, 0))

    def implicit_h(self, index: int) -> int:
        return self._implicit_h[index]

    def total_h(self, index: int) -> int:
        return self.atoms[index].explicit_h + self._implicit_h[index]

    def bond_between(self, a: int, b: int) -> Bond | None:
        for nbr, bond in self._neighbors[a]:
            if nbr == b:
                return bond
        return None

    def in_ring(self, index: int) -> bool:
        """True when the atom lies on some cycle (incident to a non-bridge edge)."""
        if self._ring_atom is None:
            self._ring_atom = tuple(self._ring_atoms_from_bridges())
        return self._ring_atom[index]

    def atoms_by_kind(self) -> dict[tuple[str, bool], tuple[int, ...]]:
        """The indices of the atoms of each (element, aromatic) kind the
        graph has, ascending."""
        if self._atoms_by_kind is None:
            by_kind: dict[tuple[str, bool], list[int]] = {}
            for atom in self.atoms:
                by_kind.setdefault((atom.element, atom.aromatic), []).append(atom.index)
            self._atoms_by_kind = {kind: tuple(found) for kind, found in by_kind.items()}
        return self._atoms_by_kind

    def _ring_atoms_from_bridges(self) -> list[bool]:
        # Tarjan bridge finding, iterative so deep chains cannot overflow the
        # interpreter stack. Every non-bridge edge lies on a cycle, so its
        # endpoints are ring atoms.
        n = len(self.atoms)
        disc = [-1] * n
        low = [0] * n
        bridges: set[int] = set()
        timer = [0]
        for root in range(n):
            if disc[root] != -1:
                continue
            stack: list[tuple[int, int, int]] = [(root, -1, 0)]
            while stack:
                node, parent_edge, pos = stack.pop()
                if pos == 0:
                    disc[node] = low[node] = timer[0]
                    timer[0] += 1
                adj = self._neighbors[node]
                descended = False
                while pos < len(adj):
                    nbr, bond = adj[pos]
                    pos += 1
                    eid = id(bond)
                    if eid == parent_edge:
                        continue
                    if disc[nbr] == -1:
                        stack.append((node, parent_edge, pos))
                        stack.append((nbr, eid, 0))
                        descended = True
                        break
                    low[node] = min(low[node], disc[nbr])
                if descended:
                    continue
                if stack:
                    parent, _, _ = stack[-1]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent] and parent_edge != -1:
                        bridges.add(parent_edge)
        ring = [False] * n
        for bond in self.bonds:
            if id(bond) not in bridges:
                ring[bond.a1] = True
                ring[bond.a2] = True
        return ring

    def with_atoms(self, atoms: tuple[Atom, ...]) -> "MolecularGraph":
        return MolecularGraph(atoms, self.bonds)


def _perceived_hybridization(graph: MolecularGraph, index: int) -> Hybridization:
    # The rules of perceive_hybridization, for one atom.
    atom = graph.atoms[index]
    if atom.aromatic:
        return Hybridization.SP2
    doubles = 0
    triples = 0
    for _, bond in graph.neighbors(index):
        if bond.order is BondOrder.DOUBLE:
            doubles += 1
        elif bond.order is BondOrder.TRIPLE:
            triples += 1
    if triples >= 1 or doubles >= 2:
        return Hybridization.SP
    if doubles == 1:
        return Hybridization.SP2
    if atom.element in ("F", "Cl", "Br", "I"):
        return Hybridization.OTHER
    return Hybridization.SP3


def perceive_hybridization(graph: MolecularGraph) -> MolecularGraph:
    """Assign a hybridization state to every atom, returning a new graph.

    Rules, in order: the aromatic flag wins (aromatic atoms are sp2 by
    definition here), a triple bond or two double bonds make sp, exactly
    one double bond makes sp2, and everything else defaults to sp3 for
    the usual organic elements or "other" for halogens. Idempotent.
    """
    new_atoms = []
    for atom in graph.atoms:
        hyb = _perceived_hybridization(graph, atom.index)
        new_atoms.append(atom if atom.hybridization is hyb else replace(atom, hybridization=hyb))
    return graph.with_atoms(tuple(new_atoms))


def sp2_network_size(graph: MolecularGraph) -> int:
    """Size of the largest connected cluster of sp2 atoms.

    Walks the subgraph induced by sp2-hybridized atoms (any bond order
    connects two sp2 atoms) and reports the biggest component, a proxy for
    the extent of the conjugated system. Perceives hybridization first if
    the graph has none, reading the perceived states without building the
    perceived graph. Returns 0 for molecules without sp2 atoms.
    """
    if any(atom.hybridization is None for atom in graph.atoms):
        states = [_perceived_hybridization(graph, i) for i in range(len(graph))]
    else:
        states = [atom.hybridization for atom in graph.atoms]
    is_sp2 = [state is Hybridization.SP2 for state in states]
    best = 0
    seen = [False] * len(graph.atoms)
    for start in range(len(graph.atoms)):
        if not is_sp2[start] or seen[start]:
            continue
        size = 0
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            size += 1
            for nbr, _ in graph.neighbors(node):
                if is_sp2[nbr] and not seen[nbr]:
                    seen[nbr] = True
                    stack.append(nbr)
        best = max(best, size)
    return best
