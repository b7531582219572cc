"""Molecular graphs: atoms, bonds, valence bookkeeping, and hybridization.

The graph is the common currency of the whole package: the SMILES layer
builds graphs, fingerprints and reaction templates read them, and the
conjugation score counts atoms on them. Instances are treated as immutable
once constructed; anything that "edits" a molecule builds a new graph.
"""

from __future__ import annotations

import functools
import re
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
# atomic number -> element symbol; a graph's atoms hold atomic numbers
SYMBOL = {number: symbol for symbol, number in ATOMIC_NUMBER.items()}

# Valences used to fill implicit hydrogens, lowest consistent value wins.
_FILL_VALENCES = {
    "B": (3,), "C": (4,), "N": (3,), "O": (2,), "P": (3, 5),
    "S": (2, 4, 6), "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,), "Si": (4,),
}

# Neutral hypervalent forms tolerated on input but never used to add hydrogens
# (pentavalent nitro-style nitrogen being the common real-world case).
_TOLERATED_MAX = {"N": 5}

_AROMATIC_CAPABLE = frozenset(ATOMIC_NUMBER[symbol] for symbol in AROMATIC_SYMBOLS.values())


def is_digits(text: str) -> bool:
    """True when text is one or more of the ASCII digits 0-9, the only
    digits the input readers take: str.isdigit alone also takes other
    scripts' digits and superscripts, which int() reads or rejects."""
    return text.isascii() and text.isdigit()


# an optional sign, ASCII digits with at most one point, an optional
# exponent; or nan, inf or infinity in any case, read so that a caller can
# reject them as non-finite by name
_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|nan|inf|infinity)",
    re.IGNORECASE | re.ASCII,
)


def read_number(text: str) -> float:
    """The value of a number written in the input readers' grammar;
    ValueError for any other text. float() alone also takes other
    scripts' digits, underscores and surrounding whitespace."""
    if _NUMBER.fullmatch(text) is None:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


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
    source (bracket atoms); implicit hydrogens live on the graph, not here.
    ``hybridization`` is what perceive_hybridization assigns; no graph
    reads it back."""

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
    """Bond-order sum over the explicit bonds of an atom with k aromatic
    bonds and the order sum ``other`` of its other bonds.

    Aromatic bonds cannot be summed naively: a benzene carbon carries
    three sigma bonds plus a share of the pi system. The share depends
    on the element: carbon and boron host part of the ring double bond
    (k aromatic bonds count k + 1), oxygen and sulfur always donate a
    lone pair instead (count k), and nitrogen/phosphorus host a double
    bond only in the bare two-connected pyridine-like case.
    """
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
def _valence(number: int, charge: int, explicit_h: int, k: int, other: int):
    """(used valence, maximum valence, implicit hydrogens) of an atom of
    that atomic number with k aromatic bonds and the order sum ``other``
    of its other bonds."""
    element = SYMBOL[number]
    used = _bond_order_sum(element, k, other, explicit_h, charge) + explicit_h
    if explicit_h > 0 or charge != 0:
        # Bracket-style atoms state their hydrogen count outright.
        implicit = 0
    else:
        implicit = _fill_hydrogens(element, charge, used)
    return used, max_valence(element, charge), implicit


class MolecularGraph:
    """Immutable heavy-atom graph with derived hydrogen counts, held as
    integer columns: atom i is entry i of ``atomic_numbers``, ``aromatic``,
    ``charges``, ``explicit_hs`` and ``total_hs``; bond k joins
    ``bond_a1[k]`` and ``bond_a2[k]`` with BondOrder value
    ``bond_orders[k]``.

    ``MolecularGraph(atoms, bonds)`` checks the objects' structure
    (contiguous atom indices, supported elements, bonds between distinct
    existing atoms, at most one per atom pair) and converts them to
    columns; the SMILES reader and apply_reaction build from columns
    (``from_columns``), whose structure holds by construction. Both end
    in ``_build``, whose one pass over the bonds derives hydrogens, and
    which checks hydrogen counts, aromatic elements and valences.
    Disconnected graphs are fine. Atom and Bond objects and the neighbour
    tuples are built on first use (or kept as given); the commands read
    the columns and build none.
    """

    __slots__ = (
        "atomic_numbers", "aromatic", "charges", "explicit_hs", "total_hs",
        "bond_a1", "bond_a2", "bond_orders",
        "_atoms", "_bonds", "_adjacency", "_neighbors", "_ring_atom",
        "_atoms_by_kind", "_canonical_smiles",
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
        n = len(atoms)
        seen_pairs = set()
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
        self._build(
            tuple(ATOMIC_NUMBER[atom.element] for atom in atoms),
            tuple(atom.aromatic for atom in atoms),
            tuple(atom.formal_charge for atom in atoms),
            tuple(atom.explicit_h for atom in atoms),
            tuple(bond.a1 for bond in bonds),
            tuple(bond.a2 for bond in bonds),
            tuple(bond.order.value for bond in bonds),
        )
        self._atoms = atoms
        self._bonds = bonds

    @classmethod
    def from_columns(cls, atomic_numbers, aromatic, charges, explicit_hs,
                     bond_a1, bond_a2, bond_orders) -> "MolecularGraph":
        """A graph of columns whose atomic numbers are supported and whose
        bonds join distinct existing atoms, at most one per pair: the
        SMILES reader checks that as it reads, and a reaction's edits keep
        it. The rest is checked as for MolecularGraph(atoms, bonds)."""
        columns = (atomic_numbers, aromatic, charges, explicit_hs, bond_a1, bond_a2, bond_orders)
        graph = cls.__new__(cls)
        graph._build(*map(tuple, columns))
        graph._atoms = graph._bonds = None
        return graph

    def _build(self, atomic_numbers, aromatic, charges, explicit_hs,
               bond_a1, bond_a2, bond_orders) -> None:
        n = len(atomic_numbers)
        # per atom: aromatic bonds, and the order sum of the others
        aromatic_bonds = [0] * n
        other_orders = [0] * n
        for a1, a2, order in zip(bond_a1, bond_a2, bond_orders):
            if order == 4:  # BondOrder.AROMATIC
                aromatic_bonds[a1] += 1
                aromatic_bonds[a2] += 1
            else:
                other_orders[a1] += order
                other_orders[a2] += order
        total_hs = []
        for pos, (number, is_aromatic, charge, explicit_h, k, other) in enumerate(
            zip(atomic_numbers, aromatic, charges, explicit_hs, aromatic_bonds, other_orders)
        ):
            if explicit_h < 0:
                raise MoleculeError("negative hydrogen count", atom_index=pos)
            if is_aromatic and number not in _AROMATIC_CAPABLE:
                raise MoleculeError(
                    f"element {SYMBOL[number]} cannot be aromatic", atom_index=pos
                )
            used, top, implicit = _valence(number, charge, explicit_h, k, other)
            if used > top:
                raise MoleculeError(
                    f"valence {used} on {SYMBOL[number]} (charge {charge}) "
                    f"exceeds maximum {top}",
                    atom_index=pos,
                )
            total_hs.append(explicit_h + implicit)
        self.atomic_numbers, self.aromatic, self.charges, self.explicit_hs = (
            atomic_numbers, aromatic, charges, explicit_hs
        )
        self.bond_a1, self.bond_a2, self.bond_orders = bond_a1, bond_a2, bond_orders
        self.total_hs = tuple(total_hs)
        # filled on first use by adjacency, neighbors, in_ring,
        # atoms_by_kind and smiles.write_canonical_smiles
        self._adjacency = self._neighbors = self._ring_atom = None
        self._atoms_by_kind = self._canonical_smiles = None

    def __len__(self) -> int:
        return len(self.atomic_numbers)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        if self._atoms is None:
            self._atoms = tuple(
                Atom(index, SYMBOL[number], aromatic, charge, explicit_h)
                for index, (number, aromatic, charge, explicit_h) in enumerate(zip(
                    self.atomic_numbers, self.aromatic, self.charges, self.explicit_hs
                ))
            )
        return self._atoms

    @property
    def bonds(self) -> tuple[Bond, ...]:
        if self._bonds is None:
            self._bonds = tuple(
                Bond(a1, a2, BondOrder(order))
                for a1, a2, order in zip(self.bond_a1, self.bond_a2, self.bond_orders)
            )
        return self._bonds

    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per atom, its (neighbour, bond index) pairs in bond order."""
        if self._adjacency is None:
            links: list[list[tuple[int, int]]] = [[] for _ in range(len(self))]
            for k, (a1, a2) in enumerate(zip(self.bond_a1, self.bond_a2)):
                links[a1].append((a2, k))
                links[a2].append((a1, k))
            self._adjacency = tuple(map(tuple, links))
        return self._adjacency

    def neighbors(self, index: int) -> tuple[tuple[int, Bond], ...]:
        if self._neighbors is None:
            bonds = self.bonds
            self._neighbors = tuple(
                tuple((nbr, bonds[k]) for nbr, k in adj) for adj in self.adjacency()
            )
        return self._neighbors[index]

    def degree(self, index: int) -> int:
        return len(self.adjacency()[index])

    def _order_sum(self, index: int, explicit_h: int, charge: int) -> int:
        # _bond_order_sum for the atom read with the given hydrogen count
        # and charge
        orders = [self.bond_orders[edge] for _, edge in self.adjacency()[index]]
        k = orders.count(BondOrder.AROMATIC.value)
        other = sum(orders) - k * BondOrder.AROMATIC.value
        return _bond_order_sum(SYMBOL[self.atomic_numbers[index]], k, other, explicit_h, charge)

    def bare_implicit_h(self, index: int) -> int:
        """Hydrogens a reader infers for this atom written bare, without
        brackets: read with no explicit hydrogens and no charge."""
        return _fill_hydrogens(
            SYMBOL[self.atomic_numbers[index]], 0, self._order_sum(index, 0, 0)
        )

    def bond_index(self, a: int, b: int) -> int | None:
        """The index of the bond between atoms a and b, None when unbonded."""
        for nbr, edge in self.adjacency()[a]:
            if nbr == b:
                return edge
        return None

    def bond_between(self, a: int, b: int) -> Bond | None:
        edge = self.bond_index(a, b)
        return None if edge is None else self.bonds[edge]

    def in_ring(self, index: int) -> bool:
        """True when the atom lies on some cycle (incident to a non-bridge edge)."""
        if self._ring_atom is None:
            self._ring_atom = tuple(self._ring_atoms_from_bridges())
        return self._ring_atom[index]

    def atoms_by_kind(self) -> dict[tuple[str, bool], tuple[int, ...]]:
        """The indices of the atoms of each (element, aromatic) kind the
        graph has, ascending."""
        if self._atoms_by_kind is None:
            by_kind: dict[tuple[int, bool], list[int]] = {}
            for index, kind in enumerate(zip(self.atomic_numbers, self.aromatic)):
                by_kind.setdefault(kind, []).append(index)
            self._atoms_by_kind = {
                (SYMBOL[number], aromatic): tuple(found)
                for (number, aromatic), found in by_kind.items()
            }
        return self._atoms_by_kind

    def _ring_atoms_from_bridges(self) -> list[bool]:
        # Tarjan bridge finding, iterative so deep chains cannot overflow the
        # interpreter stack. Every non-bridge edge lies on a cycle, so its
        # endpoints are ring atoms.
        n = len(self)
        links = self.adjacency()
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
                adj = links[node]
                descended = False
                while pos < len(adj):
                    nbr, edge = adj[pos]
                    pos += 1
                    if edge == parent_edge:
                        continue
                    if disc[nbr] == -1:
                        stack.append((node, parent_edge, pos))
                        stack.append((nbr, edge, 0))
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
        for edge, (a1, a2) in enumerate(zip(self.bond_a1, self.bond_a2)):
            if edge not in bridges:
                ring[a1] = True
                ring[a2] = True
        return ring

    def with_atoms(self, atoms: tuple[Atom, ...]) -> "MolecularGraph":
        return MolecularGraph(atoms, self.bonds)


_HALOGENS = frozenset(ATOMIC_NUMBER[symbol] for symbol in ("F", "Cl", "Br", "I"))


def _multiple_bonds(graph: MolecularGraph) -> list[int]:
    # per atom: its double bonds plus twice its triple bonds, so 1 means
    # exactly one double bond and no triple, and 2 or more means sp
    count = [0] * len(graph)
    for a1, a2, order in zip(graph.bond_a1, graph.bond_a2, graph.bond_orders):
        if order == 2 or order == 3:
            count[a1] += order - 1
            count[a2] += order - 1
    return count


def _perceived_states(graph: MolecularGraph) -> list[Hybridization]:
    # The rules of perceive_hybridization, read off the columns.
    return [
        Hybridization.SP2 if aromatic or multiple == 1
        else Hybridization.SP if multiple
        else Hybridization.OTHER if number in _HALOGENS
        else Hybridization.SP3
        for number, aromatic, multiple in zip(
            graph.atomic_numbers, graph.aromatic, _multiple_bonds(graph)
        )
    ]


def perceive_hybridization(graph: MolecularGraph) -> MolecularGraph:
    """Assign a hybridization state to every atom, returning a new graph.

    Rules, in order: the aromatic flag wins (aromatic atoms are sp2 by
    definition here), a triple bond or two double bonds make sp, exactly
    one double bond makes sp2, and everything else defaults to sp3 for
    the usual organic elements or "other" for halogens. Idempotent.
    """
    return graph.with_atoms(tuple(
        atom if atom.hybridization is state else replace(atom, hybridization=state)
        for atom, state in zip(graph.atoms, _perceived_states(graph))
    ))


def sp2_network_size(graph: MolecularGraph) -> int:
    """Size of the largest connected cluster of sp2 atoms.

    Walks the subgraph induced by sp2-hybridized atoms (any bond order
    connects two sp2 atoms) on the bond columns and reports the biggest
    component, a proxy for the extent of the conjugated system.
    Hybridization is perceived from the columns, as perceive_hybridization
    does, without building the perceived graph. Returns 0 for molecules
    without sp2 atoms.
    """
    is_sp2 = [
        aromatic or multiple == 1
        for aromatic, multiple in zip(graph.aromatic, _multiple_bonds(graph))
    ]
    adjacent: list[list[int]] = [[] for _ in is_sp2]
    for a1, a2 in zip(graph.bond_a1, graph.bond_a2):
        if is_sp2[a1] and is_sp2[a2]:
            adjacent[a1].append(a2)
            adjacent[a2].append(a1)
    best = 0
    seen = [False] * len(is_sp2)
    for start, sp2 in enumerate(is_sp2):
        if not sp2 or seen[start]:
            continue
        size = 0
        stack = [start]
        seen[start] = True
        while stack:
            size += 1
            for nbr in adjacent[stack.pop()]:
                if not seen[nbr]:
                    seen[nbr] = True
                    stack.append(nbr)
        best = max(best, size)
    return best
