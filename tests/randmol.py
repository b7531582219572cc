"""Seeded random generator of valid molecular graphs for property tests.

Builds a random spanning tree over a core of C/N/O/S/P atoms, upgrades
bonds to double/triple where spare valence allows, sprinkles ring-closing
edges and halogen leaves, and sometimes grafts on an aromatic six-ring.
Valence is tracked so construction never violates the graph invariants.
Cubic C/N frameworks and star substitutions give the canonical-search
tests graphs whose symmetry refinement alone cannot settle.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np

from fluorgen.molgraph import Atom, Bond, BondOrder, MolecularGraph
from oracles import UnionFind

_CORE_ELEMENTS = ["C", "C", "C", "C", "C", "C", "N", "N", "O", "O", "S", "P"]
_CORE_CAPACITY = {"C": 4, "N": 3, "O": 2, "S": 2, "P": 3}


def random_molecule(rng: np.random.Generator) -> MolecularGraph:
    n_core = int(rng.integers(2, 12))
    elements = [_CORE_ELEMENTS[rng.integers(len(_CORE_ELEMENTS))] for _ in range(n_core)]
    used = [0] * n_core
    bonds: list[tuple[int, int, BondOrder]] = []

    for i in range(1, n_core):
        candidates = [j for j in range(i) if used[j] < _CORE_CAPACITY[elements[j]]]
        if not candidates:
            candidates = [i - 1]
            # Force a fresh carbon parent if the chosen one is saturated.
            if used[i - 1] >= _CORE_CAPACITY[elements[i - 1]]:
                elements[i - 1] = "C"
                _recount(used, bonds, i - 1)
        parent = candidates[rng.integers(len(candidates))]
        bonds.append((parent, i, BondOrder.SINGLE))
        used[parent] += 1
        used[i] += 1

    # Bond upgrades.
    upgraded = []
    for a, b, order in bonds:
        spare_a = _CORE_CAPACITY[elements[a]] - used[a]
        spare_b = _CORE_CAPACITY[elements[b]] - used[b]
        roll = rng.random()
        if roll < 0.10 and spare_a >= 2 and spare_b >= 2:
            order = BondOrder.TRIPLE
            used[a] += 2
            used[b] += 2
        elif roll < 0.35 and spare_a >= 1 and spare_b >= 1:
            order = BondOrder.DOUBLE
            used[a] += 1
            used[b] += 1
        upgraded.append((a, b, order))
    bonds = upgraded

    # Ring closures between non-adjacent atoms with spare valence.
    adjacent = {(min(a, b), max(a, b)) for a, b, _ in bonds}
    for _ in range(int(rng.integers(0, 3))):
        if n_core < 4:
            break
        a, b = sorted(int(x) for x in rng.choice(n_core, size=2, replace=False))
        if (a, b) in adjacent:
            continue
        if used[a] < _CORE_CAPACITY[elements[a]] and used[b] < _CORE_CAPACITY[elements[b]]:
            bonds.append((a, b, BondOrder.SINGLE))
            adjacent.add((a, b))
            used[a] += 1
            used[b] += 1

    atoms = [
        Atom(index=i, element=elements[i]) for i in range(n_core)
    ]

    # Halogen leaves.
    for i in range(n_core):
        if used[i] < _CORE_CAPACITY[elements[i]] and rng.random() < 0.15:
            hal = ("F", "Cl", "Br", "I")[rng.integers(4)]
            idx = len(atoms)
            atoms.append(Atom(index=idx, element=hal))
            bonds.append((i, idx, BondOrder.SINGLE))
            used[i] += 1

    # Occasionally graft an aromatic ring onto a core atom.
    if rng.random() < 0.35:
        ring_elements = ["C"] * 6
        if rng.random() < 0.4:
            ring_elements[rng.integers(6)] = "N"
        base = len(atoms)
        for k in range(6):
            atoms.append(
                Atom(index=base + k, element=ring_elements[k], aromatic=True)
            )
        for k in range(6):
            bonds.append((base + k, base + (k + 1) % 6, BondOrder.AROMATIC))
        attach_candidates = [
            i for i in range(n_core) if used[i] < _CORE_CAPACITY[elements[i]]
        ]
        ring_carbons = [base + k for k in range(6) if ring_elements[k] == "C"]
        if attach_candidates and ring_carbons:
            i = attach_candidates[rng.integers(len(attach_candidates))]
            j = ring_carbons[rng.integers(len(ring_carbons))]
            bonds.append((i, j, BondOrder.SINGLE))
            used[i] += 1

    return MolecularGraph(
        tuple(atoms), tuple(Bond(a, b, order) for a, b, order in bonds)
    )


def random_cubic_molecule(rng: np.random.Generator) -> MolecularGraph:
    """Connected framework of C/N atoms, each bonded to exactly three
    others: one to three copies of a random 4-8 atom cubic piece, with
    each copy's one cut bond rejoined to the next copy, so a rotation
    relates the copies. Half the pieces get a random matching of C=C
    bonds. Degree says nothing here, and refinement alone often leaves
    atoms that no symmetry relates in one class, so the canonical search
    has to branch and prune."""
    copies = int(rng.integers(1, 4))
    m, piece, cut, pairs = _cubic_framework(rng, copies)
    n = m * copies
    elements = ["N" if rng.random() < 0.2 else "C" for _ in range(m)]
    spare = [element == "C" and rng.random() < 0.5 for element in elements]
    doubles = set()
    for k in rng.permutation(len(piece)):
        a, b = piece[k]
        if (a, b) != cut and spare[a] and spare[b]:
            doubles.add((a, b))
            spare[a] = spare[b] = False
    bonds = tuple(
        Bond(a, b, BondOrder.DOUBLE if (a % m, b % m) in doubles else BondOrder.SINGLE)
        for a, b in sorted(pairs)
    )
    atoms = tuple(Atom(index=i, element=elements[i % m]) for i in range(n))
    return MolecularGraph(atoms, bonds)


def _cubic_framework(rng: np.random.Generator, copies: int):
    """A connected cubic framework: copies of a random 4-8 atom cubic
    piece, each copy's cut bond rejoined to the next copy. Returns (piece
    size, piece bonds, cut bond, framework bonds as sorted pairs)."""
    while True:
        m = 2 * int(rng.integers(2, 5))
        stubs = rng.permutation(np.repeat(np.arange(m), 3)).reshape(-1, 2)
        piece = sorted({(int(min(a, b)), int(max(a, b))) for a, b in stubs})
        if len(piece) < len(stubs) or any(a == b for a, b in piece):
            continue
        cut = piece[rng.integers(len(piece))]
        pairs = set()
        for c in range(copies):
            pairs.update((a + c * m, b + c * m) for a, b in piece if (a, b) != cut)
            x, y = cut[0] + c * m, cut[1] + (c + 1) % copies * m
            pairs.add((min(x, y), max(x, y)))
        n = m * copies
        components = UnionFind(n)
        for a, b in pairs:
            components.union(a, b)
        if len(pairs) == 3 * n // 2 and components.size[components.find(0)] == n:
            return m, piece, cut, sorted(pairs)


def _perfect_matching(rng: np.random.Generator, n: int, pairs, tries: int = 50):
    """A random perfect matching of atoms 0..n-1 from pairs, by greedy
    passes over shuffled pairs; None when no pass covers every atom."""
    for _ in range(tries):
        free = set(range(n))
        chosen = set()
        for k in rng.permutation(len(pairs)):
            a, b = pairs[k]
            if a in free and b in free:
                chosen.add((a, b))
                free -= {a, b}
        if not free:
            return chosen
    return None


def random_kekule_framework(rng: np.random.Generator) -> MolecularGraph:
    """All-carbon cubic framework, one to four copies of a random piece
    joined in a ring as in random_cubic_molecule, with one random perfect
    matching of C=C bonds drawn over the whole framework. Every atom has
    one double bond, so refinement starts from a single class; but the
    matching is not periodic, so the rotation of the bare framework, and
    other maps that keep every bond, usually move double bonds onto
    single ones. Leaf maps that keep the bonds but not their orders then
    occur, and they are not automorphisms."""
    copies = int(rng.integers(1, 5))
    while True:
        m, _, _, pairs = _cubic_framework(rng, copies)
        n = m * copies
        doubles = _perfect_matching(rng, n, pairs)
        if doubles is not None:
            break
    atoms = tuple(Atom(index=i, element="C") for i in range(n))
    bonds = tuple(
        Bond(a, b, BondOrder.DOUBLE if (a, b) in doubles else BondOrder.SINGLE)
        for a, b in pairs
    )
    return MolecularGraph(atoms, bonds)


def random_chiral_necklace(rng: np.random.Generator) -> MolecularGraph:
    """An eight-ring, boron at even positions and carbon at odd ones, each
    ring atom carrying one of two pendants that refinement cannot tell
    apart: a root bonded to opposite atoms of a six-ring, or to one atom
    of each of two three-rings. Both cover a root bonded twice to one atom
    of a three-ring, so every atom sees the same neighbour classes; ring
    atoms over the same quotient atom share an element, drawn per parity.
    The pendants alternate in pairs, so a half-turn of the ring is an
    automorphism and no reflection is. Refinement sees every boron alike
    and, once one is individualized, the two borons beside it alike, though
    only the half-turn, which moves the first boron, relates them."""
    even = ("hex", "tri") if rng.random() < 0.5 else ("tri", "hex")
    odd = ("hex", "tri") if rng.random() < 0.5 else ("tri", "hex")
    marks = [("N", "O", "S")[rng.integers(3)] for _ in range(2)]
    rings = {
        "hex": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)],
        "tri": [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)],
    }
    atoms = ["B" if i % 2 == 0 else "C" for i in range(8)]
    bonds = [(i, (i + 1) % 8) for i in range(8)]
    for i in range(8):
        kind = (even if i % 2 == 0 else odd)[i // 2 % 2]
        root = len(atoms)
        # the root holds ring atoms 1 and 4; atoms 2 and 5 carry the mark
        atoms += ["C", "C", marks[i % 2], "C", "C", marks[i % 2], "C"]
        bonds += [(root + a, root + b) for a, b in rings[kind]]
        bonds += [(root, root + 1), (root, root + 4), (i, root)]
    return MolecularGraph(
        tuple(Atom(index=k, element=e) for k, e in enumerate(atoms)),
        tuple(Bond(min(a, b), max(a, b), BondOrder.SINGLE) for a, b in bonds),
    )


def carbon_grid(rows: int, cols: int) -> MolecularGraph:
    """A rows x cols square grid of sp3 carbons, atom r * cols + c at row
    r and column c, each bonded to its grid neighbours."""
    atoms = tuple(Atom(index=i, element="C") for i in range(rows * cols))
    bonds = [Bond(i, i + 1, BondOrder.SINGLE) for i in range(rows * cols) if (i + 1) % cols]
    bonds += [Bond(i, i + cols, BondOrder.SINGLE) for i in range((rows - 1) * cols)]
    return MolecularGraph(atoms, tuple(bonds))


def carbon_grid_smiles(rows: int, cols: int) -> str:
    """carbon_grid(rows, cols) written along a snake path, alternate rows
    walked backwards, with each bond between rows that the path does not
    take as a ring closure: at most cols ring closures are open at once."""
    path = [r * cols + (c if r % 2 == 0 else cols - 1 - c) for r in range(rows) for c in range(cols)]
    at = {atom: k for k, atom in enumerate(path)}
    free = list(range(1, 100))
    open_digit: dict[int, int] = {}  # upper atom of a ring bond -> its digit
    parts = []
    for k, atom in enumerate(path):
        parts.append("C")
        digits = []  # the bond up closes before the bond down opens
        above = atom - cols
        if above >= 0 and at[above] != k - 1:
            digits.append(open_digit.pop(above))
            heapq.heappush(free, digits[-1])
        if atom + cols < rows * cols and at[atom + cols] != k + 1:
            digits.append(heapq.heappop(free))
            open_digit[atom] = digits[-1]
        parts += [str(digit) if digit <= 9 else f"%{digit:02d}" for digit in digits]
    return "".join(parts)


def _recount(used: list[int], bonds: list[tuple[int, int, BondOrder]], i: int) -> None:
    total = 0
    for a, b, order in bonds:
        if a == i or b == i:
            total += order.value
    used[i] = total


def permute_graph(graph: MolecularGraph, perm: list[int]) -> MolecularGraph:
    """Relabel atoms by ``perm`` (old index -> new index)."""
    new_atoms: list[Atom | None] = [None] * len(graph)
    for old, atom in enumerate(graph.atoms):
        new_atoms[perm[old]] = replace(atom, index=perm[old])
    new_bonds = tuple(
        Bond(perm[b.a1], perm[b.a2], b.order) for b in graph.bonds
    )
    return MolecularGraph(tuple(new_atoms), new_bonds)


def substitute(
    core: MolecularGraph, sites: list[int], arm: MolecularGraph, attach: int
) -> MolecularGraph:
    """Bond one fresh copy of ``arm``, by a single bond from its atom
    ``attach``, to each entry of ``sites`` (core atom indices; repeat an
    index to put several arms on one atom)."""
    atoms = list(core.atoms)
    bonds = list(core.bonds)
    for site in sites:
        base = len(atoms)
        atoms.extend(replace(atom, index=base + atom.index) for atom in arm.atoms)
        bonds.extend(Bond(base + b.a1, base + b.a2, b.order) for b in arm.bonds)
        bonds.append(Bond(site, base + attach, BondOrder.SINGLE))
    return MolecularGraph(tuple(atoms), tuple(bonds))
