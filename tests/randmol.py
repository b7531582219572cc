"""Seeded random generator of valid molecular graphs for property tests.

Builds a random spanning tree over a core of C/N/O/S/P atoms, upgrades
bonds to double/triple where spare valence allows, sprinkles ring-closing
edges and halogen leaves, and sometimes grafts on an aromatic six-ring.
Valence is tracked so construction never violates the graph invariants.
Cubic C/N frameworks and star substitutions give the canonical-search
tests graphs whose symmetry refinement alone cannot settle.
"""

from __future__ import annotations

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
            break
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
