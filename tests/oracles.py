"""Independent reference implementations used to cross-check the library.

Everything in here is deliberately written with a different algorithmic
approach than the package code: union-find instead of DFS, exhaustive
injection enumeration instead of backtracking, finite differences instead
of backprop. Slow is fine; these only run in tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from fluorgen.fingerprints import FP_BITS, tanimoto
from fluorgen.molgraph import Hybridization, MolecularGraph, perceive_hybridization
from fluorgen.scorers import forward_batch


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def sp2_network_size_unionfind(graph: MolecularGraph) -> int:
    """Union-find oracle for the largest sp2-connected cluster."""
    graph = perceive_hybridization(graph)
    sp2 = [atom.hybridization is Hybridization.SP2 for atom in graph.atoms]
    uf = UnionFind(len(graph))
    for bond in graph.bonds:
        if sp2[bond.a1] and sp2[bond.a2]:
            uf.union(bond.a1, bond.a2)
    best = 0
    for i in range(len(graph)):
        if sp2[i]:
            best = max(best, uf.size[uf.find(i)])
    return best


def bits_to_array_loop(bits: int, nbits: int = FP_BITS) -> np.ndarray:
    """Fingerprint decoder oracle: shift the integer right one bit at a
    time and set index k when bit k is on."""
    out = np.zeros(nbits, dtype=np.float64)
    index = 0
    while bits:
        if bits & 1:
            out[index] = 1.0
        bits >>= 1
        index += 1
    return out


def distance_matrix_loop(fingerprints) -> np.ndarray:
    """Pairwise distance oracle: one scalar big-integer tanimoto per
    ordered pair, zero on the diagonal."""
    n = len(fingerprints)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = 1.0 - tanimoto(fingerprints[i], fingerprints[j])
    return out


def similarity_histogram_loop(labels, fingerprints):
    """Similarity histogram oracle: every pair i < j in row-major order,
    split by whether the two labels agree."""
    intra = []
    inter = []
    for i in range(len(fingerprints)):
        for j in range(i + 1, len(fingerprints)):
            similarity = tanimoto(fingerprints[i], fingerprints[j])
            (intra if labels[i] == labels[j] else inter).append(similarity)
    return tuple(intra), tuple(inter)


def representatives_loop(labels, medoids, fingerprints):
    """Representative ranking oracle: members of each cluster sorted by
    (distance to the medoid, index)."""
    ranked = []
    for cluster, medoid in enumerate(medoids):
        members = [i for i, label in enumerate(labels) if label == cluster]
        members.sort(key=lambda i: (1.0 - tanimoto(fingerprints[medoid], fingerprints[i]), i))
        ranked.append((medoid, tuple(members)))
    return tuple(ranked)


def novelty_loop(fingerprints, references):
    """Novelty oracle: the largest scalar tanimoto against any reference."""
    return tuple(max(tanimoto(fp, ref) for ref in references) for fp in fingerprints)


def node_value_loop(features: np.ndarray, models, weights) -> float:
    """Node value oracle: V(N) = sum_k w_k * Z_k(features), one single-row
    forward pass per model, accumulated in model order."""
    total = 0.0
    for model, weight in zip(models, weights):
        total += weight * float(forward_batch(model, features[np.newaxis, :])[0])
    return total


def graphs_isomorphic(g1: MolecularGraph, g2: MolecularGraph) -> bool:
    """Exact isomorphism check by backtracking over candidate assignments.

    Atoms match on (element, aromatic flag, formal charge, total hydrogen
    count); bonds must agree in order. Exponential worst case, fine for
    test-sized molecules.
    """
    if len(g1) != len(g2):
        return False

    def profile(g: MolecularGraph, i: int):
        a = g.atoms[i]
        return (a.element, a.aromatic, a.formal_charge, g.total_h(i), g.degree(i))

    if sorted(profile(g1, i) for i in range(len(g1))) != sorted(
        profile(g2, i) for i in range(len(g2))
    ):
        return False

    n = len(g1)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    order = sorted(range(n), key=lambda i: -g1.degree(i))

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if j in used or profile(g1, i) != profile(g2, j):
                continue
            ok = True
            for nbr, bond in g1.neighbors(i):
                if nbr in mapping:
                    other = g2.bond_between(j, mapping[nbr])
                    if other is None or other.order is not bond.order:
                        ok = False
                        break
            if not ok:
                continue
            mapping[i] = j
            used.add(j)
            if extend(pos + 1):
                return True
            del mapping[i]
            used.remove(j)
        return False

    return extend(0)


def all_injections_matching(predicate_ok, query_edges, n_query: int, graph: MolecularGraph):
    """Brute-force subgraph monomorphism for tiny targets.

    Enumerates every injective mapping of query nodes onto graph atoms via
    itertools.permutations and keeps those where all node predicates and
    query edges are satisfied.

    Args:
        predicate_ok: callable (query_node, atom_index) -> bool.
        query_edges: iterable of (qa, qb, edge_ok) with edge_ok a callable
            taking a Bond.
        n_query: number of query nodes.
        graph: target molecule.

    Returns:
        Sorted list of tuples, entry k giving the atom for query node k.
    """
    atoms = range(len(graph))
    results = []
    for combo in itertools.permutations(atoms, n_query):
        if not all(predicate_ok(q, combo[q]) for q in range(n_query)):
            continue
        good = True
        for qa, qb, edge_ok in query_edges:
            bond = graph.bond_between(combo[qa], combo[qb])
            if bond is None or not edge_ok(bond):
                good = False
                break
        if good:
            results.append(tuple(combo))
    return sorted(results)
