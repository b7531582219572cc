"""Independent reference implementations used to cross-check the library.

Everything in here is deliberately written with a different algorithmic
approach than the package code: union-find instead of DFS, exhaustive
injection enumeration instead of backtracking, finite differences instead
of backprop. Slow is fine; these only run in tests.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import random
from dataclasses import replace

import numpy as np
from scipy.sparse import csc_array, csr_array

from fluorgen.filters import ClusterAssignment, distance_matrix
from fluorgen.fingerprints import (
    _HASH_SEED,
    FEATURE_DIM,
    FP_BITS,
    FP_RADIUS,
    FP_WORDS,
    SOLVENT_DIM,
    Fingerprint,
    feature_matrix,
    morgan_fingerprint,
    on_bits,
    pack,
    tanimoto,
)
from fluorgen.molgraph import (
    ATOMIC_NUMBER,
    Bond,
    BondOrder,
    Hybridization,
    MolecularGraph,
    MoleculeError,
)
from fluorgen.scorers import (
    Head,
    MlpModel,
    ScorerError,
    SparseRows,
    TrainResult,
    ScorerKind,
    _normalize,
    as_sparse_rows,
    forward_batch,
    mae,
    mlp_train,
    roc_auc,
    score_property,
)
from fluorgen.smiles import (
    _atom_token,
    _bond_symbol,
    connected_components,
    write_canonical_smiles,
)


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
    """Union-find oracle for the largest sp2-connected cluster, on the
    Atom and Bond objects. The states the atoms carry are read when every
    atom has one; otherwise an atom is sp2 when it is aromatic or has one
    double bond and no triple bond, counted over its Bond objects."""
    if all(atom.hybridization is not None for atom in graph.atoms):
        sp2 = [atom.hybridization is Hybridization.SP2 for atom in graph.atoms]
    else:
        doubles = collections.Counter()
        triples = collections.Counter()
        for bond in graph.bonds:
            if bond.order is BondOrder.DOUBLE:
                doubles.update((bond.a1, bond.a2))
            elif bond.order is BondOrder.TRIPLE:
                triples.update((bond.a1, bond.a2))
        sp2 = [
            atom.aromatic or (doubles[atom.index] == 1 and triples[atom.index] == 0)
            for atom in graph.atoms
        ]
    uf = UnionFind(len(graph))
    for bond in graph.bonds:
        if sp2[bond.a1] and sp2[bond.a2]:
            uf.union(bond.a1, bond.a2)
    best = 0
    for i in range(len(graph)):
        if sp2[i]:
            best = max(best, uf.size[uf.find(i)])
    return best


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer; the whole pipeline stays in unsigned 64-bit space.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stable_hash(values: tuple[int, ...], seed: int = _HASH_SEED) -> int:
    """Order-sensitive 64-bit hash of an integer tuple, one Python-integer
    splitmix64 step per value: the pinned hash the fingerprint kernel
    vectorizes."""
    h = seed
    for v in values:
        h = _mix64(h ^ (v & _MASK64))
    return h


def morgan_fingerprint_loop(graph: MolecularGraph) -> Fingerprint:
    """Morgan fingerprint oracle: one atom at a time, environments held as
    frozensets of bond indices grown from an atom frontier, and a per-round
    dict that keeps the smallest hash per bond set."""
    n = len(graph)
    inv = []
    for i in range(n):
        atom = graph.atoms[i]
        inv.append(
            stable_hash(
                (
                    1,
                    ATOMIC_NUMBER[atom.element],
                    graph.degree(i),
                    atom.formal_charge,
                    graph.total_h(i),
                    int(atom.aromatic),
                )
            )
        )
    emitted: set[int] = set(inv)

    bond_index = {}
    for b_idx, bond in enumerate(graph.bonds):
        bond_index.setdefault(bond.a1, []).append((bond.a2, b_idx, bond))
        bond_index.setdefault(bond.a2, []).append((bond.a1, b_idx, bond))

    # env_bonds[i]: indices of bonds inside atom i's current environment.
    env_bonds: list[frozenset[int]] = [frozenset() for _ in range(n)]
    frontier: list[set[int]] = [{i} for i in range(n)]  # atoms within current radius
    seen_sets: set[frozenset[int]] = {frozenset()}

    for r in range(1, FP_RADIUS + 1):
        new_inv = list(inv)
        candidates: dict[frozenset[int], int] = {}
        new_env = list(env_bonds)
        new_frontier = list(frontier)
        for i in range(n):
            pairs = []
            for j, bond in graph.neighbors(i):
                pairs.append((bond.order.value, inv[j]))
            if not pairs:
                continue
            pairs.sort()
            flat = [2, r, inv[i]]
            for code, nbr_inv in pairs:
                flat.extend((code, nbr_inv))
            new_inv[i] = stable_hash(tuple(flat))
            grown_atoms = set(frontier[i])
            grown_bonds = set(env_bonds[i])
            for atom_in in frontier[i]:
                for _, b_idx, _ in bond_index.get(atom_in, []):
                    grown_bonds.add(b_idx)
            for b_idx in grown_bonds:
                bond = graph.bonds[b_idx]
                grown_atoms.add(bond.a1)
                grown_atoms.add(bond.a2)
            new_env[i] = frozenset(grown_bonds)
            new_frontier[i] = grown_atoms
            key = new_env[i]
            if key in candidates:
                candidates[key] = min(candidates[key], new_inv[i])
            else:
                candidates[key] = new_inv[i]
        for key in sorted(candidates, key=lambda k: candidates[k]):
            if key not in seen_sets:
                seen_sets.add(key)
                emitted.add(candidates[key])
        inv = new_inv
        env_bonds = new_env
        frontier = new_frontier

    bits = 0
    for h in emitted:
        bits |= 1 << (h % FP_BITS)
    return Fingerprint(bits)


def bits_to_array_loop(bits: int) -> np.ndarray:
    """Fingerprint decoder oracle: shift the integer right one bit at a
    time and set index k when bit k is on."""
    out = np.zeros(FP_BITS, dtype=np.float64)
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


def cluster_tanimoto_matrix(fingerprints, k: int, seed: int, max_iterations: int = 100):
    """K-medoids oracle on the full n x n distance matrix: the clustering
    as it ran before distances were computed on demand. Farthest-point
    seeds take a fresh minimum over every seed's column each round."""
    distances = distance_matrix(pack(fingerprints))
    n = len(fingerprints)
    rng = random.Random(seed)
    medoids = [rng.randrange(n)]
    while len(medoids) < k:
        nearest = distances[:, medoids].min(axis=1)
        nearest[medoids] = -1.0
        medoids.append(int(np.argmax(nearest)))
    labels = None
    trace = []
    for _ in range(max_iterations):
        new_labels = np.argmin(distances[:, medoids], axis=1)
        for cluster, medoid in enumerate(medoids):
            new_labels[medoid] = cluster
        trace.append(float(distances[np.arange(n), [medoids[c] for c in new_labels]].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in range(k):
            members = np.flatnonzero(labels == cluster)
            within = distances[np.ix_(members, members)].sum(axis=1)
            medoids[cluster] = int(members[np.argmin(within)])
    return ClusterAssignment(
        k=k,
        labels=tuple(int(c) for c in labels),
        medoids=tuple(medoids),
        objective_trace=tuple(trace),
    )


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


def run_filters_loop(smiles_list, scorers, solvent, thresholds):
    """Surviving SMILES of the four filter stages, every molecule parsed,
    fingerprinted and scored on its own with one-row score_property calls."""
    from fluorgen.molgraph import sp2_network_size
    from fluorgen.smiles import parse_smiles

    survivors = []
    for smiles in smiles_list:
        graph = parse_smiles(smiles)
        if sp2_network_size(graph) < thresholds.sp2_min:
            continue
        fp = morgan_fingerprint(graph)
        scores = [score_property(scorers[kind], graph, fp, solvent)
                  for kind in (ScorerKind.PLQY_PROB, ScorerKind.ABS_NM, ScorerKind.EM_NM)]
        window = (thresholds.window_min_nm, thresholds.window_max_nm)
        if (scores[0] >= thresholds.plqy_min and window[0] <= scores[1] <= window[1]
                and window[0] <= scores[2] <= window[1]):
            survivors.append(smiles)
    return tuple(survivors)


def score_rows_loop(models, words, solvent) -> np.ndarray:
    """score_rows oracle in the sparse kernel's summation order, one row and
    one model at a time. The row's on-bits are read from its words as a
    Python int; the w1 columns at those bits are summed in ascending bit
    order starting from zero, then the normalized solvent term (its four
    products summed in descriptor order) and b1 are added; the ReLU
    outputs times w2 are summed as one vector, b2 is added and the head
    applied."""
    out = np.empty((len(words), len(models)))
    for i, row in enumerate(np.asarray(words, dtype=np.uint64)):
        value = int.from_bytes(row.astype("<u8").tobytes(), "little")
        bits = [k for k in range(FP_BITS) if value >> k & 1]
        for m, model in enumerate(models):
            lead = np.zeros(model.hidden_dim)
            for k in bits:
                lead = lead + model.w1[:, k]
            term = np.zeros(model.hidden_dim)
            for k, x in enumerate(solvent.as_tuple()):
                term = term + (x - model.norm_mean[k]) / model.norm_std[k] * model.w1[:, FP_BITS + k]
            hidden = np.maximum(lead + term + model.b1, 0.0)
            logit = (hidden * model.w2).sum() + model.b2
            out[i, m] = 1.0 / (1.0 + np.exp(-logit)) if model.head is Head.SIGMOID else logit
    return out


def reward_loop(graph, fingerprint, scorers, weights, solvent, sparse_order=False):
    """Reward oracle: the four properties scored with one-row score_property
    calls, then binarized, clamped and weighted as generator.reward does.
    With sparse_order the three model scores come from score_rows_loop
    instead, in the order score_rows sums."""
    kinds = (ScorerKind.PLQY_PROB, ScorerKind.ABS_NM, ScorerKind.EM_NM, ScorerKind.SP2_SIZE)
    plqy, absorption, emission, sp2 = (
        score_property(scorers[kind], graph, fingerprint, solvent) for kind in kinds
    )
    if sparse_order:
        models = [scorers[kind].model for kind in kinds[:3]]
        plqy, absorption, emission = score_rows_loop(models, pack([fingerprint]), solvent)[0]
    scores = (
        plqy,
        1.0 if 420.0 <= absorption <= 750.0 else 0.0,
        1.0 if 420.0 <= emission <= 750.0 else 0.0,
        min(sp2 / 12, 1.0),
    )
    combined = float(sum(w * m for w, m in zip(weights, scores)))
    return scores, combined


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


def match_pattern_per_call(query, graph: MolecularGraph, limit: int | None = None):
    """Pattern matcher that rebuilds its search plan on every call.

    The query's adjacency lists and its BFS visit order from node 0 are
    derived from ``query.bonds`` here instead of read from ``query.plan``;
    the backtracking is the same, so results and the early stop at
    ``limit`` must agree with patterns.match_pattern exactly.
    """
    n_query = len(query.atoms)
    adj = {k: [] for k in range(n_query)}
    for bond in query.bonds:
        adj[bond.a1].append((bond.a2, bond))
        adj[bond.a2].append((bond.a1, bond))
    order = [0]
    queue = [0]
    while queue:
        node = queue.pop(0)
        for nbr, _ in adj[node]:
            if nbr not in order:
                order.append(nbr)
                queue.append(nbr)

    results = []
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int) -> bool:
        if pos == n_query:
            results.append(tuple(mapping[k] for k in range(n_query)))
            return limit is not None and len(results) >= limit
        q = order[pos]
        mapped_nbrs = [(nbr, bond) for nbr, bond in adj[q] if nbr in mapping]
        if mapped_nbrs:
            candidates = sorted(j for j, _ in graph.neighbors(mapping[mapped_nbrs[0][0]]))
        else:
            candidates = range(len(graph))
        for j in candidates:
            if j in used or not query.atoms[q].matches(graph, j):
                continue
            if all(
                (target := graph.bond_between(j, mapping[nbr])) is not None
                and bond.matches(target.order)
                for nbr, bond in mapped_nbrs
            ):
                mapping[q] = j
                used.add(j)
                if backtrack(pos + 1):
                    return True
                del mapping[q]
                used.remove(j)
        return False

    backtrack(0)
    return sorted(results)


def compatibility_table(library, templates) -> dict[tuple[str, int], tuple[str, ...]]:
    """(template id, role) -> ids of the blocks the role matches, in library
    order: every role tried against every block with the per-call matcher."""
    return {
        (template.id, role): tuple(
            block.id
            for block in library.blocks
            if match_pattern_per_call(pattern, block.graph, limit=1)
        )
        for template in templates
        for role, pattern in enumerate(template.roles)
    }


def apply_reaction_every_combination(template, reactants):
    """Reaction application that canonicalizes every valid combination.

    Each match combination (from the per-call matcher) is edited on the
    disjoint union of the reactants; every valid product is written to
    canonical SMILES at once and kept under its string, first combination
    first. Returns (products, smiles, skipped) with the strings sorted,
    which reactions.apply_reaction must reproduce while writing strings
    only where it needs them.
    """
    all_matches = [
        match_pattern_per_call(role, mol) for role, mol in zip(template.roles, reactants)
    ]
    offsets = list(itertools.accumulate([0] + [len(mol) for mol in reactants[:-1]]))
    base_atoms = [
        replace(atom, index=atom.index + offset, hybridization=None)
        for mol, offset in zip(reactants, offsets)
        for atom in mol.atoms
    ]
    base_bonds = {
        (min(b.a1, b.a2) + offset, max(b.a1, b.a2) + offset): b.order
        for mol, offset in zip(reactants, offsets)
        for b in mol.bonds
    }
    products: dict[str, MolecularGraph] = {}
    skipped = 0
    for combo in itertools.product(*all_matches):
        atoms = list(base_atoms)
        bonds: dict[tuple[int, int], BondOrder] = dict(base_bonds)
        deleted: set[int] = set()
        ok = True
        for edit in template.edits:
            u = offsets[edit.a[0]] + combo[edit.a[0]][edit.a[1]]
            v = None if edit.b is None else offsets[edit.b[0]] + combo[edit.b[0]][edit.b[1]]
            key = None if v is None else (min(u, v), max(u, v))
            if u in deleted or v in deleted:
                ok = False
            elif edit.kind == "add_bond":
                ok = u != v and key not in bonds
                bonds[key] = edit.order
            elif edit.kind == "remove_bond":
                ok = bonds.pop(key, None) is not None
            elif edit.kind == "delete_atom":
                deleted.add(u)
            elif edit.kind == "set_charge":
                atoms[u] = replace(atoms[u], formal_charge=edit.charge)
            elif edit.kind == "set_aromatic":
                atoms[u] = replace(atoms[u], aromatic=edit.aromatic)
            else:
                raise ValueError(f"unknown edit kind {edit.kind!r}")
            if not ok:
                break
        kept = [idx for idx in range(len(atoms)) if idx not in deleted]
        if not ok or not kept:
            skipped += 1
            continue
        remap = {idx: pos for pos, idx in enumerate(kept)}
        try:
            product = MolecularGraph(
                tuple(replace(atoms[idx], index=remap[idx]) for idx in kept),
                tuple(
                    Bond(remap[a], remap[b], order)
                    for (a, b), order in sorted(bonds.items())
                    if a not in deleted and b not in deleted
                ),
            )
        except MoleculeError:
            skipped += 1
            continue
        products.setdefault(write_canonical_smiles(product), product)
    keys = tuple(sorted(products))
    return tuple(products[key] for key in keys), keys, skipped


def canonical_smiles_exhaustive(graph: MolecularGraph) -> str:
    """Canonical SMILES oracle: the individualization-refinement tree
    explored in full, one emitted string per leaf, no pruning and no leaf
    budget; the smallest string wins. Reads the graph through its public
    accessors at every step and keys atoms by graph index in dicts."""
    if len(graph) == 0:
        raise ValueError("cannot write SMILES for an empty graph")
    pieces = [_fragment_exhaustive(graph, comp) for comp in connected_components(graph)]
    return ".".join(sorted(pieces))


def _dense_ranks(keys: dict[int, tuple]) -> dict[int, int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys.values())))}
    return {i: order[key] for i, key in keys.items()}


def _refine(graph: MolecularGraph, ranks: dict[int, int]) -> dict[int, int]:
    while True:
        n_classes = len(set(ranks.values()))
        keys = {}
        for i in ranks:
            nbr_part = sorted((bond.order.value, ranks[j]) for j, bond in graph.neighbors(i))
            keys[i] = (ranks[i], tuple(nbr_part))
        new_ranks = _dense_ranks(keys)
        if len(set(new_ranks.values())) == n_classes:
            return new_ranks
        ranks = new_ranks


def _fragment_exhaustive(graph: MolecularGraph, subset: list[int]) -> str:
    keys = {}
    for i in subset:
        atom = graph.atoms[i]
        keys[i] = (
            ATOMIC_NUMBER[atom.element],
            atom.formal_charge,
            graph.degree(i),
            graph.total_h(i),
            atom.aromatic,
        )
    best: list[str | None] = [None]

    def explore(current: dict[int, int]) -> None:
        by_rank: dict[int, list[int]] = {}
        for i, r in current.items():
            by_rank.setdefault(r, []).append(i)
        tied = sorted(r for r, members in by_rank.items() if len(members) > 1)
        if not tied:
            s = _emit_exhaustive(graph, current)
            if best[0] is None or s < best[0]:
                best[0] = s
            return
        for chosen in sorted(by_rank[tied[0]]):
            individualized = {i: (r, 0 if i == chosen else 1) for i, r in current.items()}
            explore(_refine(graph, _dense_ranks(individualized)))

    explore(_refine(graph, _dense_ranks(keys)))
    assert best[0] is not None
    return best[0]


def _emit_exhaustive(graph: MolecularGraph, ranks: dict[int, int]) -> str:
    start = min(ranks, key=lambda i: ranks[i])
    parent: dict[int, int | None] = {start: None}
    children: dict[int, list[int]] = {i: [] for i in ranks}
    visit_order: dict[int, int] = {}
    back_bonds = []
    back_seen: set[int] = set()
    counter = 0
    stack = [start]
    claimed = {start}
    while stack:
        node = stack.pop()
        visit_order[node] = counter
        counter += 1
        nbrs = sorted(graph.neighbors(node), key=lambda t: ranks[t[0]])
        fresh = []
        for j, bond in nbrs:
            if j == parent[node]:
                continue
            if j in claimed:
                if id(bond) not in back_seen:
                    back_seen.add(id(bond))
                    back_bonds.append(bond)
            else:
                claimed.add(j)
                parent[j] = node
                children[node].append(j)
                fresh.append(j)
        stack.extend(reversed(fresh))

    ring_at: dict[int, list] = {i: [] for i in ranks}
    for bond in back_bonds:
        ring_at[bond.a1].append(bond)
        ring_at[bond.a2].append(bond)
    for i in ring_at:
        ring_at[i].sort(key=lambda b: visit_order[b.a2 if b.a1 == i else b.a1])

    free_digits = list(range(1, 100))
    heapq.heapify(free_digits)
    open_digit: dict[int, int] = {}

    def ring_tokens(node: int) -> str:
        out = []
        for bond in ring_at[node]:
            bid = id(bond)
            if bid in open_digit:
                digit = open_digit.pop(bid)
                out.append(str(digit) if digit <= 9 else f"%{digit:02d}")
                heapq.heappush(free_digits, digit)
            else:
                digit = heapq.heappop(free_digits)
                open_digit[bid] = digit
                out.append(bond_symbol(bond) + (str(digit) if digit <= 9 else f"%{digit:02d}"))
        return "".join(out)

    def bond_symbol(bond) -> str:
        aromatic_ends = graph.atoms[bond.a1].aromatic and graph.atoms[bond.a2].aromatic
        return _bond_symbol(bond.order.value, aromatic_ends)

    def build(node: int) -> str:
        parts = [_atom_token(graph, node), ring_tokens(node)]
        kids = children[node]
        for pos, child in enumerate(kids):
            bond = graph.bond_between(node, child)
            sub = bond_symbol(bond) + build(child)
            parts.append("(" + sub + ")" if pos < len(kids) - 1 else sub)
        return "".join(parts)

    return build(start)


# ---------------------------------------------------------------------------
# dense MLP training: the referee for the sparse first-layer kernel


def loss_and_grads_dense(model: MlpModel, features: np.ndarray, labels: np.ndarray):
    """Every first-layer product over the full dense (n, input_dim) rows;
    the w1 gradient is a dense (hidden, input_dim) matrix."""
    x = _normalize(model, features)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    z1 = x @ model.w1.T + model.b1
    hidden = np.maximum(z1, 0.0)
    z2 = hidden @ model.w2 + model.b2
    if model.head is Head.SIGMOID:
        loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
        dz2 = (1.0 / (1.0 + np.exp(-z2)) - y) / n
    else:
        diff = z2 - y
        loss = float(np.mean(diff * diff))
        dz2 = 2.0 * diff / n
    grad_w2 = hidden.T @ dz2
    grad_b2 = float(np.sum(dz2))
    d_hidden = np.outer(dz2, model.w2)
    dz1 = d_hidden * (z1 > 0.0)
    grad_w1 = dz1.T @ x
    grad_b1 = dz1.sum(axis=0)
    return loss, {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


def sparse_rows_to_dense(rows) -> np.ndarray:
    """The dense (n, width) matrix a SparseRows stands for, row by row."""
    out = np.zeros((len(rows), rows.width))
    for i in range(len(rows)):
        span = slice(rows.indptr[i], rows.indptr[i + 1])
        out[i, rows.indices[span]] = rows.data[span]
        out[i, -len(rows.solvent[i]):] = rows.solvent[i]
    return out


class ReplayBufferDeque:
    """generator.ReplayBuffer referee: a FIFO deque of (packed row copy,
    targets tuple) items, the whole buffer stacked again on each read."""

    def __init__(self, capacity: int):
        self._items = collections.deque(maxlen=capacity)

    def append(self, row, targets):
        self._items.append((np.array(row, dtype=np.uint64), tuple(targets)))

    def __len__(self) -> int:
        return len(self._items)

    def rows(self, solvent):
        words, targets = zip(*self._items) if self._items else ((), ())
        rows = SparseRows.from_words(
            np.array(words, dtype=np.uint64).reshape(-1, FP_WORDS),
            np.array([solvent.as_tuple()] * len(words), dtype=np.float64).reshape(-1, SOLVENT_DIM),
        )
        # one target per reward property, of which there are four
        return rows, np.array(targets, dtype=np.float64).reshape(-1, 4)


def replay_rows_int16(words, solvents, targets):
    """ReplayBuffer.rows referee: the buffer's rows assembled as the buffer
    once kept them, each node as the int16 on-bit columns of its packed
    (FP_WORDS,) row, joined into CSR arrays by hand. words, solvents
    (SolventFeatures) and targets are per node, oldest first."""
    bits = [on_bits(row).astype(np.int16) for row in words]
    indptr = np.zeros(len(bits) + 1, dtype=np.int32)
    np.cumsum([len(b) for b in bits], out=indptr[1:])
    indices = np.concatenate(bits, dtype=np.int32) if bits else np.empty(0, np.int32)
    solvent = np.array([s.as_tuple() for s in solvents], dtype=np.float64)
    rows = SparseRows(
        indptr, indices, np.ones(len(indices)), solvent.reshape(-1, SOLVENT_DIM), FEATURE_DIM
    )
    # one target per reward property, of which there are four
    return rows, np.array(targets, dtype=np.float64).reshape(-1, 4)


def dense_w1_gradient(grads, model: MlpModel) -> np.ndarray:
    """The kernel's (columns, rows) w1 gradient as a (hidden, input) matrix."""
    columns, rows = grads["w1"]
    out = np.zeros_like(model.w1)
    out[:, columns] = rows.T
    return out


def mlp_train_dense(features, labels, head, config, val_features=None, val_labels=None):
    """Mini-batch SGD with momentum on dense rows, every update a full
    (hidden, input) matrix; same draws, batch order and best-epoch rule
    as scorers.mlp_train."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if val_features is None:
        val_features, val_labels = features, labels
    val_labels = np.asarray(val_labels, dtype=np.float64)
    target_mean, target_std = 0.0, 1.0
    if head is Head.LINEAR:
        target_mean = float(labels.mean())
        spread = float(labels.std())
        target_std = spread if spread > 0.0 else 1.0
        labels = (labels - target_mean) / target_std
        val_labels = (val_labels - target_mean) / target_std
    rng = np.random.default_rng(config.seed)
    solvent_cols = features[:, -4:]
    std = solvent_cols.std(axis=0)
    model = MlpModel(
        w1=rng.normal(0.0, config.weight_init_scale, (config.hidden_dim, features.shape[1])),
        b1=np.zeros(config.hidden_dim),
        w2=rng.normal(0.0, config.weight_init_scale, config.hidden_dim),
        b2=0.0,
        head=head,
        norm_mean=solvent_cols.mean(axis=0),
        norm_std=np.where(std > 0.0, std, 1.0),
        seed=config.seed,
    )
    velocity = {"w1": np.zeros_like(model.w1), "b1": np.zeros_like(model.b1),
                "w2": np.zeros_like(model.w2), "b2": 0.0}
    best = (model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2)
    best_loss, best_epoch, stale = float("inf"), 0, 0
    train_losses, val_losses = [], []
    n = len(features)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = loss_and_grads_dense(model, features[batch], labels[batch])
            if not np.isfinite(loss):
                raise ScorerError(f"loss diverged at epoch {epoch}")
            epoch_loss += loss * len(batch)
            for key in velocity:
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * grads[key]
            model.w1 += velocity["w1"]
            model.b1 += velocity["b1"]
            model.w2 += velocity["w2"]
            model.b2 += velocity["b2"]
        train_losses.append(epoch_loss / n * target_std**2)
        val_loss, _ = loss_and_grads_dense(model, val_features, val_labels)
        val_losses.append(val_loss * target_std**2)
        if val_loss < best_loss:
            best_loss = val_loss
            best = (model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    model.w1, model.b1, model.w2, model.b2 = best
    if head is Head.LINEAR:
        model.w2 = model.w2 * target_std
        model.b2 = model.b2 * target_std + target_mean
    return TrainResult(model, tuple(train_losses), tuple(val_losses), best_epoch)


def train_value_model_dense(model, features, targets, config, rng) -> bool:
    """Plain SGD on dense buffer rows, kept only when the full-buffer loss
    does not rise; returns whether the update was kept."""
    before, _ = loss_and_grads_dense(model, features, targets)
    saved = (model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2)
    n = len(features)
    for _ in range(config.value_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.value_batch):
            batch = order[start : start + config.value_batch]
            _, grads = loss_and_grads_dense(model, features[batch], targets[batch])
            model.w1 -= config.value_lr * grads["w1"]
            model.b1 -= config.value_lr * grads["b1"]
            model.w2 -= config.value_lr * grads["w2"]
            model.b2 -= config.value_lr * grads["b2"]
    after, _ = loss_and_grads_dense(model, features, targets)
    if not np.isfinite(after) or after > before:
        model.w1, model.b1, model.w2, model.b2 = saved
        return False
    return True


# ---------------------------------------------------------------------------
# one net at a time: the referees for the stacked trainer. These are the
# sparse per-net loops the stacked trainer replaced; every result of
# scorers.train_nets and scorers.update_nets must equal theirs byte for byte.


def loss_and_grads_one_net(model: MlpModel, rows, labels, grads: bool = True):
    """The per-net sparse kernel: the batch's touched columns gathered from
    ``model.w1.T``, one CSR product forward and one CSC product back."""
    if rows.width != model.input_dim:
        raise ScorerError(f"expected {model.input_dim}-wide rows, got {rows.width}")
    y = np.asarray(labels, dtype=np.float64)
    n = len(rows)
    w1t = model.w1.T
    n_lead = rows.width - SOLVENT_DIM
    if grads:
        touched = np.zeros(n_lead, dtype=bool)
        touched[rows.indices] = True
        columns = np.flatnonzero(touched)
        indices = (np.cumsum(touched, dtype=np.int32) - 1)[rows.indices]
        weights = w1t[columns]
    else:
        indices, weights = rows.indices, w1t[:n_lead]
    lead = csr_array((rows.data, indices, rows.indptr), shape=(n, len(weights)))
    solvent = (rows.solvent - model.norm_mean) / model.norm_std
    z1 = lead @ weights + solvent @ w1t[n_lead:] + model.b1
    hidden = np.maximum(z1, 0.0)
    z2 = hidden @ model.w2 + model.b2
    if model.head is Head.SIGMOID:
        loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
        dz2 = (1.0 / (1.0 + np.exp(-z2)) - y) / n
    else:
        diff = z2 - y
        loss = float(np.mean(diff * diff))
        dz2 = 2.0 * diff / n
    if not grads:
        return loss, None
    grad_w2 = hidden.T @ dz2
    grad_b2 = float(np.sum(dz2))
    d_hidden = np.outer(dz2, model.w2)
    dz1 = d_hidden * (z1 > 0.0)
    lead_t = csc_array((rows.data, indices, rows.indptr), shape=(len(columns), n))
    grad_w1 = (
        np.concatenate([columns, np.arange(n_lead, rows.width)]),
        np.concatenate([lead_t @ dz1, solvent.T @ dz1]),
    )
    grad_b1 = dz1.sum(axis=0)
    return loss, {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


def mlp_train_one_net(features, labels, head, config, val_features=None, val_labels=None):
    """Mini-batch SGD with momentum for one net: a full-width (input,
    hidden) working copy of w1, velocity kept for its live columns and
    written back through ``w1t[live] += v``, early stopping on the
    validation loss, the best epoch's weights returned."""
    rows = as_sparse_rows(features)
    labels = np.asarray(labels, dtype=np.float64)
    if val_features is None:
        val_rows, val_labels = rows, labels
    else:
        val_rows = as_sparse_rows(val_features)
    val_labels = np.asarray(val_labels, dtype=np.float64)
    target_mean, target_std = 0.0, 1.0
    if head is Head.LINEAR:
        target_mean = float(labels.mean())
        spread = float(labels.std())
        target_std = spread if spread > 0.0 else 1.0
        labels = (labels - target_mean) / target_std
        val_labels = (val_labels - target_mean) / target_std
    rng = np.random.default_rng(config.seed)
    std = rows.solvent.std(axis=0)
    w1t = rng.normal(0.0, config.weight_init_scale, (config.hidden_dim, rows.width)).T.copy()
    model = MlpModel(
        w1=w1t.T,
        b1=np.zeros(config.hidden_dim),
        w2=rng.normal(0.0, config.weight_init_scale, config.hidden_dim),
        b2=0.0,
        head=head,
        norm_mean=rows.solvent.mean(axis=0),
        norm_std=np.where(std > 0.0, std, 1.0),
        seed=config.seed,
    )
    solvent_columns = np.arange(rows.width - SOLVENT_DIM, rows.width)
    live = np.concatenate([np.unique(rows.indices), solvent_columns])
    live_slot = np.zeros(rows.width, dtype=np.intp)
    live_slot[live] = np.arange(len(live))
    velocity_w1 = np.zeros((len(live), config.hidden_dim))
    velocity = {"b1": np.zeros_like(model.b1), "w2": np.zeros_like(model.w2), "b2": 0.0}

    def snapshot():
        return (w1t.copy(), model.b1.copy(), model.w2.copy(), model.b2)

    best = snapshot()
    best_loss, best_epoch, stale = float("inf"), 0, 0
    train_losses, val_losses = [], []
    n = len(rows)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_rows, epoch_labels = rows.take(order), labels[order]
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            batch_labels = epoch_labels[start:stop]
            loss, grads = loss_and_grads_one_net(
                model, epoch_rows.slice(start, stop), batch_labels
            )
            if not np.isfinite(loss):
                raise ScorerError(f"loss diverged at epoch {epoch}; lower the learning rate")
            epoch_loss += loss * len(batch_labels)
            columns, grad_rows = grads["w1"]
            velocity_w1 *= config.momentum
            velocity_w1[live_slot[columns]] -= config.learning_rate * grad_rows
            w1t[live] += velocity_w1
            for key in velocity:
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * grads[key]
            model.b1 += velocity["b1"]
            model.w2 += velocity["w2"]
            model.b2 += velocity["b2"]
        train_losses.append(epoch_loss / n * target_std**2)
        val_loss, _ = loss_and_grads_one_net(model, val_rows, val_labels, grads=False)
        if not np.isfinite(val_loss):
            raise ScorerError(f"loss diverged at epoch {epoch}; lower the learning rate")
        val_losses.append(val_loss * target_std**2)
        if val_loss < best_loss:
            best_loss = val_loss
            best = snapshot()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    best_w1t, model.b1, model.w2, model.b2 = best
    model.w1 = np.ascontiguousarray(best_w1t.T)
    if head is Head.LINEAR:
        model.w2 = model.w2 * target_std
        model.b2 = model.b2 * target_std + target_mean
    return TrainResult(model, tuple(train_losses), tuple(val_losses), best_epoch)


def train_value_model_one_net(model, rows, targets, config, rng) -> bool:
    """Plain SGD for one value net on its own full-width working copy of
    w1, its permutations drawn as it goes; the update is kept only when the
    full-buffer loss does not rise. Returns whether it was kept."""
    targets = np.asarray(targets, dtype=np.float64)
    saved = (model.w1, model.b1.copy(), model.w2.copy(), model.b2)
    # a copy even when w1.T is contiguous already (hidden 1), so the saved
    # w1 is never written
    w1t = model.w1.T.copy()
    model.w1 = w1t.T
    before, _ = loss_and_grads_one_net(model, rows, targets, grads=False)
    n = len(rows)
    for _ in range(config.value_epochs):
        order = rng.permutation(n)
        epoch_rows, epoch_targets = rows.take(order), targets[order]
        for start in range(0, n, config.value_batch):
            stop = start + config.value_batch
            _, grads = loss_and_grads_one_net(
                model, epoch_rows.slice(start, stop), epoch_targets[start:stop]
            )
            columns, grad_rows = grads["w1"]
            w1t[columns] -= config.value_lr * grad_rows
            model.b1 -= config.value_lr * grads["b1"]
            model.w2 -= config.value_lr * grads["w2"]
            model.b2 -= config.value_lr * grads["b2"]
    after, _ = loss_and_grads_one_net(model, rows, targets, grads=False)
    if not np.isfinite(after) or after > before:
        model.w1, model.b1, model.w2, model.b2 = saved
        return False
    model.w1 = np.ascontiguousarray(w1t.T)
    return True


def run_cv_dense(dataset, config, folds: int, split_seed: int):
    """run_cv oracle on a dense feature matrix: each molecule fingerprinted
    from its SMILES on its own, the (n, 2052) matrix laid out by
    feature_matrix, training rows made by SparseRows.from_dense and each
    test fold scored by forward_batch on its rows of the matrix. Returns
    (fold metrics, per-fold models)."""
    from fluorgen.dataset import Task, split_cv
    from fluorgen.smiles import parse_smiles

    features = feature_matrix(
        [morgan_fingerprint(parse_smiles(s)) for s in dataset.smiles], dataset.solvents
    )
    rows = SparseRows.from_dense(features)
    head = Head.SIGMOID if dataset.task is Task.PLQY_CLASS else Head.LINEAR
    metrics = []
    models = []
    for split in split_cv(len(dataset), folds=folds, seed=split_seed):
        train, val, test = (np.array(part) for part in (split.train, split.val, split.test))
        model = mlp_train(
            rows.take(train), dataset.labels[train], head, config,
            val_features=rows.take(val), val_labels=dataset.labels[val],
        ).model
        predictions = forward_batch(model, features[test])
        score = roc_auc if head is Head.SIGMOID else mae
        metrics.append(score(predictions, dataset.labels[test]))
        models.append(model)
    return tuple(metrics), tuple(models)
