"""Circular substructure fingerprints and solvent-aware feature vectors.

The fingerprint is a 2,048-bit Morgan-style bit vector, radius 2. Bit
positions come from a fixed 64-bit non-cryptographic hash with a pinned
seed, so fingerprints are bit-exact across platforms and runs. They do
not reproduce any other toolkit's bit positions and are not meant to.

A model input is the fingerprint followed by the four solvent descriptors
(SP, SdP, SA, SB), 2,052 features in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluorgen.molgraph import ATOMIC_NUMBER, BondOrder, MolecularGraph

FP_BITS = 2048
FP_RADIUS = 2
SOLVENT_DIM = 4
FEATURE_DIM = FP_BITS + SOLVENT_DIM

_MASK64 = (1 << 64) - 1
_HASH_SEED = 0x52FD1E9A84C2B0F7

_BOND_CODE = {
    BondOrder.SINGLE: 1,
    BondOrder.DOUBLE: 2,
    BondOrder.TRIPLE: 3,
    BondOrder.AROMATIC: 4,
}


def _mix64(x: int) -> int:
    # splitmix64 finalizer; the whole pipeline stays in unsigned 64-bit space.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stable_hash(values: tuple[int, ...], seed: int = _HASH_SEED) -> int:
    """Order-sensitive 64-bit hash of an integer tuple. Deterministic
    everywhere: no dependence on PYTHONHASHSEED, platform, or word size."""
    h = seed
    for v in values:
        h = _mix64(h ^ (v & _MASK64))
    return h


@dataclass(frozen=True)
class Fingerprint:
    """Folded bit vector held as one big integer (bit k = feature k)."""

    bits: int
    nbits: int = FP_BITS

    def count(self) -> int:
        return self.bits.bit_count()

    def to_array(self) -> np.ndarray:
        """Bits as a float 0/1 vector, bit k at index k."""
        packed = np.frombuffer(self.bits.to_bytes((self.nbits + 7) // 8, "little"), np.uint8)
        return np.unpackbits(packed, count=self.nbits, bitorder="little").astype(np.float64)


def morgan_fingerprint(
    graph: MolecularGraph, radius: int = FP_RADIUS, nbits: int = FP_BITS
) -> Fingerprint:
    """Hash circular atom environments of radius 0..radius into a bit vector.

    Radius-0 invariants cover (element, degree, charge, hydrogen count,
    aromaticity). Each round rehashes an atom's previous invariant with the
    sorted (bond order, neighbor invariant) pairs. Environments covering an
    already-seen bond set are emitted once per molecule; the survivor of a
    within-round collision is the smallest hash, which keeps the result
    independent of atom input order.
    """
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

    for r in range(1, radius + 1):
        new_inv = list(inv)
        candidates: dict[frozenset[int], int] = {}
        new_env = list(env_bonds)
        new_frontier = list(frontier)
        for i in range(n):
            pairs = []
            for j, bond in graph.neighbors(i):
                pairs.append((_BOND_CODE[bond.order], inv[j]))
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
        bits |= 1 << (h % nbits)
    return Fingerprint(bits=bits, nbits=nbits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """Tanimoto similarity of two bit vectors; 1.0 when both are empty."""
    if a.nbits != b.nbits:
        raise ValueError("fingerprint lengths differ")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


def pack(fingerprints) -> np.ndarray:
    """Fingerprints as an (n, ceil(nbits / 64)) array of little-endian
    uint64 words, bit k in bit k % 64 of word k // 64. An empty input
    gives (0, FP_BITS / 64)."""
    fingerprints = list(fingerprints)
    lengths = {fp.nbits for fp in fingerprints}
    if len(lengths) > 1:
        raise ValueError("fingerprint lengths differ")
    words = ((lengths.pop() if lengths else FP_BITS) + 63) // 64
    raw = b"".join(fp.bits.to_bytes(8 * words, "little") for fp in fingerprints)
    return np.frombuffer(raw, dtype="<u8").reshape(len(fingerprints), words)


def tanimoto_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tanimoto similarity of every packed row of a against every packed
    row of b, as a (len(a), len(b)) matrix; 1.0 where both rows are empty.

    Works on 8 rows of a at a time, which keeps the temporaries small.
    Intersection and union are exact popcounts, so each value is the same
    division as tanimoto() makes.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError("fingerprint lengths differ")
    counts_a = np.bitwise_count(a).sum(axis=1)
    counts_b = np.bitwise_count(b).sum(axis=1)
    out = np.ones((len(a), len(b)))
    block = 8
    for start in range(0, len(a), block):
        stop = start + block
        inter = np.bitwise_count(a[start:stop, None, :] & b).sum(axis=2)
        union = counts_a[start:stop, None] + counts_b - inter
        np.divide(inter, union, out=out[start:stop], where=union != 0)
    return out


@dataclass(frozen=True)
class SolventFeatures:
    """Catalan solvatochromic descriptors of the measurement solvent."""

    sp: float
    sdp: float
    sa: float
    sb: float

    def __post_init__(self):
        for name in ("sp", "sdp", "sa", "sb"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"solvent feature {name} must be finite, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.sp, self.sdp, self.sa, self.sb)


# Catalan descriptors for water, the solvent generation scores in by default
WATER = SolventFeatures(sp=0.681, sdp=0.997, sa=1.062, sb=0.025)


def build_feature_vector(fingerprint: Fingerprint, solvent: SolventFeatures) -> np.ndarray:
    """Concatenate fingerprint bits and solvent descriptors, in that order."""
    if fingerprint.nbits != FP_BITS:
        raise ValueError(f"expected {FP_BITS}-bit fingerprint, got {fingerprint.nbits}")
    vec = np.empty(FEATURE_DIM, dtype=np.float64)
    vec[:FP_BITS] = fingerprint.to_array()
    vec[FP_BITS:] = solvent.as_tuple()
    return vec


def feature_matrix(
    fingerprints: list[Fingerprint], solvents: list[SolventFeatures]
) -> np.ndarray:
    """Stack feature vectors row-wise into an (n, 2052) matrix."""
    if len(fingerprints) != len(solvents):
        raise ValueError("fingerprint and solvent counts differ")
    out = np.empty((len(fingerprints), FEATURE_DIM), dtype=np.float64)
    for row, (fp, sol) in enumerate(zip(fingerprints, solvents)):
        out[row, :FP_BITS] = fp.to_array()
        out[row, FP_BITS:] = sol.as_tuple()
    return out
