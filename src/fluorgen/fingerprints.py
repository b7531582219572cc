"""Circular substructure fingerprints and solvent-aware feature vectors.

The fingerprint is a 2,048-bit Morgan-style bit vector, radius 2. Bit
positions come from a fixed 64-bit non-cryptographic hash with a pinned
seed, so fingerprints are bit-exact across platforms and runs. They do
not reproduce any other toolkit's bit positions and are not meant to.

One numpy kernel, morgan_fingerprints, fingerprints a whole list of graphs
at once, from their integer columns (no Atom or Bond object is read); the
hash is splitmix64, whose uint64 array arithmetic wraps exactly as the
pinned scalar hash does.

Width and radius are fixed (FP_BITS, FP_RADIUS); no caller picks others.
The kernel returns packed rows of FP_WORDS uint64 words, the one form
the package works in, from the rollout (a node's row is the OR of its
molecules' rows) to scoring, training, the filter and clustering. unpack
turns words into bit columns and on_bits into on-bit column indices, the
sparse form scoring and training read. feature_rows lays out a dense
model input row, one or many: the decoded bits followed by the four
solvent descriptors (SP, SdP, SA, SB), 2,052 features in all. Fingerprint
(one vector as a Python int) and pack serve the one-molecule entry points.

Tanimoto similarity has two kernels, and the caller picks by its shape: a
set queried many times is a TanimotoIndex, built once, whose queries are
CSR products over the rows' on-bits; a one-off block is tanimoto_matrix,
a popcount sweep over the packed words. Both return the same float64
values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter

import numpy as np
from scipy.sparse import csr_array

from fluorgen.molgraph import MolecularGraph

FP_BITS = 2048
FP_RADIUS = 2
FP_WORDS = FP_BITS // 64
SOLVENT_DIM = 4
FEATURE_DIM = FP_BITS + SOLVENT_DIM

_HASH_SEED = 0x52FD1E9A84C2B0F7

# Molecules per kernel pass. A pass joins the graphs' columns and holds a
# few hundred bytes of numpy temporaries per atom, and the heap keeps them
# after the pass ends, so the chunk bounds what fingerprinting adds to a
# command's peak memory however long the list is. With the columns read
# whole, 32 still runs as fast as 64 or 128 (42 ms for the benchmark's
# 1,500 filter inputs at each); 16 ran 25% slower. 128 left about 1.5 MB
# more in `train`'s peak when graphs were read as objects.
MORGAN_CHUNK = 32

# 0-d arrays: numpy applies them to an array faster than it does scalars.
_SPLITMIX_GAMMA = np.array(0x9E3779B97F4A7C15, dtype=np.uint64)
_SPLITMIX_M1 = np.array(0xBF58476D1CE4E5B9, dtype=np.uint64)
_SPLITMIX_M2 = np.array(0x94D049BB133111EB, dtype=np.uint64)
_SHIFT_30, _SHIFT_27, _SHIFT_31 = (np.array(k, dtype=np.uint64) for k in (30, 27, 31))
_ONE = np.array(1, dtype=np.uint64)
_PAD_CODE = 255  # bond code of an empty neighbor slot; sorts after every BondOrder value


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a 1-d uint64 array; the arithmetic wraps
    modulo 2**64 as the pinned hash does. x is left unchanged."""
    x = x + _SPLITMIX_GAMMA
    x ^= x >> _SHIFT_30
    x *= _SPLITMIX_M1
    x ^= x >> _SHIFT_27
    x *= _SPLITMIX_M2
    x ^= x >> _SHIFT_31
    return x


def _hash_columns(state, columns) -> np.ndarray:
    """Continue the order-sensitive hash h = mix(h ^ v) over one uint64
    column per tuple position, from state (the seed, or a _hash_prefix)."""
    for column in columns:
        state = _mix64_array(state ^ column)
    return state


@functools.cache  # one entry per distinct leading tuple: one per radius
def _hash_prefix(*values: int) -> np.uint64:
    """Hash state after a constant leading run of tuple values."""
    start = np.full(1, _HASH_SEED, dtype=np.uint64)
    return _hash_columns(start, [np.uint64(v) for v in values])[0]


@dataclass(frozen=True)
class Fingerprint:
    """Folded FP_BITS-bit vector held as one big integer (bit k = feature k)."""

    bits: int


def morgan_fingerprint(graph: MolecularGraph) -> Fingerprint:
    """Fingerprint of one graph as a Python int; see morgan_fingerprints."""
    return Fingerprint(int.from_bytes(morgan_fingerprints([graph]).tobytes(), "little"))


def morgan_fingerprints(graphs) -> np.ndarray:
    """Hash circular atom environments of radius 0..FP_RADIUS into one
    FP_BITS-bit vector per graph, returned as an (n, FP_WORDS) array of
    packed rows in input order ((0, FP_WORDS) for no graphs).

    Radius-0 invariants cover (element, degree, charge, hydrogen count,
    aromaticity). Each round rehashes an atom's previous invariant with the
    sorted (bond order, neighbor invariant) pairs; an atom without bonds
    adds nothing past radius 0. Environments covering an already-seen bond
    set are emitted once per molecule; the survivor of a within-round
    collision is the smallest hash, which keeps the result independent of
    atom input order. A graph's fingerprint does not depend on the other
    graphs in the list. graphs may be any iterable; it is read one chunk at
    a time, so a generator that parses on the fly keeps at most
    MORGAN_CHUNK graphs alive. A chunk joins its graphs' columns
    (MolecularGraph.atomic_numbers and the rest) into one array each, so
    no per-atom Python object is built or read.
    """
    pending = iter(graphs)
    blocks = [np.zeros((0, FP_WORDS), dtype="<u8")]
    while chunk := list(islice(pending, MORGAN_CHUNK)):
        blocks.append(_morgan_chunk(chunk))
    return np.concatenate(blocks)


def _morgan_chunk(graphs: list[MolecularGraph]) -> np.ndarray:
    # The graphs' columns are concatenated; atom_mol says which graph an
    # atom came from, and each bond keeps its index in its graph.
    n_mols = len(graphs)
    n_atoms = np.fromiter(map(len, graphs), np.intp, n_mols)
    n_bonds = np.fromiter((len(g.bond_orders) for g in graphs), np.intp, n_mols)
    n = int(n_atoms.sum())
    n_edges = int(n_bonds.sum())

    def joined(column: str, dtype, count: int) -> np.ndarray:
        return np.fromiter(chain.from_iterable(map(attrgetter(column), graphs)), dtype, count)

    atom_mol = np.repeat(np.arange(n_mols), n_atoms)
    element = joined("atomic_numbers", np.uint64, n)
    charge = joined("charges", np.int64, n).view(np.uint64)
    aromatic = joined("aromatic", np.uint64, n)
    hydrogens = joined("total_hs", np.uint64, n)
    first_atom = np.repeat(np.cumsum(n_atoms) - n_atoms, n_bonds)
    a1 = joined("bond_a1", np.intp, n_edges) + first_atom
    a2 = joined("bond_a2", np.intp, n_edges) + first_atom
    code = joined("bond_orders", np.uint64, n_edges)
    local_bond = np.arange(n_edges) - np.repeat(np.cumsum(n_bonds) - n_bonds, n_bonds)

    # Directed edges, both ways round each bond, laid out as a padded
    # (slot, atom) table: an atom's k-th edge sits in row k, and rows past
    # its degree hold atom n (an empty padding atom) and _PAD_CODE.
    src = np.concatenate([a1, a2])
    dst = np.concatenate([a2, a1])
    degree = np.bincount(src, minlength=n)
    by_src = np.argsort(src, kind="stable")
    slot = np.arange(2 * n_edges) - (np.cumsum(degree) - degree)[src[by_src]]
    max_degree = int(degree.max(initial=0))
    neighbor = np.full((max_degree, n), n, dtype=np.intp)
    neighbor[slot, src[by_src]] = dst[by_src]
    pair_code = np.full((max_degree, n), _PAD_CODE, dtype=np.uint64)
    pair_code[slot, src[by_src]] = np.concatenate([code, code])[by_src]
    in_slot = neighbor < n
    rows = np.flatnonzero(degree)
    atom_index = np.arange(n)

    radius_0 = (element, degree.astype(np.uint64), charge, hydrogens, aromatic)
    inv = _hash_columns(_hash_prefix(1), radius_0)
    mols = [atom_mol]
    hashes = [inv]

    # env[i]: bitset over its graph's bond indices of atom i's environment.
    # Radius 1 covers the incident bonds, and each later round adds the
    # neighbors' previous environments. Row n is the padding atom's.
    words = max(1, (int(n_bonds.max(initial=0)) + 63) // 64)
    env = np.zeros((n + 1, words), dtype=np.uint64)
    edge_bond = np.concatenate([local_bond, local_bond])
    np.bitwise_or.at(env, (src, edge_bond // 64), _ONE << (edge_bond % 64).astype(np.uint64))
    cand_mol, cand_env, cand_round, cand_hash = [], [], [], []
    for r in range(1, FP_RADIUS + 1):
        # Each atom's (bond code, neighbor invariant) pairs in sorted order.
        pair_inv = np.append(inv, np.uint64(0))[neighbor]
        order = np.lexsort((pair_inv, pair_code), axis=0)
        sorted_code = pair_code[order, atom_index]
        sorted_inv = pair_inv[order, atom_index]
        h = _hash_columns(_hash_prefix(2, r), (inv,))
        for k in range(max_degree):
            step = _hash_columns(h, (sorted_code[k], sorted_inv[k]))
            h = np.where(in_slot[k], step, h)
        # An atom without bonds is no candidate and no one's neighbor, so
        # its rehashed invariant is never read.
        inv = h
        if r > 1:
            grown = env.copy()
            for k in range(max_degree):
                grown[:n] |= env[neighbor[k]]
            env = grown
        cand_mol.append(atom_mol[rows])
        cand_env.append(env[rows])
        cand_round.append(np.full(len(rows), r))
        cand_hash.append(inv[rows])

    # Sorted by (molecule, environment, round, hash), the first row of each
    # (molecule, environment) group is the smallest hash of the earliest
    # round that reached that bond set: the one emitted.
    c_mol = np.concatenate(cand_mol)
    c_env = np.concatenate(cand_env)
    c_hash = np.concatenate(cand_hash)
    order = np.lexsort((c_hash, np.concatenate(cand_round), *c_env.T[::-1], c_mol))
    c_mol, c_env, c_hash = c_mol[order], c_env[order], c_hash[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (c_mol[1:] != c_mol[:-1]) | (c_env[1:] != c_env[:-1]).any(axis=1)
    mols.append(c_mol[first])
    hashes.append(c_hash[first])

    bit = np.concatenate(hashes) % np.uint64(FP_BITS)
    folded = np.zeros((n_mols, FP_WORDS), dtype="<u8")
    np.bitwise_or.at(
        folded, (np.concatenate(mols), (bit // 64).astype(np.intp)), _ONE << (bit % 64)
    )
    return folded


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """Tanimoto similarity of two bit vectors; 1.0 when both are empty."""
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


def pack(fingerprints) -> np.ndarray:
    """Fingerprints as an (n, FP_WORDS) array of little-endian uint64
    words, bit k in bit k % 64 of word k // 64."""
    raw = b"".join(fp.bits.to_bytes(8 * FP_WORDS, "little") for fp in fingerprints)
    return np.frombuffer(raw, dtype="<u8").reshape(-1, FP_WORDS)


def unpack(words: np.ndarray) -> np.ndarray:
    """Packed rows as an (n, FP_BITS) uint8 array of 0/1 bit columns, bit k
    in column k (one (FP_WORDS,) row gives (FP_BITS,)): the one decoder
    behind every model input row."""
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")


def on_bits(words: np.ndarray) -> np.ndarray:
    """The on-bit columns of packed rows, bit k as column k: ascending for
    one (FP_WORDS,) row; for an (n, FP_WORDS) array, row after row with each
    row's ascending, the column indices of the rows' CSR form."""
    return np.flatnonzero(unpack(words).view(bool)) % FP_BITS


def on_bit_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR form of (n, FP_WORDS) packed rows' on-bits: the (n + 1,)
    int32 row pointers and the on_bits column indices as int32."""
    indptr = np.zeros(len(words) + 1, dtype=np.int32)
    np.cumsum(np.bitwise_count(words).sum(axis=1), out=indptr[1:])
    return indptr, on_bits(words).astype(np.int32)


def tanimoto_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tanimoto similarity of every packed row of a against every packed
    row of b, as a (len(a), len(b)) matrix; 1.0 where both rows are empty.

    The popcount kernel, for one-off blocks: it ANDs 8 rows of a at a time
    against all of b, so its temporaries are 8 x len(b) x FP_WORDS words.
    A set queried many times is a TanimotoIndex. Intersection and union
    are exact popcounts, so each value is the same division as tanimoto()
    makes.
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


# Query rows per CSR product of a TanimotoIndex. A tile's bit columns are
# an FP_BITS x QUERY_TILE float32 block and its counts a rows x QUERY_TILE
# one. On the benchmark's filter, 256-row tiles ran no faster and raised
# novelty's traced peak from 2.7 to 5.0 MB.
QUERY_TILE = 64


class TanimotoIndex:
    """A packed fingerprint set built once for many Tanimoto queries: each
    row's popcount, and its on-bit columns as a CSR matrix of float32 ones.

    A fingerprint sets about 37 of its 2,048 bits, so a query counts only
    the on-bits it shares with each row: one CSR product of the set's rows
    with the query rows' float32 bit columns, QUERY_TILE query rows at a
    time. The counts are exact (each is at most FP_BITS, below 2**24), and
    the union is the two popcounts less the intersection, so every value is
    the division tanimoto_matrix makes.
    """

    def __init__(self, words: np.ndarray):
        self.counts = np.bitwise_count(words).sum(axis=1)
        indptr, indices = on_bit_rows(words)
        ones = np.ones(len(indices), dtype=np.float32)
        self.rows = csr_array((ones, indices, indptr), shape=(len(words), FP_BITS))

    def similarity(self, a: np.ndarray, start: int = 0) -> np.ndarray:
        """Tanimoto similarity of packed rows a against rows start: of the
        set, as a (len(a), n - start) float64 matrix for a set of n rows,
        the same as tanimoto_matrix(a, words[start:]). The suffix's column
        indices and values are views of the set's."""
        rows, counts = self.rows, self.counts[start:]
        if start:
            low = rows.indptr[start]
            rows = csr_array(
                (rows.data[low:], rows.indices[low:], rows.indptr[start:] - low),
                shape=(len(counts), FP_BITS),
            )
        counts_a = np.bitwise_count(a).sum(axis=1)
        out = np.ones((len(a), len(counts)))
        for first in range(0, len(a), QUERY_TILE):
            last = first + QUERY_TILE
            inter = (rows @ unpack(a[first:last]).T.astype(np.float32, order="C")).T
            # int64 counts less float32 intersections: exact float64 unions
            union = counts_a[first:last, None] + counts - inter
            np.divide(inter, union, out=out[first:last], where=union != 0)
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
    return feature_matrix([fingerprint], [solvent])[0]


def feature_matrix(
    fingerprints: list[Fingerprint], solvents: list[SolventFeatures]
) -> np.ndarray:
    """Feature rows of paired fingerprints and solvents as an (n, 2052)
    matrix: feature_rows of pack(fingerprints) and the solvents."""
    if len(fingerprints) != len(solvents):
        raise ValueError("fingerprint and solvent counts differ")
    return feature_rows(
        pack(fingerprints), np.reshape([s.as_tuple() for s in solvents], (-1, SOLVENT_DIM))
    )


def feature_rows(words: np.ndarray, solvent_values) -> np.ndarray:
    """The model input layout: an (n, 2052) float matrix of the packed rows'
    bit columns, then the solvent columns. solvent_values is one row of
    SOLVENT_DIM values for every row or an (n, SOLVENT_DIM) array."""
    out = np.empty((len(words), FEATURE_DIM), dtype=np.float64)
    out[:, :FP_BITS] = unpack(words)
    out[:, FP_BITS:] = solvent_values
    return out
