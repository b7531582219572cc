import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluorgen.fingerprints import (
    _HASH_SEED,
    FEATURE_DIM,
    FP_BITS,
    FP_WORDS,
    MORGAN_CHUNK,
    QUERY_TILE,
    Fingerprint,
    TanimotoIndex,
    WATER,
    SolventFeatures,
    _hash_columns,
    _mix64_array,
    build_feature_vector,
    feature_matrix,
    feature_rows,
    morgan_fingerprint,
    morgan_fingerprints,
    on_bits,
    pack,
    popcounts,
    tanimoto,
    tanimoto_counts,
    tanimoto_values,
    unpack,
)
from fluorgen.generator import node_features
from fluorgen.molgraph import Atom, Bond, BondOrder, MolecularGraph
from fluorgen.smiles import parse_smiles

from corpus import CORPUS
from oracles import _mix64, bits_to_array_loop, morgan_fingerprint_loop, stable_hash, tanimoto_matrix
from randmol import permute_graph, random_molecule


def fp(smiles):
    return morgan_fingerprint(parse_smiles(smiles))


class TestStableHash:
    def test_pinned_values(self):
        # Frozen so an accidental hash change cannot slip through unnoticed.
        assert stable_hash((1, 2, 3)) == stable_hash((1, 2, 3))
        assert stable_hash((1, 2, 3)) != stable_hash((3, 2, 1))
        assert stable_hash(()) == 0x52FD1E9A84C2B0F7

    def test_negative_values_deterministic(self):
        assert stable_hash((-1,)) == stable_hash(((1 << 64) - 1,))


MASK64 = (1 << 64) - 1
U64_EDGES = [0, 1, MASK64, MASK64 - 1, 1 << 63, (1 << 63) - 1, 0x9E3779B97F4A7C15]
u64_lists = st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=40)
i64_lists = st.lists(st.integers(min_value=-(1 << 63), max_value=-1), min_size=1, max_size=40)


class TestVectorizedHash:
    @settings(deadline=None)
    @given(values=u64_lists)
    @example(values=U64_EDGES)
    def test_mix_equals_scalar_mix(self, values):
        got = _mix64_array(np.array(values, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [_mix64(v) for v in values]

    @settings(deadline=None)
    @given(values=i64_lists)
    @example(values=[-1, -(1 << 63), -2])
    def test_twos_complement_negatives(self, values):
        column = np.array(values, dtype=np.int64).view(np.uint64)
        assert _mix64_array(column).tolist() == [_mix64(v & MASK64) for v in values]

    def test_input_left_unchanged(self):
        values = np.array(U64_EDGES, dtype=np.uint64)
        before = values.copy()
        _mix64_array(values)
        np.testing.assert_array_equal(values, before)

    @settings(deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=-(1 << 63), max_value=MASK64), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        )
    )
    def test_columns_equal_stable_hash_of_rows(self, rows):
        columns = [
            np.array([row[k] & MASK64 for row in rows], dtype=np.uint64) for k in range(3)
        ]
        start = np.full(len(rows), _HASH_SEED, dtype=np.uint64)
        got = _hash_columns(start, columns).tolist()
        assert got == [stable_hash(tuple(row)) for row in rows]


def _graph(n_atoms: int, bonds) -> MolecularGraph:
    return MolecularGraph(
        tuple(Atom(index=i, element="C") for i in range(n_atoms)),
        tuple(Bond(a, b, BondOrder.SINGLE) for a, b in bonds),
    )


def _assert_equal_to_loop(graphs):
    got = morgan_fingerprints(graphs)
    assert got.shape == (len(graphs), FP_WORDS)
    for graph, row in zip(graphs, got):
        assert np.array_equal(row, pack([morgan_fingerprint_loop(graph)])[0])


CORPUS_GRAPHS = [parse_smiles(s) for s in CORPUS]

# single atoms, charged ones included, and fragments with no bond at all
BONDLESS = ["C", "[O-]", "[NH4+]", "Cl", "C.C", "C.O.N.[Br-]", "CC.[O-].C"]


class TestMorganKernel:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40))
    def test_random_batches_equal_loop_oracle(self, seed, size):
        rng = np.random.default_rng(seed)
        _assert_equal_to_loop([random_molecule(rng) for _ in range(size)])

    def test_corpus_equals_loop_oracle(self):
        _assert_equal_to_loop(CORPUS_GRAPHS)

    def test_empty_list(self):
        assert morgan_fingerprints([]).shape == (0, FP_WORDS)

    def test_empty_graph(self):
        assert np.array_equal(morgan_fingerprints([_graph(0, [])]), pack([Fingerprint(0)]))

    @pytest.mark.parametrize("smiles", BONDLESS)
    def test_single_atoms_and_bondless_fragments(self, smiles):
        _assert_equal_to_loop([parse_smiles(smiles)])

    def test_bondless_graphs_in_a_batch(self):
        graphs = [parse_smiles(s) for s in BONDLESS] + CORPUS_GRAPHS[:5]
        _assert_equal_to_loop(graphs)

    @pytest.mark.parametrize("n_bonds", [63, 64, 65, 130])
    def test_environments_wider_than_one_word(self, n_bonds):
        # a ring of rings: n_bonds bonds in one graph, so the environment
        # bitset spans ceil(n_bonds / 64) words
        chain = _graph(n_bonds + 1, [(i, i + 1) for i in range(n_bonds)])
        ring = _graph(n_bonds, [(i, (i + 1) % n_bonds) for i in range(n_bonds)])
        _assert_equal_to_loop([chain, ring, parse_smiles("c1ccccc1")])

    def test_large_fused_system(self):
        # a linear acene of 14 rings: 58 atoms and 71 aromatic bonds, with
        # many atoms sharing an environment in each round
        acene = (
            "c1ccc2cc3cc4cc5cc6cc7cc8cc9cc%10cc%11cc%12cc%13cc%14ccccc%14"
            "cc%13cc%12cc%11cc%10cc9cc8cc7cc6cc5cc4cc3cc2c1"
        )
        graph = parse_smiles(acene)
        assert len(graph.bonds) > 64
        _assert_equal_to_loop([graph])

    def test_batch_crosses_chunk_boundaries(self):
        rng = np.random.default_rng(2024)
        graphs = [random_molecule(rng) for _ in range(4 * MORGAN_CHUNK + 1)]
        _assert_equal_to_loop(graphs)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 30))
    def test_batch_independence(self, seed, size):
        rng = np.random.default_rng(seed)
        graphs = [random_molecule(rng) for _ in range(size)]
        graphs += [CORPUS_GRAPHS[int(i)] for i in rng.choice(len(CORPUS_GRAPHS), size=3)]
        alone = pack([morgan_fingerprint(g) for g in graphs])
        assert np.array_equal(morgan_fingerprints(graphs), alone)
        order = rng.permutation(len(graphs))
        shuffled = morgan_fingerprints([graphs[i] for i in order])
        assert np.array_equal(shuffled, alone[order])

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([0, 1, MORGAN_CHUNK - 1, MORGAN_CHUNK, MORGAN_CHUNK + 1,
                              2 * MORGAN_CHUNK, 2 * MORGAN_CHUNK + 1]) | st.integers(0, 70),
        lazy=st.booleans(),
    )
    def test_rows_equal_packed_single_fingerprints(self, seed, size, lazy):
        """Row i of the kernel's array is pack([morgan_fingerprint(g_i)]),
        for empty input, generator input and sizes across MORGAN_CHUNK
        edges; the array is (n, FP_WORDS) uint64."""
        rng = np.random.default_rng(seed)
        graphs = [random_molecule(rng) for _ in range(size)]
        got = morgan_fingerprints((g for g in graphs) if lazy else graphs)
        assert got.dtype == np.uint64 and got.shape == (size, FP_WORDS)
        for graph, row in zip(graphs, got):
            assert np.array_equal(row, pack([morgan_fingerprint(graph)])[0])


class TestMorganEnvironments:
    def test_methane_single_environment(self):
        assert fp("C").bits.bit_count() == 1

    def test_ethane_two_environments(self):
        assert fp("CC").bits.bit_count() == 2

    def test_benzene_three_environments(self):
        # One distinct invariant per radius: all atoms are equivalent.
        assert fp("c1ccccc1").bits.bit_count() == 3

    def test_atom_order_invariant_simple(self):
        assert fp("CCO").bits == fp("OCC").bits

    def test_corpus_permutation_invariant(self):
        rng = np.random.default_rng(99)
        for smi in CORPUS[::4]:
            graph = parse_smiles(smi)
            want = morgan_fingerprint(graph).bits
            for _ in range(3):
                perm = list(rng.permutation(len(graph)))
                assert morgan_fingerprint(permute_graph(graph, perm)).bits == want

    def test_disconnected_fragment_never_clears_bits(self):
        rng = np.random.default_rng(4242)
        for _ in range(50):
            base = random_molecule(rng)
            extra = random_molecule(rng)
            combined_atoms = list(base.atoms)
            offset = len(base)
            from dataclasses import replace

            from fluorgen.molgraph import Bond, MolecularGraph

            for atom in extra.atoms:
                combined_atoms.append(replace(atom, index=atom.index + offset))
            combined_bonds = list(base.bonds) + [
                Bond(b.a1 + offset, b.a2 + offset, b.order) for b in extra.bonds
            ]
            combined = MolecularGraph(tuple(combined_atoms), tuple(combined_bonds))
            before = morgan_fingerprint(base).bits
            after = morgan_fingerprint(combined).bits
            assert before & after == before

    def test_different_molecules_differ(self):
        assert fp("c1ccccc1").bits != fp("C1CCCCC1").bits

    def test_charge_changes_bits(self):
        assert fp("CC(=O)O").bits != fp("CC(=O)[O-]").bits


class TestTanimoto:
    def test_frozen_small_cases(self):
        a = Fingerprint(bits=0b1100)
        b = Fingerprint(bits=0b0110)
        assert tanimoto(a, b) == pytest.approx(1 / 3)
        assert tanimoto(a, a) == 1.0

    def test_empty_pair_is_one(self):
        empty = Fingerprint(bits=0)
        assert tanimoto(empty, empty) == 1.0

    def test_empty_vs_nonempty_is_zero(self):
        empty = Fingerprint(bits=0)
        full = Fingerprint(bits=0b1)
        assert tanimoto(empty, full) == 0.0

    def test_symmetry(self):
        a, b = fp("CCO"), fp("CCN")
        assert tanimoto(a, b) == tanimoto(b, a)

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(31337)
        for _ in range(1000):
            trio = []
            for _ in range(3):
                mask = 0
                for bit in rng.choice(64, size=rng.integers(0, 20), replace=False):
                    mask |= 1 << int(bit)
                trio.append(Fingerprint(bits=mask))
            a, b, c = trio
            dab = 1.0 - tanimoto(a, b)
            dbc = 1.0 - tanimoto(b, c)
            dac = 1.0 - tanimoto(a, c)
            assert dac <= dab + dbc + 1e-12


class TestFeatureVector:
    def test_dimensions_and_order(self):
        vec = build_feature_vector(fp("c1ccccc1"), WATER)
        assert vec.shape == (FEATURE_DIM,)
        assert vec[FP_BITS:].tolist() == [0.681, 0.997, 1.062, 0.025]
        assert set(np.unique(vec[:FP_BITS])) <= {0.0, 1.0}

    def test_all_finite(self):
        vec = build_feature_vector(fp("CCO"), WATER)
        assert np.isfinite(vec).all()

    def test_nonfinite_solvent_rejected(self):
        with pytest.raises(ValueError):
            SolventFeatures(sp=float("nan"), sdp=0.0, sa=0.0, sb=0.0)

    def test_matrix_matches_vectors(self):
        fps = [fp("CCO"), fp("c1ccccc1")]
        sols = [WATER, SolventFeatures(0.1, 0.2, 0.3, 0.4)]
        mat = feature_matrix(fps, sols)
        assert mat.shape == (2, FEATURE_DIM)
        for row in range(2):
            np.testing.assert_array_equal(mat[row], build_feature_vector(fps[row], sols[row]))


ALL_BITS = (1 << FP_BITS) - 1
SOLVENTS = [WATER, SolventFeatures(0.1, 0.2, 0.3, 0.4), SolventFeatures(0.857, 0.808, 0.044, 0.329)]

# dense random integers, sparse random bit sets, and the edge cases
bit_sets = st.one_of(
    st.integers(min_value=0, max_value=ALL_BITS),
    st.sets(st.integers(min_value=0, max_value=FP_BITS - 1), max_size=120).map(
        lambda on: sum(1 << k for k in on)
    ),
)


class TestDecoder:
    @settings(deadline=None)
    @given(bits=bit_sets)
    @example(bits=0)
    @example(bits=1)
    @example(bits=1 << (FP_BITS - 1))
    @example(bits=ALL_BITS)
    def test_unpack_equals_bit_loop(self, bits):
        got = unpack(pack([Fingerprint(bits)]))
        assert got.shape == (1, FP_BITS)
        assert got.astype(np.float64).tobytes() == bits_to_array_loop(bits).tobytes()

    @settings(deadline=None)
    @given(rows=st.lists(bit_sets, max_size=70))
    def test_rows_decode_independently(self, rows):
        got = unpack(pack([Fingerprint(bits) for bits in rows]))
        want = np.array([bits_to_array_loop(bits) for bits in rows]).reshape(-1, FP_BITS)
        assert got.shape == (len(rows), FP_BITS)
        np.testing.assert_array_equal(got, want)

    @settings(deadline=None)
    @given(bits=bit_sets)
    @example(bits=0)
    @example(bits=ALL_BITS)
    def test_feature_builders_equal_bit_loop(self, bits):
        want = np.concatenate([bits_to_array_loop(bits), WATER.as_tuple()])
        fingerprint = Fingerprint(bits)
        assert build_feature_vector(fingerprint, WATER).tobytes() == want.tobytes()
        assert feature_matrix([fingerprint], [WATER])[0].tobytes() == want.tobytes()
        mask = 0x5555 << 1000
        parts = [Fingerprint(bits & mask), Fingerprint(bits & ~mask), Fingerprint(bits & mask)]
        assert node_features(parts, WATER).tobytes() == want.tobytes()
        node = np.bitwise_or.reduce(pack(parts))
        assert on_bits(node).tolist() == np.flatnonzero(want[:FP_BITS]).tolist()

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(bit_sets, st.sampled_from(SOLVENTS)), max_size=20))
    def test_feature_matrix_equals_bit_loop(self, rows):
        got = feature_matrix([Fingerprint(bits) for bits, _ in rows], [sol for _, sol in rows])
        assert got.dtype == np.float64
        assert got.shape == (len(rows), FEATURE_DIM)
        for row, (bits, sol) in zip(got, rows):
            want = np.concatenate([bits_to_array_loop(bits), sol.as_tuple()])
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("low_bits", [1, 7, 8, 9, 64])
    def test_short_fingerprints_decode_every_bit(self, low_bits):
        """A run of on bits from bit 0 that ends inside or at a byte edge."""
        bits = (1 << low_bits) - 1
        got = unpack(pack([Fingerprint(bits)]))[0]
        assert got.astype(np.float64).tobytes() == bits_to_array_loop(bits).tobytes()

    @settings(deadline=None)
    @given(rows=st.lists(bit_sets, max_size=20))
    def test_feature_rows_share_one_layout(self, rows):
        """feature_rows with one solvent for every row equals
        feature_matrix with that solvent repeated."""
        fingerprints = [Fingerprint(bits) for bits in rows]
        for solvent in SOLVENTS:
            got = feature_rows(pack(fingerprints), solvent.as_tuple())
            want = feature_matrix(fingerprints, [solvent] * len(rows))
            assert got.shape == want.shape == (len(rows), FEATURE_DIM)
            assert got.tobytes() == want.tobytes()

    def test_empty_list(self):
        assert unpack(pack([])).shape == (0, FP_BITS)
        got = feature_matrix([], [])
        assert got.shape == (0, FEATURE_DIM) and got.dtype == np.float64

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="counts differ"):
            feature_matrix([Fingerprint(1)], [])


def _bit_sets(max_bit):
    """Dense random integers and sparse random bit sets below 2**max_bit."""
    return st.one_of(
        st.integers(min_value=0, max_value=(1 << max_bit) - 1),
        st.sets(st.integers(min_value=0, max_value=max_bit - 1), max_size=40).map(
            lambda on: sum(1 << k for k in on)
        ),
    )


@st.composite
def packed_cases(draw):
    """(row bits of A, row bits of B); the low-bit rows share few words,
    and A may span more than one 8-row block."""
    bits = draw(st.sampled_from([_bit_sets(8), _bit_sets(100), _bit_sets(FP_BITS)]))
    a_rows = draw(st.lists(bits, max_size=20))
    b_rows = draw(st.lists(bits, max_size=7))
    return a_rows, b_rows


EDGE_ROWS = [0, ALL_BITS, 1, 1 << (FP_BITS - 1), 1 | 1 << (FP_BITS - 1)]


class TestPackedTanimoto:
    @settings(deadline=None)
    @given(case=packed_cases())
    @example(case=(EDGE_ROWS * 4, EDGE_ROWS))
    @example(case=([0], [0]))
    @example(case=([0], [ALL_BITS]))
    @example(case=([0, 0xFF, 0x81], [0x80, 0x01, 0]))
    @example(case=([1 << 99, 1 << 63 | 1 << 64], [(1 << 100) - 1, 1 << 64]))
    @example(case=([], [1, 2]))
    def test_matrix_equals_scalar_tanimoto(self, case):
        a_bits, b_bits = case
        a = [Fingerprint(bits) for bits in a_bits]
        b = [Fingerprint(bits) for bits in b_bits]
        got = tanimoto_matrix(pack(a), pack(b))
        assert got.dtype == np.float64
        assert got.shape == (len(a), len(b))
        inter, union = tanimoto_counts(pack(a), pack(b))
        kept = tanimoto_counts(pack(a), pack(b), popcounts(pack(b)))
        assert inter.dtype == union.dtype == np.int32
        for i, fa in enumerate(a):
            for j, fb in enumerate(b):
                assert got[i, j] == tanimoto(fa, fb)
                assert inter[i, j] == (fa.bits & fb.bits).bit_count()
                assert union[i, j] == (fa.bits | fb.bits).bit_count()
        assert [kept[0].tolist(), kept[1].tolist()] == [inter.tolist(), union.tolist()]

    @pytest.mark.parametrize(
        "low_bits, words", [(8, 1), (16, 1), (64, 1), (65, 2), (100, 2), (FP_BITS, 32)]
    )
    def test_pack_layout(self, low_bits, words):
        """The top bit of the lowest low_bits bits lands in word words - 1."""
        top = low_bits - 1
        packed = pack([Fingerprint(1), Fingerprint(1 << top)])
        assert packed.shape == (2, FP_WORDS)
        want = np.zeros((2, FP_WORDS), dtype=np.uint64)
        want[0, 0] = 1
        want[1, words - 1] = 1 << (top % 64)
        np.testing.assert_array_equal(packed, want)

    def test_empty_input_packs_to_zero_rows(self):
        assert pack([]).shape == (0, FP_WORDS)
        assert [c.shape for c in tanimoto_counts(pack([]), pack([Fingerprint(1)]))] == [(0, 1)] * 2

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            tanimoto_counts(pack([Fingerprint(1)]), np.zeros((1, 2), dtype=np.uint64))


@st.composite
def indexed_sets(draw):
    """(row bits of the indexed set, row bits of the queries), both drawn
    from one small pool, so rows repeat. The pool holds the empty row,
    dense random rows of about 1,024 bits and sparse rows; the query count
    lands on both sides of QUERY_TILE."""
    dense = st.integers(0, 2**32 - 1).map(lambda seed: random.Random(seed).getrandbits(FP_BITS))
    sparse = st.sets(st.integers(0, FP_BITS - 1), max_size=60).map(
        lambda on: sum(1 << k for k in on)
    )
    pool = draw(st.lists(st.just(0) | dense | sparse, min_size=1, max_size=6))
    picks = st.sampled_from(pool)
    rows = draw(st.lists(picks, max_size=12))
    count = draw(
        st.sampled_from([0, 1, QUERY_TILE - 1, QUERY_TILE, QUERY_TILE + 1])
        | st.integers(0, 2 * QUERY_TILE + 1)
    )
    queries = draw(st.lists(picks, min_size=count, max_size=count))
    return rows, queries


class TestTanimotoIndex:
    @settings(max_examples=60, deadline=None)
    @given(case=indexed_sets())
    @example(case=([0, 0, ALL_BITS], [0] * (QUERY_TILE + 1) + [ALL_BITS]))
    @example(case=([], [1, 0]))
    @example(case=(EDGE_ROWS * 2, EDGE_ROWS * (QUERY_TILE // 4)))
    def test_queries_equal_popcount_and_scalar_tanimoto(self, case):
        """Byte for byte: similarity is the same float64 matrix as
        tanimoto_matrix, and each value the scalar tanimoto of its pair;
        for every start from 0 to n, pair_counts gives the same integers
        as tanimoto_counts of the rows from start on, and their division
        the scalar values."""
        row_bits, query_bits = case
        rows = [Fingerprint(bits) for bits in row_bits]
        queries = [Fingerprint(bits) for bits in query_bits]
        index = TanimotoIndex(pack(rows))
        scalar = np.array(
            [[tanimoto(q, r) for r in rows] for q in queries], dtype=np.float64
        ).reshape(len(queries), len(rows))
        got = index.similarity(pack(queries))
        assert got.dtype == np.float64
        assert got.shape == (len(queries), len(rows))
        assert got.tobytes() == tanimoto_matrix(pack(queries), pack(rows)).tobytes()
        assert got.tobytes() == scalar.tobytes()
        for start in range(len(rows) + 1):
            counts = index.pair_counts(pack(queries), start)
            want = tanimoto_counts(pack(queries), pack(rows[start:]))
            assert [c.dtype for c in counts] == [np.int32, np.int32]
            assert [c.tolist() for c in counts] == [c.tolist() for c in want]
            assert tanimoto_values(*counts).tobytes() == scalar[:, start:].tobytes()
