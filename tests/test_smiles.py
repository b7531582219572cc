import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluorgen.molgraph import BondOrder
from fluorgen.smiles import (
    SmilesError,
    connected_components,
    parse_smiles,
    write_canonical_smiles,
)

from corpus import CORPUS
from oracles import canonical_smiles_exhaustive, graphs_isomorphic
from randmol import permute_graph, random_cubic_molecule, random_molecule, substitute


class TestParsing:
    def test_linear_chain(self):
        graph = parse_smiles("CCO")
        assert [a.element for a in graph.atoms] == ["C", "C", "O"]
        assert len(graph.bonds) == 2

    def test_branching(self):
        graph = parse_smiles("CC(C)C")
        assert graph.degree(1) == 3

    def test_ring_closure_digits(self):
        graph = parse_smiles("C1CC1")
        assert len(graph.bonds) == 3
        assert all(graph.in_ring(i) for i in range(3))

    def test_percent_ring_closure(self):
        triangle = parse_smiles("C%10CC%10")
        assert graphs_isomorphic(triangle, parse_smiles("C1CC1"))

    def test_ring_digit_reuse(self):
        graph = parse_smiles("C1CC1C1CC1")
        assert len(graph.bonds) == 7

    def test_bond_orders(self):
        graph = parse_smiles("C=C")
        assert graph.bonds[0].order is BondOrder.DOUBLE
        graph = parse_smiles("C#N")
        assert graph.bonds[0].order is BondOrder.TRIPLE

    def test_aromatic_bonds_implicit(self):
        graph = parse_smiles("c1ccccc1")
        assert all(b.order is BondOrder.AROMATIC for b in graph.bonds)

    def test_explicit_single_between_aromatics(self):
        graph = parse_smiles("c1ccc(-c2ccccc2)cc1")
        singles = [b for b in graph.bonds if b.order is BondOrder.SINGLE]
        assert len(singles) == 1

    def test_stereo_markers_discarded(self):
        a = parse_smiles("F/C=C/F")
        b = parse_smiles("FC=CF")
        assert write_canonical_smiles(a) == write_canonical_smiles(b)

    def test_chirality_discarded(self):
        a = parse_smiles("N[C@@H](C)C(=O)O")
        b = parse_smiles("NC(C)C(=O)O")
        assert write_canonical_smiles(a) == write_canonical_smiles(b)

    def test_isotope_discarded(self):
        a = parse_smiles("[13CH4]")
        assert a.atoms[0].element == "C"
        assert a.total_h(0) == 4

    def test_bracket_charges(self):
        assert parse_smiles("[NH4+]").atoms[0].formal_charge == 1
        assert parse_smiles("[O-]").atoms[0].formal_charge == -1
        assert parse_smiles("[O-2]").atoms[0].formal_charge == -2
        assert parse_smiles("[S--]").atoms[0].formal_charge == -2

    def test_dot_fragments(self):
        graph = parse_smiles("C[N+](C)(C)C.[Cl-]")
        assert len(connected_components(graph)) == 2

    def test_ring_bond_symbol_on_either_side(self):
        a = parse_smiles("C=1CCCCC=1")
        b = parse_smiles("C1CCCCC=1")
        c = parse_smiles("C=1CCCCC1")
        want = write_canonical_smiles(parse_smiles("C1=CCCCC1"))
        for graph in (a, b, c):
            assert write_canonical_smiles(graph) == want


class TestParseErrors:
    CASES = [
        ("", 0),
        ("   ", 0),
        ("C(", 1),
        ("C(C", 1),
        (")C", 0),
        ("C)C", 1),
        ("C1CC", 1),
        ("1CC", 0),
        ("C..C", 2),
        ("C.", 1),
        ("C==C", 2),
        ("C=", 1),
        ("=C", 0),
        ("C-(C)", 1),
        ("[Xx]C", 1),
        ("[CH3", 0),
        ("C{O}", 1),
        ("C C", 1),
        ("%1C", 0),
        ("C(C)(C)(C)(C)C", 0),
        ("C$C", 1),
        ("C11", 2),
        ("C-1CC=1", 6),
    ]

    @pytest.mark.parametrize("text,offset", CASES)
    def test_error_offsets(self, text, offset):
        with pytest.raises(SmilesError) as err:
            parse_smiles(text)
        assert err.value.offset == offset

    def test_error_message_mentions_offset(self):
        with pytest.raises(SmilesError, match=r"offset 1"):
            parse_smiles("C(")


class TestCanonicalWriting:
    def test_atom_order_independent(self):
        assert write_canonical_smiles(parse_smiles("CCO")) == write_canonical_smiles(
            parse_smiles("OCC")
        )

    def test_branch_order_independent(self):
        variants = ["CC(N)(O)C", "CC(O)(N)C", "C(C)(N)(O)C"]
        canon = {write_canonical_smiles(parse_smiles(s)) for s in variants}
        assert len(canon) == 1

    def test_corpus_roundtrip_isomorphic(self):
        for smi in CORPUS:
            graph = parse_smiles(smi)
            text = write_canonical_smiles(graph)
            back = parse_smiles(text)
            assert graphs_isomorphic(graph, back), smi

    def test_corpus_canonical_stable(self):
        for smi in CORPUS:
            text = write_canonical_smiles(parse_smiles(smi))
            again = write_canonical_smiles(parse_smiles(text))
            assert text == again, smi

    def test_corpus_permutation_invariant(self):
        rng = np.random.default_rng(7)
        for smi in CORPUS[::3]:
            graph = parse_smiles(smi)
            want = write_canonical_smiles(graph)
            for _ in range(4):
                perm = list(rng.permutation(len(graph)))
                shuffled = permute_graph(graph, perm)
                assert write_canonical_smiles(shuffled) == want, smi

    def test_random_graphs_permutation_invariant(self):
        rng = np.random.default_rng(123)
        for _ in range(150):
            graph = random_molecule(rng)
            want = write_canonical_smiles(graph)
            perm = list(rng.permutation(len(graph)))
            assert write_canonical_smiles(permute_graph(graph, perm)) == want

    def test_random_graphs_roundtrip(self):
        rng = np.random.default_rng(456)
        for _ in range(150):
            graph = random_molecule(rng)
            back = parse_smiles(write_canonical_smiles(graph))
            assert graphs_isomorphic(graph, back)

    def test_fragments_sorted(self):
        a = write_canonical_smiles(parse_smiles("C.N"))
        b = write_canonical_smiles(parse_smiles("N.C"))
        assert a == b
        assert "." in a

    def test_charges_and_hydrogens_survive(self):
        graph = parse_smiles("C[N+](C)(C)CC(=O)[O-]")
        back = parse_smiles(write_canonical_smiles(graph))
        charges = sorted(a.formal_charge for a in back.atoms)
        assert charges[0] == -1 and charges[-1] == 1

    def test_pyrrole_nh_needs_bracket(self):
        text = write_canonical_smiles(parse_smiles("c1cc[nH]c1"))
        assert "[nH]" in text

    def test_long_chain_written_without_recursion_limit(self):
        rng = np.random.default_rng(0)
        graph = parse_smiles("".join(rng.choice(["C", "N", "O", "S"], size=3000)))
        text = write_canonical_smiles(graph)
        assert write_canonical_smiles(parse_smiles(text)) == text

    def test_empty_graph_rejected(self):
        from fluorgen.molgraph import MolecularGraph

        with pytest.raises(ValueError):
            write_canonical_smiles(MolecularGraph((), ()))


class TestCanonicalSearchIsExact:
    """The pruned search returns what exploring every leaf returns, and
    highly symmetric graphs, far past any leaf budget, still get one
    string whatever their atom order."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_graphs_match_exhaustive_oracle(self, seed):
        graph = random_molecule(np.random.default_rng(seed))
        assert write_canonical_smiles(graph) == canonical_smiles_exhaustive(graph)

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cubic_graphs_match_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_cubic_molecule(rng)
        want = canonical_smiles_exhaustive(graph)
        assert write_canonical_smiles(graph) == want
        shuffled = permute_graph(graph, list(rng.permutation(len(graph))))
        assert write_canonical_smiles(shuffled) == want

    def test_corpus_matches_exhaustive_oracle(self):
        for smi in CORPUS:
            graph = parse_smiles(smi)
            assert write_canonical_smiles(graph) == canonical_smiles_exhaustive(graph), smi

    # (core SMILES, arm sites): repeated indices carry several arms
    CORES = [
        ("C", [0, 0, 0, 0]),
        ("[Si]", [0, 0, 0, 0]),
        ("N", [0, 0, 0]),
        ("c1ccccc1", [0, 1, 2, 3, 4, 5]),
        ("c1ccccc1", [0, 2, 4]),
    ]

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        core=st.sampled_from(range(len(CORES))),
        dendrimer=st.booleans(),
    )
    def test_star_and_dendrimer_substitutions_one_string(self, seed, core, dendrimer):
        rng = np.random.default_rng(seed)
        arm = random_molecule(rng)
        if dendrimer:
            arm = substitute(parse_smiles("C"), [0, 0], arm, self._site(arm, rng))
            attach = 0
        else:
            attach = self._site(arm, rng)
        smiles, sites = self.CORES[core]
        graph = substitute(parse_smiles(smiles), sites, arm, attach)
        self._assert_one_string(graph, rng)

    @pytest.mark.parametrize("smi", [
        "C(c1ccccc1)(c1ccccc1)(c1ccccc1)c1ccccc1",
        "c1ccc(-c2c(-c3ccccc3)c(-c3ccccc3)c(-c3ccccc3)c(-c3ccccc3)c2-c2ccccc2)cc1",
        "C(c1ccc(-c2ccccc2)cc1)(c1ccc(-c2ccccc2)cc1)(c1ccc(-c2ccccc2)cc1)c1ccc(-c2ccccc2)cc1",
        "CC(C)(C)[Si](C(C)(C)C)(C(C)(C)C)C(C)(C)C",
    ])
    def test_named_symmetric_molecules_one_string(self, smi):
        self._assert_one_string(parse_smiles(smi), np.random.default_rng(3))

    @staticmethod
    def _site(arm, rng) -> int:
        sites = [i for i in range(len(arm)) if arm.implicit_h(i) > 0]
        assume(sites)
        return int(sites[rng.integers(len(sites))])

    @staticmethod
    def _assert_one_string(graph, rng):
        want = write_canonical_smiles(graph)
        for _ in range(3):
            shuffled = permute_graph(graph, list(rng.permutation(len(graph))))
            assert write_canonical_smiles(shuffled) == want
        assert write_canonical_smiles(parse_smiles(want)) == want
