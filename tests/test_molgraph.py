from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluorgen.molgraph import (
    Atom,
    Bond,
    BondOrder,
    Hybridization,
    MolecularGraph,
    MoleculeError,
    perceive_hybridization,
    sp2_network_size,
)
from fluorgen.fingerprints import morgan_fingerprints, pack
from fluorgen.smiles import parse_smiles, write_canonical_smiles

from corpus import CORPUS
from oracles import morgan_fingerprint_loop, sp2_network_size_unionfind
from randmol import random_cubic_molecule, random_kekule_framework, random_molecule


def hybs(smiles):
    graph = perceive_hybridization(parse_smiles(smiles))
    return [atom.hybridization for atom in graph.atoms]


class TestGraphInvariants:
    def test_contiguous_indices_enforced(self):
        with pytest.raises(MoleculeError):
            MolecularGraph((Atom(index=1, element="C"),), ())

    def test_self_bond_rejected(self):
        atoms = (Atom(index=0, element="C"),)
        with pytest.raises(MoleculeError):
            MolecularGraph(atoms, (Bond(0, 0, BondOrder.SINGLE),))

    def test_duplicate_bond_rejected(self):
        atoms = (Atom(index=0, element="C"), Atom(index=1, element="C"))
        bonds = (Bond(0, 1, BondOrder.SINGLE), Bond(1, 0, BondOrder.SINGLE))
        with pytest.raises(MoleculeError):
            MolecularGraph(atoms, bonds)

    def test_overloaded_carbon_rejected(self):
        atoms = tuple(Atom(index=i, element="C") for i in range(6))
        bonds = tuple(Bond(0, i, BondOrder.SINGLE) for i in range(1, 6))
        with pytest.raises(MoleculeError):
            MolecularGraph(atoms, bonds)

    def test_halogen_single_bond_only(self):
        atoms = (Atom(index=0, element="F"), Atom(index=1, element="C"))
        with pytest.raises(MoleculeError):
            MolecularGraph(atoms, (Bond(0, 1, BondOrder.DOUBLE),))

    def test_disconnected_graph_allowed(self):
        atoms = (Atom(index=0, element="C"), Atom(index=1, element="O"))
        graph = MolecularGraph(atoms, ())
        assert len(graph) == 2
        assert graph.total_h(0) == 4
        assert graph.total_h(1) == 2


class TestImplicitHydrogens:
    def test_ethanol_counts(self):
        graph = parse_smiles("CCO")
        assert [graph.total_h(i) for i in range(3)] == [3, 2, 1]

    def test_benzene_carbons_carry_one(self):
        graph = parse_smiles("c1ccccc1")
        assert all(graph.total_h(i) == 1 for i in range(6))

    def test_pyridine_nitrogen_bare(self):
        graph = parse_smiles("c1ccncc1")
        n = next(i for i, a in enumerate(graph.atoms) if a.element == "N")
        assert graph.total_h(n) == 0

    def test_pyrrole_nitrogen_keeps_bracket_h(self):
        graph = parse_smiles("c1cc[nH]c1")
        n = next(i for i, a in enumerate(graph.atoms) if a.element == "N")
        assert graph.total_h(n) == 1

    def test_furan_thiophene_heteroatom_no_h(self):
        for smi, el in [("c1ccoc1", "O"), ("c1ccsc1", "S")]:
            graph = parse_smiles(smi)
            i = next(k for k, a in enumerate(graph.atoms) if a.element == el)
            assert graph.total_h(i) == 0

    def test_sulfur_valence_ladder(self):
        assert parse_smiles("S").total_h(0) == 2
        graph = parse_smiles("CS(=O)C")
        s = next(i for i, a in enumerate(graph.atoms) if a.element == "S")
        assert graph.total_h(s) == 1 or graph.bond_order_sum(s) == 4
        sulfone = parse_smiles("CS(=O)(=O)C")
        s = next(i for i, a in enumerate(sulfone.atoms) if a.element == "S")
        assert sulfone.total_h(s) == 0

    def test_charged_atoms_no_implicit_fill(self):
        graph = parse_smiles("[O-]C")
        assert graph.total_h(0) == 0
        ammonium = parse_smiles("[NH4+]")
        assert ammonium.total_h(0) == 4

    def test_pentavalent_nitro_tolerated(self):
        graph = parse_smiles("CN(=O)=O")
        n = next(i for i, a in enumerate(graph.atoms) if a.element == "N")
        assert graph.total_h(n) == 0

    def test_bare_reading_shares_the_graph_rule(self):
        """Over the corpus, an atom with no stated hydrogens and no charge
        is read bare the way the graph derives its hydrogens."""
        for smiles in CORPUS:
            graph = parse_smiles(smiles)
            for i, atom in enumerate(graph.atoms):
                if atom.explicit_h == 0 and atom.formal_charge == 0:
                    assert graph.bare_implicit_h(i) == graph.implicit_h(i), (smiles, i)

    def test_pyrrole_nitrogen_read_bare_has_no_h(self):
        graph = parse_smiles("c1cc[nH]c1")
        n = next(i for i, a in enumerate(graph.atoms) if a.element == "N")
        assert graph.bare_implicit_h(n) == 0 and graph.total_h(n) == 1


class TestHybridization:
    def test_benzene_all_sp2(self):
        assert all(h is Hybridization.SP2 for h in hybs("c1ccccc1"))

    def test_allene_center_sp(self):
        assert hybs("C=C=C") == [
            Hybridization.SP2,
            Hybridization.SP,
            Hybridization.SP2,
        ]

    def test_nitrile_sp(self):
        assert hybs("CC#N")[1:] == [Hybridization.SP, Hybridization.SP]

    def test_halogen_other(self):
        assert hybs("CCl")[1] is Hybridization.OTHER

    def test_alkane_sp3(self):
        assert all(h is Hybridization.SP3 for h in hybs("CCCC"))

    def test_carbonyl_sp2_both_ends(self):
        got = hybs("CC=O")
        assert got == [Hybridization.SP3, Hybridization.SP2, Hybridization.SP2]

    def test_idempotent(self):
        graph = perceive_hybridization(parse_smiles("c1ccccc1C=CC#N"))
        again = perceive_hybridization(graph)
        assert [a.hybridization for a in graph.atoms] == [
            a.hybridization for a in again.atoms
        ]


class TestSp2Network:
    FROZEN = [
        ("C", 0),
        ("C=C", 2),
        ("C=CC=C", 4),
        ("c1ccccc1", 6),
        ("Cc1ccccc1", 6),
        ("c1ccccc1C=C", 8),
        ("c1ccc2ccccc2c1", 10),
        ("c1ccc(-c2ccccc2)cc1", 12),
        ("O=Cc1cc2ccccc2[nH]1", 11),  # indole-2-carbaldehyde: 9 ring + C + O
        ("C=CCC=C", 2),               # sp3 break splits the network
        ("C[Si](C)(C)C", 0),
        ("C#C", 0),                   # sp carbons are not part of the count
    ]

    @pytest.mark.parametrize("smiles,expected", FROZEN)
    def test_frozen_values(self, smiles, expected):
        assert sp2_network_size(parse_smiles(smiles)) == expected

    def test_matches_unionfind_oracle(self):
        rng = np.random.default_rng(20260822)
        for _ in range(300):
            graph = random_molecule(rng)
            assert sp2_network_size(graph) == sp2_network_size_unionfind(graph)

    def test_corpus_matches_oracle(self):
        from corpus import CORPUS

        for smi in CORPUS:
            graph = parse_smiles(smi)
            assert sp2_network_size(graph) == sp2_network_size_unionfind(graph)

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unperceived_equals_perceived_graph(self, seed):
        graph = random_molecule(np.random.default_rng(seed))
        assert all(atom.hybridization is None for atom in graph.atoms)
        assert sp2_network_size(graph) == sp2_network_size(perceive_hybridization(graph))

    def test_corpus_unperceived_equals_perceived_graph(self):
        from corpus import CORPUS

        for smi in CORPUS:
            graph = parse_smiles(smi)
            assert sp2_network_size(graph) == sp2_network_size(perceive_hybridization(graph))

    def test_stated_hybridization_is_read_as_given(self):
        # a graph whose atoms all carry a state is not perceived again
        graph = parse_smiles("C=CC=C")
        stated = graph.with_atoms(
            tuple(replace(atom, hybridization=Hybridization.SP3) for atom in graph.atoms)
        )
        assert sp2_network_size(graph) == 4
        assert sp2_network_size(stated) == 0


class TestRingMembership:
    def test_benzene_ring_atoms(self):
        graph = parse_smiles("Cc1ccccc1")
        assert not graph.in_ring(0)
        assert all(graph.in_ring(i) for i in range(1, 7))

    def test_chain_has_no_rings(self):
        graph = parse_smiles("CCCCC")
        assert not any(graph.in_ring(i) for i in range(5))

    def test_spiro_center_in_ring(self):
        graph = parse_smiles("C1CCC2(CC1)CCCCC2")
        assert all(graph.in_ring(i) for i in range(len(graph)))

    def test_biphenyl_bridge_atoms_in_ring(self):
        graph = parse_smiles("c1ccc(-c2ccccc2)cc1")
        assert all(graph.in_ring(i) for i in range(len(graph)))


COLUMNS = (
    "atomic_numbers", "aromatic", "charges", "explicit_hs", "total_hs",
    "bond_a1", "bond_a2", "bond_orders", "hybridization",
)


def columns(graph):
    return [getattr(graph, name) for name in COLUMNS]


class TestArrayForm:
    """The column form against the object form. Each graph's columns equal
    those of the graph rebuilt from its Atom and Bond objects, which a
    parsed graph builds on first use; its sp2 count equals the union-find
    oracle's on the objects; and the fingerprints of the graphs, taken in
    chunks, equal the one-graph loop oracle's."""

    @staticmethod
    def check(graphs):
        for graph in graphs:
            rebuilt = MolecularGraph(graph.atoms, graph.bonds)
            assert columns(rebuilt) == columns(graph)
            assert [rebuilt.neighbors(i) for i in range(len(graph))] == [
                graph.neighbors(i) for i in range(len(graph))
            ]
            assert sp2_network_size(graph) == sp2_network_size_unionfind(graph)
        expected = pack([morgan_fingerprint_loop(graph) for graph in graphs])
        assert np.array_equal(morgan_fingerprints(graphs), expected)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_graphs_and_their_parses(self, seed):
        rng = np.random.default_rng(seed)
        built = [
            make(rng)
            for make in (random_molecule, random_cubic_molecule, random_kekule_framework)
            for _ in range(4)
        ]
        parsed = [parse_smiles(write_canonical_smiles(graph)) for graph in built]
        assert all(graph._atoms is None for graph in parsed)
        self.check(built + parsed)

    def test_corpus(self):
        self.check([parse_smiles(smiles) for smiles in CORPUS])

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_stated_states_are_kept(self, seed, data):
        """States given on the atoms are kept in the column; with every
        atom stating one, the sp2 count reads them as given."""
        graph = random_molecule(np.random.default_rng(seed))
        states = data.draw(st.lists(
            st.sampled_from([*Hybridization, None]), min_size=len(graph), max_size=len(graph)
        ))
        stated = graph.with_atoms(tuple(
            replace(atom, hybridization=state) for atom, state in zip(graph.atoms, states)
        ))
        assert stated.hybridization == (None if states == [None] * len(graph) else tuple(states))
        assert sp2_network_size(stated) == sp2_network_size_unionfind(stated)
        every = graph.with_atoms(tuple(
            replace(atom, hybridization=state or Hybridization.SP2)
            for atom, state in zip(graph.atoms, states)
        ))
        assert sp2_network_size(every) == sp2_network_size_unionfind(every)
