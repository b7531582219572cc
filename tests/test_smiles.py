import hashlib
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fluorgen.molgraph import Atom, Bond, BondOrder, MolecularGraph, MoleculeError
from fluorgen.smiles import (
    SmilesError,
    connected_components,
    parse_smiles,
    write_canonical_smiles,
)

from corpus import CORPUS
from oracles import canonical_smiles_exhaustive, graphs_isomorphic
from randmol import (
    permute_graph,
    random_chiral_necklace,
    random_cubic_molecule,
    random_kekule_framework,
    random_molecule,
    substitute,
)


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

    # digits of other scripts, and superscripts, are no SMILES digits
    @pytest.mark.parametrize("text,message", [
        ("C²", "unexpected character '²' (offset 1)"),
        ("C\u0661CC\u0661", "unexpected character '\u0661' (offset 1)"),
        ("C%1²CC%1²", "% ring closure needs two digits (offset 1)"),
        ("[CH²]", "unterminated bracket atom (offset 0)"),
        ("[C+²]", "unterminated bracket atom (offset 0)"),
        ("[13²C]", "unknown element in bracket: '²' (offset 3)"),
        ("[CH4:²]", "atom class expects digits (offset 5)"),
    ])
    def test_only_ascii_digits(self, text, message):
        with pytest.raises(SmilesError) as err:
            parse_smiles(text)
        assert str(err.value) == message


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

    # Seeds on which a search that accepts a leaf map as an automorphism
    # without comparing bond orders returns a wrong string.
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=91)
    @example(seed=93)
    @example(seed=103)
    @example(seed=357)
    @example(seed=358)
    def test_kekule_frameworks_match_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_kekule_framework(rng)
        want = canonical_smiles_exhaustive(graph)
        assert write_canonical_smiles(graph) == want
        for _ in range(2):
            shuffled = permute_graph(graph, list(rng.permutation(len(graph))))
            assert write_canonical_smiles(shuffled) == want

    # Seeds on which orbit pruning with recorded automorphisms that move the
    # individualized path returns a wrong string for some atom orders.
    @pytest.mark.parametrize("seed", [3, 4])
    def test_chiral_necklaces_match_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_chiral_necklace(rng)
        want = canonical_smiles_exhaustive(graph)
        assert write_canonical_smiles(graph) == want
        for _ in range(20):
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


class TestPinnedParserOutput:
    """parse_smiles and MolecularGraph construction over the corpus, a
    fixed randmol sample and seeded one-character mutants of both, held
    to a digest taken before the graph build became one pass. Each line
    records the atoms, bonds, neighbour order and implicit hydrogens of
    a graph, or the error text and offset (atom index for graphs built
    directly) of an input that fails."""

    DIGEST = "296d10c2a65747e58d0bdea90d8d30a344fb9fb46bbd2497ca309ce5457a82fc"
    # characters a mutant may insert or substitute
    ALPHABET = "CNOSPBFIcnospb()[]=#-:/\\@+H.%0123l"

    @staticmethod
    def describe(graph) -> str:
        bond_ids = {id(bond): k for k, bond in enumerate(graph.bonds)}
        return repr((
            [(a.index, a.element, a.aromatic, a.formal_charge, a.explicit_h, a.hybridization)
             for a in graph.atoms],
            [(b.a1, b.a2, b.order.value) for b in graph.bonds],
            [[(j, bond_ids[id(bond)]) for j, bond in graph.neighbors(i)]
             for i in range(len(graph))],
            [graph.implicit_h(i) for i in range(len(graph))],
        ))

    def texts(self) -> list[str]:
        graphs = [random_molecule(np.random.default_rng(seed)) for seed in range(150)]
        graphs += [random_kekule_framework(np.random.default_rng(seed)) for seed in range(20)]
        graphs += [random_cubic_molecule(np.random.default_rng(seed)) for seed in range(20)]
        bases = list(CORPUS) + [write_canonical_smiles(graph) for graph in graphs]
        rng = random.Random(22)
        texts = list(bases)
        for text in bases:
            for _ in range(4):
                at = rng.randrange(len(text) + 1)
                kind = rng.randrange(3)
                if kind == 0:
                    texts.append(text[:at] + text[at + 1:])
                elif kind == 1:
                    texts.append(text[:at] + rng.choice(self.ALPHABET) + text[at:])
                else:
                    texts.append(text[:at] + rng.choice(self.ALPHABET) + text[at + 1:])
        return texts

    # graphs built directly, one per MoleculeError the constructor raises
    BAD_GRAPHS = [
        ((Atom(1, "C"),), ()),
        ((Atom(0, "C"), Atom(1, "Xe")), ()),
        ((Atom(0, "C"), Atom(1, "N", explicit_h=-1)), ()),
        ((Atom(0, "C"), Atom(1, "F", aromatic=True)), ()),
        ((Atom(0, "C"), Atom(1, "C")), (Bond(0, 2, BondOrder.SINGLE),)),
        ((Atom(0, "C"), Atom(1, "C")), (Bond(1, 1, BondOrder.SINGLE),)),
        ((Atom(0, "C"), Atom(1, "C")),
         (Bond(0, 1, BondOrder.SINGLE), Bond(1, 0, BondOrder.DOUBLE))),
        ((Atom(0, "C"), Atom(1, "O"), Atom(2, "C")),
         (Bond(0, 1, BondOrder.DOUBLE), Bond(1, 2, BondOrder.DOUBLE))),
        ((Atom(0, "C", aromatic=True), Atom(1, "C", aromatic=True), Atom(2, "C")),
         (Bond(0, 1, BondOrder.AROMATIC), Bond(0, 2, BondOrder.TRIPLE))),
    ]

    def test_parser_output_digest(self):
        lines = []
        failures = 0
        for text in self.texts():
            try:
                lines.append(f"{text!r} {self.describe(parse_smiles(text))}")
            except SmilesError as exc:
                failures += 1
                lines.append(f"{text!r} ! {exc} @{exc.offset}")
        for atoms, bonds in self.BAD_GRAPHS:
            with pytest.raises(MoleculeError) as err:
                MolecularGraph(atoms, bonds)
            lines.append(f"{atoms!r} {bonds!r} ! {err.value} @{err.value.atom_index}")
        assert len(lines) == 1459
        assert 300 < failures < 1000
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST
