from pathlib import Path

import numpy as np
import pytest

from fluorgen.patterns import (
    AtomPattern,
    PatternError,
    match_pattern,
    has_match,
    parse_pattern,
)
from fluorgen.reactions import ingest_building_blocks, ingest_reaction_templates
from fluorgen.smiles import parse_smiles

from oracles import all_injections_matching, match_pattern_per_call
from randmol import random_molecule

DATA = Path(__file__).resolve().parent.parent / "data"


def matches(pattern, smiles):
    return match_pattern(parse_pattern(pattern), parse_smiles(smiles))


class TestParsing:
    def test_plain_elements(self):
        q = parse_pattern("CN")
        assert len(q.atoms) == 2
        assert q.atoms[0].elements == (("C", False),)
        assert q.bonds[0].kind == "default"

    def test_aromatic_lowercase(self):
        q = parse_pattern("cc")
        assert q.atoms[0].elements == (("C", True),)

    def test_two_letter_elements(self):
        q = parse_pattern("ClCBr")
        assert q.atoms[0].elements == (("Cl", False),)
        assert q.atoms[2].elements == (("Br", False),)

    def test_bracket_conjunction(self):
        q = parse_pattern("[N;H2;D1]")
        atom = q.atoms[0]
        assert atom.elements == (("N", False),)
        assert atom.h_count == 2
        assert atom.degree == 1

    def test_element_alternatives(self):
        q = parse_pattern("[C,N,s]")
        assert q.atoms[0].elements == (("C", False), ("N", False), ("S", True))

    def test_ring_primitives(self):
        assert parse_pattern("[C;R]").atoms[0].in_ring is True
        assert parse_pattern("[C;R0]").atoms[0].in_ring is False

    def test_charge_primitives(self):
        assert parse_pattern("[N;+]").atoms[0].charge == 1
        assert parse_pattern("[O;-]").atoms[0].charge == -1
        assert parse_pattern("[N;+2]").atoms[0].charge == 2

    def test_bond_kinds(self):
        q = parse_pattern("C=C#C:C~C-C")
        assert [b.kind for b in q.bonds] == ["double", "triple", "aromatic", "any", "single"]

    def test_branches_and_rings(self):
        q = parse_pattern("C1C(C)CC1")
        assert len(q.atoms) == 5
        assert len(q.bonds) == 5  # four chain/branch bonds plus the closure

    def test_unsupported_primitive_named(self):
        with pytest.raises(PatternError, match="unsupported primitive 'Q'"):
            parse_pattern("[Q]")
        with pytest.raises(PatternError, match="unsupported primitive 'X7'"):
            parse_pattern("[C;X7]")

    def test_disconnected_rejected(self):
        from fluorgen.patterns import AtomPattern, BondPattern, PatternQuery

        for bonds in [(), ((0, 1),), ((1, 2),)]:
            with pytest.raises(PatternError) as caught:
                PatternQuery(
                    text="",
                    atoms=(AtomPattern(), AtomPattern(), AtomPattern()),
                    bonds=tuple(BondPattern(a, b, "default") for a, b in bonds),
                )
            assert str(caught.value) == "pattern must be connected (offset 0)"
            assert caught.value.offset == 0

    def test_syntax_errors(self):
        for bad in ["", "C(", "C)", "C==C", "[C", "[]", "C1CC", "=C"]:
            with pytest.raises(PatternError):
                parse_pattern(bad)

    # digits of other scripts, and superscripts, are no pattern digits
    @pytest.mark.parametrize("text,message", [
        ("C\u0661CC\u0661", "unsupported primitive '\u0661' (offset 1)"),
        ("C²", "unsupported primitive '²' (offset 1)"),
        ("[C;D²]", "unsupported primitive 'D²' (offset 3)"),
        ("[C;H\u0661]", "unsupported primitive 'H\u0661' (offset 3)"),
        ("[N;+²]", "unsupported primitive '+²' (offset 3)"),
    ])
    def test_only_ascii_digits(self, text, message):
        with pytest.raises(PatternError) as err:
            parse_pattern(text)
        assert str(err.value) == message


class TestMatching:
    def test_single_atom_all_carbons(self):
        got = matches("C", "CCO")
        assert got == [(0,), (1,)]

    def test_aromatic_vs_aliphatic(self):
        assert len(matches("c", "c1ccccc1C")) == 6
        assert len(matches("C", "c1ccccc1C")) == 1

    def test_bonded_pair_counts_both_directions(self):
        got = matches("cc", "c1ccccc1")
        assert len(got) == 12

    def test_carbonyl(self):
        got = matches("C=O", "CC(=O)C")
        assert got == [(1, 2)]

    def test_primary_amine_probe(self):
        assert matches("[N;H2]", "NCC") == [(0,)]
        assert matches("[N;H2]", "CN(C)C") == []

    def test_degree_probe(self):
        got = matches("[C;D3]", "CC(C)C")
        assert got == [(1,)]

    def test_ring_probe(self):
        got = matches("[C;R0]", "C1CCC1C")
        assert got == [(4,)]

    def test_charge_probe(self):
        got = matches("[O;-]", "CC(=O)[O-]")
        assert got == [(3,)]

    def test_any_bond(self):
        assert len(matches("C~C", "C=C")) == 2
        assert len(matches("C-C", "C=C")) == 0

    def test_default_bond_single_or_aromatic(self):
        assert len(matches("CC", "C=C")) == 0
        assert len(matches("CC", "CC")) == 2

    def test_monomorphism_extra_bonds_allowed(self):
        # A 3-chain maps into a triangle even though the triangle closes.
        got = matches("CCC", "C1CC1")
        assert len(got) == 6

    def test_carboxylic_acid(self):
        got = matches("C(=O)[O;H1]", "CC(=O)O")
        assert got == [(1, 2, 3)]

    def test_deterministic_order(self):
        a = matches("cc", "c1ccccc1-c1ccccc1")
        b = matches("cc", "c1ccccc1-c1ccccc1")
        assert a == b == sorted(a)


class TestAgainstBruteForce:
    PATTERNS = [
        "C", "O", "N", "c", "[C;H2]", "[N;H2]", "[O;H1]", "C=O", "CC",
        "CO", "C=C", "CN", "[C;D2]", "C~N", "CCC", "C(C)C", "C=CC",
        "[C,N]", "[C;R]", "[C;R0]", "c:c", "cC", "[S,O]", "C#N",
    ]

    def test_matcher_equals_enumeration(self):
        rng = np.random.default_rng(2718)
        queries = [parse_pattern(p) for p in self.PATTERNS]
        checked = 0
        while checked < 500:
            graph = random_molecule(rng)
            if len(graph) > 8:
                continue
            query = queries[int(rng.integers(len(queries)))]
            got = match_pattern(query, graph)
            edges = [
                (b.a1, b.a2, b.matches) for b in query.bonds
            ]
            want = all_injections_matching(
                lambda q, i: query.atoms[q].matches(graph, i),
                [(a, b, lambda bond, m=m: m(bond.order)) for a, b, m in edges],
                len(query.atoms),
                graph,
            )
            assert got == want
            checked += 1

    def test_has_match_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            graph = random_molecule(rng)
            for p in ("C=O", "[N;H2]", "c"):
                q = parse_pattern(p)
                assert has_match(q, graph) == bool(match_pattern(q, graph))


class TestCompiledPlan:
    # the shipped role patterns plus branched, ring and repeated-bond queries
    PATTERNS = TestAgainstBruteForce.PATTERNS + [
        "[O;H1][C]=O", "[c]([N;H2])[c][N;H2]", "C(=O)[C;H2]C=O", "S(=O)(=O)Cl",
        "[N;+]([O;-])=O", "[N;D2]=C=O", "[c;H1][n;H1]", "c1ccccc1", "C1CC1",
        "C(C)(C)C", "cc(c)c", "[C,c]~[C,c]~[C,c]", "C1C1",
    ]

    def test_plan_visits_every_node_once(self):
        for text in self.PATTERNS:
            query = parse_pattern(text)
            order = [q for q, _, _ in query.plan]
            assert sorted(order) == list(range(len(query.atoms)))
            for pos, (q, atom, earlier) in enumerate(query.plan):
                assert atom is query.atoms[q]
                assert all(order.index(nbr) < pos for nbr, _ in earlier)
                assert bool(earlier) == (pos > 0)

    def test_reused_query_equals_fresh_parse(self):
        rng = np.random.default_rng(1618)
        queries = {text: parse_pattern(text) for text in self.PATTERNS}
        for _ in range(150):
            graph = random_molecule(rng)
            for text, query in queries.items():
                want = match_pattern(parse_pattern(text), graph)
                assert match_pattern(query, graph) == want
                assert want == match_pattern_per_call(query, graph)
                assert match_pattern(query, graph, limit=2) == match_pattern_per_call(
                    query, graph, limit=2
                )
                assert has_match(query, graph) == bool(want)


class TestCountPrefilter:
    """match_pattern rejects a graph short of an atom kind the query needs
    before it searches; the per-call oracle has no such check, so any
    result the prefilter changed would show as a mismatch."""

    @staticmethod
    def assert_equals_oracle(query, graph):
        for limit in (None, 1):
            assert match_pattern(query, graph, limit) == match_pattern_per_call(
                query, graph, limit
            )

    def test_needs_count_single_kind_nodes(self):
        assert dict(parse_pattern("[c]B([O;H1])[O;H1]").needs) == {
            ("C", True): 1, ("B", False): 1, ("O", False): 2,
        }
        # alternatives and element-free nodes need nothing
        assert parse_pattern("[C,N]~[D2]").needs == ()
        assert dict(parse_pattern("[C,c]C(=O)O").needs) == {("C", False): 1, ("O", False): 2}

    def test_random_graphs_equal_oracle(self):
        rng = np.random.default_rng(4242)
        queries = [parse_pattern(text) for text in TestCompiledPlan.PATTERNS]
        for _ in range(150):
            graph = random_molecule(rng)
            for query in queries:
                self.assert_equals_oracle(query, graph)

    def test_every_shipped_block_against_every_shipped_role(self):
        library = ingest_building_blocks(str(DATA / "building_blocks.tsv"))
        templates = ingest_reaction_templates(str(DATA / "reactions.txt"))
        rejected = 0
        for template in templates:
            for role in template.roles:
                for block in library.blocks:
                    by_kind = block.graph.atoms_by_kind()
                    rejected += any(len(by_kind.get(kind, ())) < need for kind, need in role.needs)
                    self.assert_equals_oracle(role, block.graph)
        assert rejected > 0  # the prefilter is exercised, not just present

    def test_first_node_tries_only_its_kinds(self, monkeypatch):
        """The first query node is tried on the graph's atoms of the kinds
        it allows, in ascending order, and on no other atom."""
        graph = parse_smiles("c1ccccc1CC(=O)NCCBr")
        tried = []
        original = AtomPattern.matches

        def recording(pattern, target, index):
            if pattern is query.plan[0][1]:
                tried.append(index)
            return original(pattern, target, index)

        monkeypatch.setattr(AtomPattern, "matches", recording)
        for text, kinds in (("[N,Br]C", {"N", "Br"}), ("C(=O)N", {"C"}), ("[D1]C", None)):
            query = parse_pattern(text)
            tried.clear()
            match_pattern(query, graph)
            atoms = graph.atoms
            want = [a.index for a in atoms if kinds is None or (a.element in kinds and not a.aromatic)]
            assert tried == want, text
            self.assert_equals_oracle(query, graph)

    @pytest.mark.parametrize(
        "pattern, smiles, expected",
        [
            # suzuki's boronic acid role needs two [O;H1]: one short, then met
            ("[c]B([O;H1])[O;H1]", "c1ccccc1B(O)C", 0),
            ("[c]B([O;H1])[O;H1]", "c1ccccc1B(O)O", 2),
            # the only O is used twice over: met by count, not by structure
            ("[c]B([O;H1])[O;H1]", "c1ccccc1B(O)F", 0),
            # aromaticity is part of the kind
            ("[c]Br", "CBr", 0),
            ("[c]Br", "c1ccccc1Br", 1),
            # a need met exactly by a repeated node
            ("CC", "CC", 2),
            ("CCC", "CC", 0),
            ("ClCBr", "ClCBr", 1),
            ("ClCBr", "ClCCl", 0),
        ],
    )
    def test_boundary_graphs(self, pattern, smiles, expected):
        query = parse_pattern(pattern)
        graph = parse_smiles(smiles)
        assert len(match_pattern(query, graph)) == expected
        self.assert_equals_oracle(query, graph)
