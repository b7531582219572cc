import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import apply_reaction_every_combination, compatibility_table
from randmol import permute_graph

from fluorgen import smiles as smiles_module
from fluorgen.fingerprints import FP_WORDS, morgan_fingerprint, morgan_fingerprints, pack
from fluorgen.molgraph import BondOrder, sp2_network_size
from fluorgen.patterns import has_match, parse_pattern
from fluorgen.reactions import (
    CompatibilityIndex,
    EditOp,
    ReactionFormatError,
    ReactionTemplate,
    apply_reaction,
    ingest_building_blocks,
    ingest_reaction_templates,
)
from fluorgen.smiles import parse_smiles, write_canonical_smiles

DATA = Path(__file__).resolve().parent.parent / "data"


def canon(smiles):
    return write_canonical_smiles(parse_smiles(smiles))


@pytest.fixture(scope="module")
def templates():
    return {t.id: t for t in ingest_reaction_templates(str(DATA / "reactions.txt"))}


@pytest.fixture(scope="module")
def library():
    return ingest_building_blocks(str(DATA / "building_blocks.tsv"))


class TestShippedLibrary:
    def test_all_blocks_parse(self, library):
        assert library.rejected == ()
        assert len(library) >= 50

    def test_template_count_and_arities(self, templates):
        assert len(templates) == 14
        assert templates["nitro_reduction"].arity == 1
        assert templates["dipyrromethane"].arity == 3
        assert all(1 <= t.arity <= 3 for t in templates.values())

    def test_every_template_viable(self, templates, library):
        index = CompatibilityIndex(library, tuple(templates.values()))
        assert sorted(index.viable_templates()) == sorted(templates)

    def test_reactions_build_no_atom_or_bond(self, templates, constructed_objects):
        """Matching, reaction edits, canonical strings, fingerprints and the
        sp2 count read a graph's columns: ingesting the library, indexing
        it and running each template on its first compatible blocks, then
        on a product, constructs no Atom and no Bond."""
        library = ingest_building_blocks(str(DATA / "building_blocks.tsv"))
        index = CompatibilityIndex(library, tuple(templates.values()))
        products = []
        for template in templates.values():
            reactants = [
                library.blocks[index.compatible_blocks(template.id, role)[0]].graph
                for role in range(template.arity)
            ]
            products += apply_reaction(template, reactants).products
        # a second step, with a product in one role
        product, template, role = next(
            (product, template, role)
            for product in products
            for template in templates.values()
            for role, pattern in enumerate(template.roles)
            if has_match(pattern, product)
        )
        reactants = [
            product if k == role else library.blocks[index.compatible_blocks(template.id, k)[0]].graph
            for k in range(template.arity)
        ]
        products += apply_reaction(template, reactants).products
        for product in products:
            write_canonical_smiles(product)
            sp2_network_size(product)
        morgan_fingerprints(products)
        assert len(products) > len(templates) and constructed_objects == []

    def test_compatible_blocks_for_acid_role(self, templates, library):
        index = CompatibilityIndex(library, tuple(templates.values()))
        acids = index.compatible_blocks("amide", 0)
        assert {library.blocks[k].id for k in acids} == {
            "benzoic_acid",
            "cinnamic_acid",
            "thiophene_acid",
            "acetic_acid",
            "hexanoic_acid",
            "furoic_acid",
            "nicotinic_acid",
            "naphthoic_acid",
            "fluorobenzoic_acid",
            "anisic_acid",
            "toluic_acid",
            "phenylacetic_acid",
            "cyclohexanecarboxylic_acid",
            "pivalic_acid",
            "benzofuran_acid",
            "bromobenzoic_acid",
            "aminobenzoic_acid",
        }

    def test_compatibility_cache_returns_same_object(self, templates, library):
        index = CompatibilityIndex(library, tuple(templates.values()))
        first = index.compatible_blocks("suzuki", 1)
        assert index.compatible_blocks("suzuki", 1) is first

    def test_words_are_packed_block_fingerprints(self, library):
        """One packed row per block, in library order."""
        assert library.words.shape == (len(library.blocks), FP_WORDS)
        assert library.words.dtype == np.uint64
        for k, block in enumerate(library.blocks):
            assert np.array_equal(library.words[k], pack([morgan_fingerprint(block.graph)])[0])


def assert_index_equals_table(library, templates):
    index = CompatibilityIndex(library, templates)
    table = compatibility_table(library, templates)
    for (template_id, role), blocks in table.items():
        # the oracle lists ids in library order, so equal ids mean ascending positions
        positions = index.compatible_blocks(template_id, role)
        assert positions.dtype == np.intp, (template_id, role)
        assert tuple(library.blocks[k].id for k in positions) == blocks, (template_id, role)
    viable = tuple(
        t.id for t in templates if all(table[(t.id, role)] for role in range(t.arity))
    )
    assert index.viable_templates() == viable
    return index


class TestCompatibilityIndex:
    def test_shipped_files_equal_brute_force(self, templates, library):
        index = assert_index_equals_table(library, tuple(templates.values()))
        assert index.viable_templates() == tuple(templates)  # file order

    def test_unary_role_without_blocks_is_not_viable(self, templates, library):
        # no shipped block holds a secondary amide, but the amide products do
        tag = ReactionTemplate("amide_tag", 1, (parse_pattern("O=C[N;H1]"),), ())
        index = assert_index_equals_table(library, (tag, templates["amide"]))
        assert index.compatible_blocks("amide_tag", 0).tolist() == []
        assert index.viable_templates() == ("amide",)


class TestWorkedProducts:
    def run(self, templates, name, *smiles):
        template = templates[name]
        reactants = [parse_smiles(s) for s in smiles]
        return apply_reaction(template, reactants)

    def products(self, templates, name, *smiles):
        result = self.run(templates, name, *smiles)
        return [write_canonical_smiles(p) for p in result.products]

    def test_amide(self, templates):
        got = self.products(templates, "amide", "OC(=O)c1ccccc1", "Nc1ccccc1")
        assert got == [canon("O=C(Nc1ccccc1)c1ccccc1")]

    def test_amide_minimal_pair(self, templates):
        got = self.products(templates, "amide", "CC(=O)O", "NC")
        assert got == [canon("CC(=O)NC")]

    def test_suzuki(self, templates):
        got = self.products(templates, "suzuki", "OB(O)c1ccccc1", "Brc1ccccc1")
        assert got == [canon("c1ccc(-c2ccccc2)cc1")]

    def test_pyrazole_ring_formation(self, templates):
        got = self.products(
            templates, "knorr_pyrazole", "NNc1ccccc1", "CC(=O)CC(C)=O"
        )
        assert got == [canon("Cc1cc(C)n(-c2ccccc2)n1")]

    def test_pyrazole_regiochemistry_gives_two_products(self, templates):
        # Unsymmetric diketone: the two carbonyl assignments differ.
        result = self.run(
            templates, "knorr_pyrazole", "CNN", "CC(=O)CC(=O)c1ccccc1"
        )
        got = [write_canonical_smiles(p) for p in result.products]
        assert len(got) == 2
        assert canon("Cc1cc(-c2ccccc2)n(C)n1") in got
        assert canon("Cc1cc(-c2ccccc2)nn1C") in got

    def test_benzimidazole_ring_formation(self, templates):
        got = self.products(
            templates, "benzimidazole", "Nc1ccccc1N", "O=Cc1ccccc1"
        )
        assert got == [canon("N1=C(c2ccccc2)Nc2ccccc21")]

    def test_imine_vs_reductive_amination(self, templates):
        imine = self.products(templates, "imine", "Nc1ccccc1", "O=Cc1ccccc1")
        amine = self.products(
            templates, "reductive_amination", "Nc1ccccc1", "O=Cc1ccccc1"
        )
        assert imine == [canon("C(=Nc1ccccc1)c1ccccc1")]
        assert amine == [canon("C(Nc1ccccc1)c1ccccc1")]
        assert imine != amine

    def test_williamson_ether(self, templates):
        got = self.products(templates, "williamson", "Oc1ccccc1", "BrCc1ccccc1")
        assert got == [canon("C(Oc1ccccc1)c1ccccc1")]

    def test_sulfonamide(self, templates):
        got = self.products(
            templates, "sulfonamide", "Cc1ccc(S(=O)(=O)Cl)cc1", "NCCCC"
        )
        assert got == [canon("Cc1ccc(S(=O)(=O)NCCCC)cc1")]

    def test_n_arylation(self, templates):
        got = self.products(templates, "n_arylation", "Brc1ccccc1", "C1COCCN1")
        assert got == [canon("C1COCCN1c1ccccc1")]

    def test_sonogashira(self, templates):
        got = self.products(templates, "sonogashira", "Brc1ccccc1", "C#Cc1ccccc1")
        assert got == [canon("c1ccc(C#Cc2ccccc2)cc1")]

    def test_urea_keeps_all_atoms(self, templates):
        reactants = [parse_smiles("O=C=Nc1ccccc1"), parse_smiles("NCCCC")]
        result = apply_reaction(templates["urea"], reactants)
        got = [write_canonical_smiles(p) for p in result.products]
        assert got == [canon("O=C(Nc1ccccc1)NCCCC")]
        assert len(result.products[0]) == sum(len(r) for r in reactants)

    def test_chalcone(self, templates):
        got = self.products(templates, "chalcone", "O=Cc1ccccc1", "CC(=O)c1ccccc1")
        assert got == [canon("O=C(C=Cc1ccccc1)c1ccccc1")]

    def test_nitro_reduction_arity_one(self, templates):
        got = self.products(templates, "nitro_reduction", "[N+](=O)([O-])c1ccccc1")
        assert got == [canon("Nc1ccccc1")]

    def test_dipyrromethane_three_roles(self, templates):
        got = self.products(
            templates, "dipyrromethane", "O=Cc1ccccc1", "c1cc[nH]c1", "c1cc[nH]c1"
        )
        assert got == [canon("C(c1ccc[nH]1)(c1ccc[nH]1)c1ccccc1")]

    def test_symmetric_matches_deduplicate(self, templates):
        result = self.run(
            templates, "suzuki", "OB(O)c1ccccc1", "Brc1ccc(Br)cc1"
        )
        assert len(result.products) == 1
        assert result.skipped == 0
        assert [write_canonical_smiles(p) for p in result.products] == [
            canon("Brc1ccc(-c2ccccc2)cc1")
        ]


class TestApplySemantics:
    def test_returned_smiles_are_canonical_smiles_of_products(self, templates, library):
        import random

        rng = random.Random(11)
        index = CompatibilityIndex(library, tuple(templates.values()))
        checked = 0
        for template in templates.values():
            for _ in range(4):
                reactants = [
                    library.blocks[rng.choice(index.compatible_blocks(template.id, role))].graph
                    for role in range(template.arity)
                ]
                result = apply_reaction(template, reactants)
                assert len(result.smiles) == len(result.products)
                assert result.smiles == tuple(
                    write_canonical_smiles(p) for p in result.products
                )
                assert list(result.smiles) == sorted(set(result.smiles))
                checked += len(result.products)
        assert checked > 0

    def test_product_independent_of_atom_order(self, templates):
        import random

        rng = random.Random(7)
        acid = parse_smiles("OC(=O)c1ccc2ccccc2c1")
        amine = parse_smiles("NC1CCCCC1")
        reference = [
            write_canonical_smiles(p)
            for p in apply_reaction(templates["amide"], [acid, amine]).products
        ]
        for _ in range(5):
            pa = list(range(len(acid)))
            pb = list(range(len(amine)))
            rng.shuffle(pa)
            rng.shuffle(pb)
            shuffled = apply_reaction(
                templates["amide"], [permute_graph(acid, pa), permute_graph(amine, pb)]
            )
            assert [write_canonical_smiles(p) for p in shuffled.products] == reference

    def test_product_hybridization_reset(self, templates):
        from fluorgen.molgraph import perceive_hybridization

        acid = perceive_hybridization(parse_smiles("CC(O)=O"))
        amine = perceive_hybridization(parse_smiles("NC"))
        product = apply_reaction(templates["amide"], [acid, amine]).products[0]
        assert all(a.hybridization is None for a in product.atoms)

    def test_arity_mismatch_raises(self, templates):
        with pytest.raises(ValueError, match="needs 2 reactants"):
            apply_reaction(templates["amide"], [parse_smiles("CC(O)=O")])

    def test_role_without_match_raises(self, templates):
        with pytest.raises(ValueError, match="does not match"):
            apply_reaction(
                templates["amide"], [parse_smiles("CCO"), parse_smiles("NC")]
            )

    def test_duplicate_bond_conflict_counts_as_skipped(self):
        template = ReactionTemplate(
            id="t",
            arity=1,
            roles=(parse_pattern("CC"),),
            edits=(EditOp(kind="add_bond", a=(0, 0), b=(0, 1), order=BondOrder.SINGLE),),
        )
        result = apply_reaction(template, [parse_smiles("CC")])
        assert result.products == ()
        assert result.skipped == 2  # both orientations of the C-C match

    def test_valence_overflow_counts_as_skipped(self):
        template = ReactionTemplate(
            id="t",
            arity=2,
            roles=(parse_pattern("[C;D4]"), parse_pattern("[C;H3]")),
            edits=(EditOp(kind="add_bond", a=(0, 0), b=(1, 0), order=BondOrder.SINGLE),),
        )
        result = apply_reaction(
            template, [parse_smiles("CC(C)(C)C"), parse_smiles("CC")]
        )
        assert result.products == ()
        assert result.skipped == 2

    def test_mixed_valid_and_invalid_combinations(self):
        # The hydroxyl oxygen can take another bond, the ether oxygen cannot.
        template = ReactionTemplate(
            id="t",
            arity=2,
            roles=(parse_pattern("[O]"), parse_pattern("[C;H3]")),
            edits=(EditOp(kind="add_bond", a=(0, 0), b=(1, 0), order=BondOrder.SINGLE),),
        )
        result = apply_reaction(
            template, [parse_smiles("COCCO"), parse_smiles("CC")]
        )
        # 2 oxygens x 2 equivalent ethane carbons: the ether oxygen fails
        # twice, the hydroxyl products collapse to one.
        assert result.skipped == 2
        assert [write_canonical_smiles(p) for p in result.products] == [
            canon("COCCOCC")
        ]

    def test_deleting_every_atom_is_skipped(self):
        template = ReactionTemplate(
            id="t",
            arity=1,
            roles=(parse_pattern("[O;H2]"),),
            edits=(EditOp(kind="delete_atom", a=(0, 0)),),
        )
        result = apply_reaction(template, [parse_smiles("O")])
        assert result.products == ()
        assert result.skipped == 1

    def test_edit_after_delete_is_conflict(self):
        template = ReactionTemplate(
            id="t",
            arity=1,
            roles=(parse_pattern("CO"),),
            edits=(
                EditOp(kind="delete_atom", a=(0, 1)),
                EditOp(kind="set_charge", a=(0, 1), charge=-1),
            ),
        )
        result = apply_reaction(template, [parse_smiles("CO")])
        assert result.products == ()
        assert result.skipped == 1


class TestTemplateValidation:
    def test_edit_role_out_of_range(self):
        with pytest.raises(ReactionFormatError, match="references role 1"):
            ReactionTemplate(
                id="t",
                arity=1,
                roles=(parse_pattern("C"),),
                edits=(EditOp(kind="delete_atom", a=(1, 0)),),
            )

    def test_edit_node_out_of_range(self):
        with pytest.raises(ReactionFormatError, match="references node 5"):
            ReactionTemplate(
                id="t",
                arity=1,
                roles=(parse_pattern("CC"),),
                edits=(EditOp(kind="delete_atom", a=(0, 5)),),
            )

    def test_arity_bounds(self):
        with pytest.raises(ReactionFormatError, match="arity"):
            ReactionTemplate(id="t", arity=4, roles=(), edits=())

    def test_roles_must_match_arity(self):
        with pytest.raises(ReactionFormatError, match="roles"):
            ReactionTemplate(id="t", arity=2, roles=(parse_pattern("C"),), edits=())


class TestFileParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "reactions.txt"
        path.write_text(text)
        return str(path)

    def test_duplicate_reaction_id(self, tmp_path):
        text = (
            "reaction a\narity 1\nrole 0 C\nedit delete_atom 0.0\nend\n"
            "reaction a\narity 1\nrole 0 C\nedit delete_atom 0.0\nend\n"
        )
        with pytest.raises(ReactionFormatError, match="duplicate reaction id"):
            ingest_reaction_templates(self.write(tmp_path, text))

    def test_unterminated_block(self, tmp_path):
        with pytest.raises(ReactionFormatError, match="unterminated"):
            ingest_reaction_templates(self.write(tmp_path, "reaction a\narity 1\nrole 0 C\n"))

    def test_missing_role_index(self, tmp_path):
        text = "reaction a\narity 2\nrole 0 C\nend\n"
        with pytest.raises(ReactionFormatError, match="roles must cover"):
            ingest_reaction_templates(self.write(tmp_path, text))

    def test_unknown_edit_kind(self, tmp_path):
        text = "reaction a\narity 1\nrole 0 C\nedit explode 0.0\nend\n"
        with pytest.raises(ReactionFormatError, match="unknown edit kind"):
            ingest_reaction_templates(self.write(tmp_path, text))

    def test_bad_atom_reference_format(self, tmp_path):
        text = "reaction a\narity 1\nrole 0 C\nedit delete_atom zero\nend\n"
        with pytest.raises(ReactionFormatError, match="bad atom reference"):
            ingest_reaction_templates(self.write(tmp_path, text))

    # digits of other scripts, and superscripts, are no integers here
    @pytest.mark.parametrize("line,message", [
        ("arity \u0661", "arity needs one integer"),
        ("role \u0660 C", "role line is 'role <index> <pattern>'"),
        ("role ² C", "role line is 'role <index> <pattern>'"),
        ("edit delete_atom 0.\u0660", "bad atom reference '0.\u0660', expected role.node"),
        ("edit delete_atom ².0", "bad atom reference '².0', expected role.node"),
        ("edit set_charge 0.0 \u0661", "bad charge '\u0661'"),
        ("edit set_charge 0.0 +²", "bad charge '+²'"),
    ])
    def test_only_ascii_digits(self, tmp_path, line, message):
        path = self.write(tmp_path, f"reaction a\narity 1\nrole 0 C\n{line}\nend\n")
        with pytest.raises(ReactionFormatError) as err:
            ingest_reaction_templates(path)
        assert str(err.value) == f"{path}:4: {message}"

    def test_signed_charge_accepted(self, tmp_path):
        text = "reaction a\narity 1\nrole 0 N\nedit set_charge 0.0 +1\nend\n"
        (template,) = ingest_reaction_templates(self.write(tmp_path, text))
        assert template.edits[0].charge == 1

    def test_edit_outside_block(self, tmp_path):
        with pytest.raises(ReactionFormatError, match="outside a reaction block"):
            ingest_reaction_templates(self.write(tmp_path, "edit delete_atom 0.0\n"))

    def test_arity_out_of_range_names_file_and_line(self, tmp_path):
        path = self.write(tmp_path, "reaction r1\narity 0\nend\n")
        with pytest.raises(ReactionFormatError) as caught:
            ingest_reaction_templates(path)
        assert str(caught.value) == f"{path}:3: reaction r1: arity 0 outside 1..3"

    def test_edit_role_out_of_range_names_file_and_line(self, tmp_path):
        text = "reaction r1\narity 1\nrole 0 C\nedit delete_atom 1.0\nend\n"
        path = self.write(tmp_path, text)
        with pytest.raises(ReactionFormatError) as caught:
            ingest_reaction_templates(path)
        assert str(caught.value) == f"{path}:5: reaction r1: edit references role 1"

    def test_bad_role_pattern_reports_line(self, tmp_path):
        text = "reaction a\narity 1\nrole 0 [Qx]\nend\n"
        with pytest.raises(ReactionFormatError, match=":3:"):
            ingest_reaction_templates(self.write(tmp_path, text))

    def test_block_file_duplicate_id(self, tmp_path):
        path = tmp_path / "blocks.tsv"
        path.write_text("# blocks\na\tCC\nb\tCCO\na\tCCC\n")
        with pytest.raises(ReactionFormatError) as caught:
            ingest_building_blocks(str(path))
        assert str(caught.value) == f"{path}:4: duplicate block id 'a'"

    @pytest.mark.parametrize("block_id", ["a,b", "a;b", "a(b", "a)b", "@prev", ",", "(x)"])
    def test_block_id_a_route_cannot_hold_names_file_and_line(self, block_id, tmp_path):
        path = tmp_path / "blocks.tsv"
        path.write_text(f"# blocks\nok\tCC\n{block_id}\tCCC\n")
        with pytest.raises(ReactionFormatError) as caught:
            ingest_building_blocks(str(path))
        assert str(caught.value).startswith(f"{path}:3: block id {block_id!r}")

    @pytest.mark.parametrize("template_id", ["r,1", "r;1", "r(1", "r)1"])
    def test_template_id_a_route_cannot_hold_names_file_and_line(self, template_id, tmp_path):
        text = (
            "reaction ok\narity 1\nrole 0 C\nedit delete_atom 0.0\nend\n"
            f"reaction {template_id}\narity 1\nrole 0 C\nedit delete_atom 0.0\nend\n"
        )
        path = self.write(tmp_path, text)
        with pytest.raises(ReactionFormatError) as caught:
            ingest_reaction_templates(path)
        assert str(caught.value).startswith(f"{path}:6: reaction id {template_id!r}")

    def test_marker_is_a_fine_template_id_and_near_misses_fine_block_ids(self, tmp_path):
        text = "reaction @prev\narity 1\nrole 0 C\nedit delete_atom 0.0\nend\n"
        assert [t.id for t in ingest_reaction_templates(self.write(tmp_path, text))] == ["@prev"]
        path = tmp_path / "blocks.tsv"
        path.write_text("@prev2\tCC\na->b\tCCC\na b\tCCCC\n")
        assert [b.id for b in ingest_building_blocks(str(path)).blocks] == ["@prev2", "a->b", "a b"]

    def test_block_file_bad_smiles_reported(self, tmp_path):
        path = tmp_path / "blocks.tsv"
        path.write_text("a\tCC\nb\tC(C\nc\tnot smiles\n")
        library = ingest_building_blocks(str(path))
        assert [b.id for b in library.blocks] == ["a"]
        assert len(library.rejected) == 2
        assert any("line 2" in r for r in library.rejected)

    def test_block_file_malformed_line_reported(self, tmp_path):
        path = tmp_path / "blocks.tsv"
        path.write_text("a\tCC\nno_tab_here\n")
        library = ingest_building_blocks(str(path))
        assert len(library) == 1
        assert "line 2" in library.rejected[0]

    def test_block_file_empty_rejected(self, tmp_path):
        path = tmp_path / "blocks.tsv"
        path.write_text("# only comments\n")
        with pytest.raises(ReactionFormatError, match="no valid building blocks"):
            ingest_building_blocks(str(path))


@pytest.fixture
def searches(monkeypatch):
    """(graph id, component) of every canonical search from here on."""
    calls = []
    original = smiles_module._fragment_canonical

    def counted(graph, subset):
        calls.append((id(graph), tuple(subset)))
        return original(graph, subset)

    monkeypatch.setattr(smiles_module, "_fragment_canonical", counted)
    return calls


class TestDeferredCanonicalization:
    """apply_reaction writes strings only to order two or more valid
    combinations; blocks and lone products are written when read. The
    results must equal an application that writes every combination."""

    @staticmethod
    def assert_equals_oracle(template, reactants):
        result = apply_reaction(template, reactants)
        products, smiles, skipped = apply_reaction_every_combination(template, reactants)
        assert [(p.atoms, p.bonds) for p in result.products] == [
            (p.atoms, p.bonds) for p in products
        ]
        assert result.smiles == smiles
        assert result.skipped == skipped
        return result

    def test_shipped_templates_random_blocks_and_two_step_products(self, templates, library):
        import random

        rng = random.Random(19)
        index = CompatibilityIndex(library, tuple(templates.values()))
        viable = index.viable_templates()
        second_steps = 0
        for template_id in viable * 6:
            template = templates[template_id]
            chosen = [
                library.blocks[rng.choice(index.compatible_blocks(template_id, role))].graph
                for role in range(template.arity)
            ]
            result = self.assert_equals_oracle(template, chosen)
            if not result.products:
                continue
            product = result.products[rng.randrange(len(result.products))]
            # react the product again through each role it fits (@prev)
            for follow in templates.values():
                if follow.arity > 1 and follow.id not in viable:
                    continue
                for role, pattern in enumerate(follow.roles):
                    if not has_match(pattern, product):
                        continue
                    reactants = [
                        product if k == role else library.blocks[
                            rng.choice(index.compatible_blocks(follow.id, k))
                        ].graph
                        for k in range(follow.arity)
                    ]
                    self.assert_equals_oracle(follow, reactants)
                    second_steps += 1
        assert second_steps > 50

    def test_worked_multi_combination_cases(self, templates):
        cases = [
            ("knorr_pyrazole", "CNN", "CC(=O)CC(=O)c1ccccc1"),  # two products
            ("suzuki", "OB(O)c1ccccc1", "Brc1ccc(Br)cc1"),  # four combinations, one product
            ("amide", "OC(=O)c1ccccc1", "Nc1ccccc1"),  # one combination
        ]
        for name, *smiles in cases:
            self.assert_equals_oracle(templates[name], [parse_smiles(s) for s in smiles])

    def test_ingest_writes_no_string(self, searches):
        library = ingest_building_blocks(str(DATA / "building_blocks.tsv"))
        assert searches == []
        for block in library.blocks:
            assert block.smiles == write_canonical_smiles(block.graph)
        with open(DATA / "building_blocks.tsv", encoding="utf-8") as handle:
            rows = [line.split("\t") for line in handle if line.strip() and line[0] != "#"]
        assert [b.smiles for b in library.blocks] == [canon(text.strip()) for _, text in rows]

    def test_each_graph_searched_at_most_once(self, templates, library, searches):
        for block in library.blocks:
            assert block.smiles == block.smiles
        assert len(searches) == len(set(searches))
        block_searches = len(searches)

        lone = apply_reaction(
            templates["amide"], [parse_smiles("OC(=O)c1ccccc1"), parse_smiles("Nc1ccccc1")]
        )
        assert len(searches) == block_searches  # nothing written until read
        assert lone.smiles == lone.smiles == (canon("O=C(Nc1ccccc1)c1ccccc1"),)

        pair = apply_reaction(
            templates["knorr_pyrazole"], [parse_smiles("CNN"), parse_smiles("CC(=O)CC(=O)c1ccccc1")]
        )
        written = len(searches)
        assert len(pair.smiles) == 2
        assert len(searches) == written  # ordering the pair wrote both already
        assert len(searches) == len(set(searches))
