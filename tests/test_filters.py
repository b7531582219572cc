"""Tests for staged filtering, Tanimoto clustering, and novelty."""

import ast
import hashlib
import itertools
import random
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluorgen import cli
from fluorgen.fingerprints import (
    FEATURE_DIM,
    FP_WORDS,
    Fingerprint,
    WATER,
    morgan_fingerprint,
    pack,
    tanimoto,
)
from fluorgen.filters import (
    HISTOGRAM_BINS,
    HISTOGRAM_KINDS,
    ClusterAssignment,
    FilterError,
    FilterReport,
    FilterThresholds,
    UnparsableSmiles,
    cluster_similarity_histogram,
    cluster_tanimoto,
    distance_matrix,
    is_novel,
    novelty,
    run_filters,
    select_representatives,
    write_binned_histogram,
    write_cluster_assignment,
    write_filter_report,
    write_similarity_histogram,
)
from fluorgen.molgraph import Atom, sp2_network_size
from fluorgen.scorers import Head, MlpModel, PropertyScorer, ScorerKind, score_rows
from fluorgen.smiles import parse_smiles

from corpus import CORPUS
from oracles import (
    cluster_tanimoto_matrix,
    distance_matrix_loop,
    novelty_loop,
    representatives_loop,
    run_filters_loop,
    similarity_histogram_loop,
)


BIPHENYL = "c1ccc(-c2ccccc2)cc1"  # sp2 network of exactly 12
INDOLE_ALDEHYDE = "O=Cc1cc2ccccc2[nH]1"  # 9 ring atoms + C + O = 11
ANTHRACENE = "c1ccc2cc3ccccc3cc2c1"  # 14
BUTANE = "CCCC"  # 0


def const_model(value, head):
    return MlpModel(
        w1=np.zeros((4, FEATURE_DIM)),
        b1=np.zeros(4),
        w2=np.zeros(4),
        b2=float(value),
        head=head,
        norm_mean=np.zeros(4),
        norm_std=np.ones(4),
    )


def const_scorers(plqy_logit=0.0, absorption=450.0, emission=500.0):
    return {
        ScorerKind.PLQY_PROB: PropertyScorer(
            ScorerKind.PLQY_PROB, const_model(plqy_logit, Head.SIGMOID)
        ),
        ScorerKind.ABS_NM: PropertyScorer(
            ScorerKind.ABS_NM, const_model(absorption, Head.LINEAR)
        ),
        ScorerKind.EM_NM: PropertyScorer(
            ScorerKind.EM_NM, const_model(emission, Head.LINEAR)
        ),
        ScorerKind.SP2_SIZE: PropertyScorer(ScorerKind.SP2_SIZE),
    }


class TestStageOracles:
    def test_sp2_sizes_match_expectations(self):
        assert sp2_network_size(parse_smiles(BIPHENYL)) == 12
        assert sp2_network_size(parse_smiles(INDOLE_ALDEHYDE)) == 11
        assert sp2_network_size(parse_smiles(ANTHRACENE)) == 14
        assert sp2_network_size(parse_smiles(BUTANE)) == 0


class TestRunFilters:
    def test_sp2_boundary_keeps_12_rejects_11(self):
        survivors, report, _ = run_filters(
            [BIPHENYL, INDOLE_ALDEHYDE], const_scorers(), WATER
        )
        assert survivors == (BIPHENYL,)
        assert report.rejected == (1, 0, 0, 0)
        assert report.remaining == (1, 1, 1, 1)

    def test_plqy_boundary_is_inclusive(self):
        # logit 0 gives probability exactly 0.5
        survivors, _, _ = run_filters([BIPHENYL], const_scorers(plqy_logit=0.0), WATER)
        assert survivors == (BIPHENYL,)
        survivors, report, _ = run_filters([BIPHENYL], const_scorers(plqy_logit=-1.0), WATER)
        assert survivors == ()
        assert report.rejected == (0, 1, 0, 0)

    @pytest.mark.parametrize("nm,kept", [(419.0, False), (420.0, True), (750.0, True), (751.0, False)])
    def test_absorption_window_boundaries(self, nm, kept):
        survivors, report, _ = run_filters(
            [BIPHENYL], const_scorers(absorption=nm), WATER
        )
        assert (len(survivors) == 1) is kept
        if not kept:
            assert report.rejected == (0, 0, 1, 0)

    def test_emission_stage_is_last(self):
        survivors, report, _ = run_filters(
            [BIPHENYL], const_scorers(emission=900.0), WATER
        )
        assert survivors == ()
        assert report.rejected == (0, 0, 0, 1)

    def test_rejection_charged_to_first_failing_stage(self):
        # butane fails every stage; only sp2 should record it
        _, report, _ = run_filters(
            [BUTANE], const_scorers(plqy_logit=-50.0, absorption=0.0), WATER
        )
        assert report.rejected == (1, 0, 0, 0)

    def test_empty_input(self):
        survivors, report, _ = run_filters([], const_scorers(), WATER)
        assert survivors == ()
        assert report.total == 0
        assert report.remaining == (0, 0, 0, 0)

    def test_survivor_set_invariant_under_permutation(self):
        molecules = [BIPHENYL, INDOLE_ALDEHYDE, ANTHRACENE, BUTANE]
        base, _, _ = run_filters(molecules, const_scorers(), WATER)
        shuffled = list(molecules)
        random.Random(3).shuffle(shuffled)
        permuted, _, _ = run_filters(shuffled, const_scorers(), WATER)
        assert set(base) == set(permuted)

    def test_custom_thresholds(self):
        thresholds = FilterThresholds(sp2_min=14)
        survivors, _, _ = run_filters(
            [BIPHENYL, ANTHRACENE], const_scorers(), WATER, thresholds
        )
        assert survivors == (ANTHRACENE,)

    def test_survivor_fingerprints_follow_survivors(self):
        molecules = [ANTHRACENE, BUTANE, BIPHENYL, INDOLE_ALDEHYDE]
        survivors, _, words = run_filters(molecules, const_scorers(), WATER)
        assert survivors == (ANTHRACENE, BIPHENYL)
        assert np.array_equal(words, pack([morgan_fingerprint(parse_smiles(s)) for s in survivors]))

    def test_batched_stages_match_per_molecule_oracle(self, monkeypatch):
        """Random-weight models whose scores straddle every threshold; the
        distinct sp2 survivors are scored once, in 64-row blocks, for every
        model stage."""
        from fluorgen import scorers as scorers_module

        rng = np.random.default_rng(21)

        def random_model(head, bias, scale):
            return MlpModel(
                w1=rng.normal(0, 0.3, (8, FEATURE_DIM)),
                b1=rng.normal(0, 0.1, 8),
                w2=rng.normal(0, scale, 8),
                b2=bias,
                head=head,
                norm_mean=np.zeros(4),
                norm_std=np.ones(4),
            )

        models = {
            ScorerKind.PLQY_PROB: random_model(Head.SIGMOID, 0.5, 2.0),
            ScorerKind.ABS_NM: random_model(Head.LINEAR, 500.0, 150.0),
            ScorerKind.EM_NM: random_model(Head.LINEAR, 650.0, 150.0),
        }
        scorers = {kind: PropertyScorer(kind, model) for kind, model in models.items()}
        scorers[ScorerKind.SP2_SIZE] = PropertyScorer(ScorerKind.SP2_SIZE)
        molecules = list(CORPUS) * 2  # duplicates are scored once
        thresholds = FilterThresholds(sp2_min=6)
        calls = []
        original = scorers_module.csr_array

        def counting(arg, shape):
            calls.append(shape[0])
            return original(arg, shape=shape)

        monkeypatch.setattr(scorers_module, "csr_array", counting)
        survivors, report, _ = run_filters(molecules, scorers, WATER, thresholds)
        monkeypatch.undo()
        assert survivors == run_filters_loop(molecules, scorers, WATER, thresholds)
        assert 0 < len(survivors) < report.remaining[0]
        assert all(rejected > 0 for rejected in report.rejected)
        # one pass of ceil(distinct sp2 survivors / 64) sparse products
        assert len(set(CORPUS)) == len(CORPUS)
        assert max(calls) <= 64
        assert len(calls) == -(-(report.remaining[0] // 2) // 64)

    def test_no_sp2_survivor_reads_no_model(self, monkeypatch):
        from fluorgen import filters

        scored = []
        monkeypatch.setattr(filters, "score_rows", lambda *args: scored.append(args))
        survivors, report, words = run_filters(["CCCC"], {}, WATER)
        assert survivors == () and words.shape == (0, FP_WORDS)
        assert report.remaining == (0, 0, 0, 0) and report.rejected == (1, 0, 0, 0)
        assert scored == []

    def test_model_stages_share_one_scoring_call(self, monkeypatch):
        from fluorgen import filters

        scored = []

        def counting(stack, words, solvent):
            scored.append((stack.count, len(words)))
            return score_rows(stack, words, solvent)

        monkeypatch.setattr(filters, "score_rows", counting)
        molecules = [ANTHRACENE, BUTANE, BIPHENYL, ANTHRACENE]
        survivors, _, _ = run_filters(molecules, const_scorers(), WATER)
        assert survivors == (ANTHRACENE, BIPHENYL, ANTHRACENE)
        assert scored == [(3, 2)]

    def test_each_distinct_smiles_parsed_once(self, monkeypatch):
        from fluorgen import filters

        parsed = []
        original = filters.parse_smiles

        def counting(smiles):
            parsed.append(smiles)
            return original(smiles)

        monkeypatch.setattr(filters, "parse_smiles", counting)
        molecules = [BIPHENYL, ANTHRACENE, BUTANE, BIPHENYL, ANTHRACENE, BIPHENYL]
        survivors, _, words = run_filters(molecules, const_scorers(), WATER)
        assert parsed == [BIPHENYL, ANTHRACENE, BUTANE]
        assert survivors == (BIPHENYL, ANTHRACENE, BIPHENYL, ANTHRACENE, BIPHENYL)
        assert np.array_equal(words, pack([morgan_fingerprint(parse_smiles(s)) for s in survivors]))

    def test_filter_pass_builds_no_atom_or_bond(self, constructed_objects):
        """Parsing, the sp2 count and fingerprinting read a graph's columns,
        so the filter pass over the corpus constructs no Atom and no Bond."""
        assert Atom(0, "C") and constructed_objects == ["Atom"]  # the counter counts
        constructed_objects.clear()
        survivors, report, _ = run_filters(
            CORPUS, const_scorers(), WATER, FilterThresholds(sp2_min=6)
        )
        assert constructed_objects == []
        assert 0 < len(survivors) < len(CORPUS) and report.rejected[0] > 0

    def test_unparsable_smiles_is_named(self):
        with pytest.raises(UnparsableSmiles, match=r"^'C1CC': unmatched ring closure 1") as caught:
            run_filters([BIPHENYL, "C1CC"], const_scorers(), WATER)
        assert caught.value.smiles == "C1CC"
        assert isinstance(caught.value, FilterError)

    def test_report_rejects_inconsistent_counts(self):
        with pytest.raises(FilterError):
            FilterReport(
                stages=("a", "b"), total=3, remaining=(2, 3), rejected=(1, 0)
            )


def histogram_arrays(chunks):
    """The streamed (kind, inter, union) chunks as one float64 array of
    pair similarities per kind, in HISTOGRAM_KINDS order, each divided
    here with Python floats (1.0 for an empty union); every intra chunk
    must come before every inter chunk."""
    kinds = []
    parts = {kind: [] for kind in HISTOGRAM_KINDS}
    for kind, inter, union in chunks:
        assert inter.dtype == union.dtype == np.int32
        assert inter.ndim == 1 and inter.shape == union.shape
        kinds.append(kind)
        parts[kind] += [i / u if u else 1.0 for i, u in zip(inter.tolist(), union.tolist())]
    assert kinds == sorted(kinds, key=HISTOGRAM_KINDS.index)
    return tuple(np.array(parts[kind], dtype=np.float64) for kind in HISTOGRAM_KINDS)


def similarity_line(kind, inter, union) -> str:
    """The raw histogram line of one pair, by float division."""
    return f"{kind}\t{format(inter / union if union else 1.0, '.6g')}\n"


def block_fingerprint(core_bits, extra_bit):
    bits = 0
    for bit in core_bits:
        bits |= 1 << bit
    bits |= 1 << extra_bit
    return Fingerprint(bits=bits)


def two_group_fingerprints(per_group=6):
    group_a = [block_fingerprint((0, 1, 2), 3 + i) for i in range(per_group)]
    group_b = [block_fingerprint((100, 101, 102), 103 + i) for i in range(per_group)]
    return group_a + group_b


class TestClustering:
    def test_two_disjoint_groups_separate_exactly(self):
        fingerprints = two_group_fingerprints()
        assignment = cluster_tanimoto(pack(fingerprints), k=2, seed=0)
        half = len(fingerprints) // 2
        first_half = set(assignment.labels[:half])
        second_half = set(assignment.labels[half:])
        assert len(first_half) == 1 and len(second_half) == 1
        assert first_half != second_half

    def test_k_equals_n_is_identity(self):
        fingerprints = two_group_fingerprints(per_group=3)
        assignment = cluster_tanimoto(pack(fingerprints), k=len(fingerprints), seed=1)
        assert sorted(assignment.labels) == sorted(range(len(fingerprints)))
        for cluster, medoid in enumerate(assignment.medoids):
            assert assignment.labels[medoid] == cluster

    def test_k_one_medoid_minimizes_total_distance(self):
        fingerprints = two_group_fingerprints(per_group=4)
        assignment = cluster_tanimoto(pack(fingerprints), k=1, seed=2)
        distances = distance_matrix(pack(fingerprints))
        totals = distances.sum(axis=1)
        assert totals[assignment.medoids[0]] == pytest.approx(totals.min())

    def test_objective_never_increases(self):
        rng = random.Random(7)
        fingerprints = [
            Fingerprint(bits=rng.getrandbits(2048)) for _ in range(40)
        ]
        assignment = cluster_tanimoto(pack(fingerprints), k=5, seed=3)
        trace = assignment.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic_under_seed(self):
        fingerprints = two_group_fingerprints()
        first = cluster_tanimoto(pack(fingerprints), k=3, seed=5)
        second = cluster_tanimoto(pack(fingerprints), k=3, seed=5)
        assert first == second

    def test_packed_paths_equal_scalar_oracles(self):
        # dense and sparse rows, an empty row and repeats, so distance
        # ties and both-empty pairs occur; sizes straddle the row block,
        # and at k = 1 the 70 and 130 rows cross several PAIR_BLOCKs and
        # the medoid update's QUERY_TILE
        rng = random.Random(11)
        pool = [0, 1 << 2047] + [rng.getrandbits(2048) for _ in range(3)]
        pool += [sum(1 << rng.randrange(2048) for _ in range(12)) for _ in range(3)]
        references = [Fingerprint(bits=rng.choice(pool)) for _ in range(5)]
        for n, k in ((1, 1), (2, 2), (8, 4), (9, 4), (17, 4), (30, 4), (70, 1), (130, 1)):
            fingerprints = [Fingerprint(bits=rng.choice(pool)) for _ in range(n)]
            assert distance_matrix(pack(fingerprints)).tobytes() == (
                distance_matrix_loop(fingerprints).tobytes()
            )
            assignment = cluster_tanimoto(pack(fingerprints), k=k, seed=0)
            assert assignment == cluster_tanimoto_matrix(fingerprints, k=k, seed=0)
            histogram = histogram_arrays(cluster_similarity_histogram(assignment, pack(fingerprints)))
            oracle = similarity_histogram_loop(assignment.labels, fingerprints)
            for got, want in zip(histogram, oracle, strict=True):
                assert got.dtype == np.float64 and got.shape == (len(want),)
                assert got.tolist() == list(want)
            assert select_representatives(assignment, pack(fingerprints)) == representatives_loop(
                assignment.labels, assignment.medoids, fingerprints
            )
            assert novelty(pack(fingerprints), pack(references)) == novelty_loop(fingerprints, references)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_streamed_clustering_equals_full_matrix_oracle(self, data):
        """Labels, medoids, objective floats and histogram values in order,
        exactly, against the full n x n matrix clustering. A small pool
        gives duplicates and distance ties, the empty set an empty row,
        and sizes up to 40 straddle the pair sweep's blocks of PAIR_BLOCK rows."""
        bit_sets = st.sets(st.integers(0, 63) | st.integers(0, 2047), max_size=16)
        pool = data.draw(st.lists(bit_sets, min_size=1, max_size=8))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
        fingerprints = [Fingerprint(bits=sum(1 << bit for bit in pool[i])) for i in picks]
        n = len(fingerprints)
        k = data.draw(st.sampled_from((1, n)) | st.integers(1, n))
        seed = data.draw(st.integers(0, 1000))
        assignment = cluster_tanimoto(pack(fingerprints), k=k, seed=seed)
        assert assignment == cluster_tanimoto_matrix(fingerprints, k=k, seed=seed)
        got = histogram_arrays(cluster_similarity_histogram(assignment, pack(fingerprints)))
        want = similarity_histogram_loop(assignment.labels, fingerprints)
        assert [values.tolist() for values in got] == [list(values) for values in want]

    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_memory_stays_far_below_the_distance_matrix(self, k, tmp_path):
        """3,000 clustered fingerprints: one n x n float64 matrix is 72 MB.
        Clustering, the streamed histogram written to its file, the
        representatives and novelty against 200 references must peak far
        below it, with one cluster holding every row or 100 small ones."""
        rng = random.Random(23)
        centers = [rng.sample(range(2048), 48) for _ in range(100)]

        def near_center():
            bits = set(rng.choice(centers))
            bits.symmetric_difference_update(rng.sample(range(2048), 6))
            return Fingerprint(bits=sum(1 << bit for bit in bits))

        words = pack([near_center() for _ in range(3000)])
        references = pack([near_center() for _ in range(200)])
        tracemalloc.start()
        try:
            assignment = cluster_tanimoto(words, k=k, seed=0)
            counts = write_similarity_histogram(
                cluster_similarity_histogram(assignment, words), tmp_path / "hist.tsv"
            )
            ranked = select_representatives(assignment, words)
            scores = novelty(words, references)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(int(counts[kind].sum()) for kind in HISTOGRAM_KINDS) == 3000 * 2999 // 2
        assert sum(len(members) for _, members in ranked) == 3000
        assert len(scores) == 3000
        assert peak < 20 * 2**20

    def test_too_few_molecules_rejected(self):
        fingerprints = two_group_fingerprints(per_group=1)
        with pytest.raises(FilterError):
            cluster_tanimoto(pack(fingerprints), k=5, seed=0)

    def test_every_cluster_owns_its_medoid(self):
        rng = random.Random(13)
        fingerprints = [Fingerprint(bits=rng.getrandbits(2048)) for _ in range(50)]
        assignment = cluster_tanimoto(pack(fingerprints), k=8, seed=4)
        for cluster, medoid in enumerate(assignment.medoids):
            assert assignment.labels[medoid] == cluster

    def test_bad_assignment_rejected(self):
        with pytest.raises(FilterError):
            ClusterAssignment(k=2, labels=(0, 0), medoids=(0, 1), objective_trace=())


class TestSimilarityHistogram:
    def test_single_cluster_has_no_inter_pairs(self):
        fingerprints = two_group_fingerprints(per_group=2)
        assignment = cluster_tanimoto(pack(fingerprints), k=1, seed=0)
        intra, inter = histogram_arrays(cluster_similarity_histogram(assignment, pack(fingerprints)))
        n = len(fingerprints)
        assert inter.shape == (0,)
        assert len(intra) == n * (n - 1) // 2

    def test_pair_count_is_complete(self):
        fingerprints = two_group_fingerprints()
        assignment = cluster_tanimoto(pack(fingerprints), k=2, seed=0)
        intra, inter = histogram_arrays(cluster_similarity_histogram(assignment, pack(fingerprints)))
        n = len(fingerprints)
        assert len(intra) + len(inter) == n * (n - 1) // 2

    def test_intra_exceeds_inter_on_separated_groups(self):
        fingerprints = two_group_fingerprints()
        assignment = cluster_tanimoto(pack(fingerprints), k=2, seed=0)
        intra, inter = histogram_arrays(cluster_similarity_histogram(assignment, pack(fingerprints)))
        assert sum(intra) / len(intra) > sum(inter) / len(inter)
        assert max(inter) == 0.0  # groups share no bits

    def test_length_mismatch_rejected(self):
        fingerprints = two_group_fingerprints(per_group=2)
        assignment = cluster_tanimoto(pack(fingerprints), k=1, seed=0)
        with pytest.raises(FilterError):
            cluster_similarity_histogram(assignment, pack(fingerprints[:-1]))


    def test_binned_counts_equal_histogram_of_oracle_values(self, tmp_path):
        # duplicates (similarity 1), disjoint rows (0) and half overlaps
        # (0.5, a bin edge) land on the edges of HISTOGRAM_BINS
        rng = random.Random(19)
        pool = [block_fingerprint((0, 1), 2), block_fingerprint((1, 2), 3), Fingerprint(bits=0)]
        pool += [Fingerprint(bits=rng.getrandbits(64)) for _ in range(5)]
        fingerprints = [rng.choice(pool) for _ in range(60)]
        assignment = cluster_tanimoto(pack(fingerprints), k=5, seed=1)
        counts = write_similarity_histogram(
            cluster_similarity_histogram(assignment, pack(fingerprints)), tmp_path / "hist.tsv"
        )
        oracle = similarity_histogram_loop(assignment.labels, fingerprints)
        for kind, values in zip(HISTOGRAM_KINDS, oracle, strict=True):
            assert counts[kind].tolist() == np.histogram(values, HISTOGRAM_BINS)[0].tolist()
            assert counts[kind].sum() == len(values)
        path = tmp_path / "binned.tsv"
        write_binned_histogram(counts, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "kind\tbin_low\tbin_high\tcount"
        assert len(lines) == 1 + 2 * 100
        assert lines[1] == f"intra\t0\t0.01\t{counts['intra'][0]}"
        assert lines[51] == f"intra\t0.5\t0.51\t{counts['intra'][50]}"
        assert lines[200] == f"inter\t0.99\t1\t{counts['inter'][99]}"


class TestRepresentatives:
    def test_ranked_by_distance_to_medoid(self):
        fingerprints = two_group_fingerprints()
        assignment = cluster_tanimoto(pack(fingerprints), k=2, seed=0)
        ranked = select_representatives(assignment, pack(fingerprints))
        all_members = list(itertools.chain.from_iterable(m for _, m in ranked))
        assert sorted(all_members) == list(range(len(fingerprints)))
        for cluster, (medoid, members) in enumerate(ranked):
            assert members[0] == medoid
            assert assignment.medoids[cluster] == medoid
            distances = [1.0 - tanimoto(fingerprints[medoid], fingerprints[i]) for i in members]
            assert distances == sorted(distances)


class TestNovelty:
    def test_identical_reference_scores_one(self):
        fp = morgan_fingerprint(parse_smiles(BIPHENYL))
        scores = novelty(pack([fp]), pack([fp]))
        assert scores == (1.0,)
        assert not is_novel(scores[0])

    def test_disjoint_reference_scores_zero(self):
        fp = Fingerprint(bits=0b111)
        ref = Fingerprint(bits=0b111000)
        scores = novelty(pack([fp]), pack([ref]))
        assert scores == (0.0,)
        assert is_novel(scores[0])

    def test_half_overlap_is_not_novel(self):
        # 2 shared bits of 4 in the union: similarity exactly 0.5
        fp = block_fingerprint((0, 1), 2)
        ref = block_fingerprint((1, 2), 3)
        scores = novelty(pack([fp]), pack([ref]))
        assert scores == (0.5,)
        assert not is_novel(scores[0])

    def test_more_references_never_lower_scores(self):
        rng = random.Random(17)
        fingerprints = [Fingerprint(bits=rng.getrandbits(256)) for _ in range(10)]
        references = [Fingerprint(bits=rng.getrandbits(256)) for _ in range(5)]
        base = novelty(pack(fingerprints), pack(references))
        extended = novelty(
            pack(fingerprints), pack(references + [Fingerprint(bits=rng.getrandbits(256))])
        )
        assert all(b >= a for a, b in zip(base, extended))
        assert all(0.0 <= value <= 1.0 for value in extended)

    def test_empty_reference_rejected(self):
        with pytest.raises(FilterError):
            novelty(pack([Fingerprint(bits=1)]), pack([]))


class TestWriters:
    def test_filter_report_file(self, tmp_path):
        _, report, _ = run_filters(
            [BIPHENYL, INDOLE_ALDEHYDE, BUTANE], const_scorers(), WATER
        )
        path = tmp_path / "report.tsv"
        write_filter_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "stage\tremaining\trejected"
        assert lines[1] == "input\t3\t0"
        assert lines[2] == "sp2_network\t1\t2"
        assert len(lines) == 6

    def test_cluster_assignment_file(self, tmp_path):
        fingerprints = two_group_fingerprints(per_group=2)
        assignment = cluster_tanimoto(pack(fingerprints), k=2, seed=0)
        names = [f"mol{i}" for i in range(len(fingerprints))]
        path = tmp_path / "clusters.tsv"
        write_cluster_assignment(assignment, names, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "molecule\tcluster\tis_medoid"
        assert len(lines) == 5
        medoid_rows = [line for line in lines[1:] if line.endswith("\t1")]
        assert len(medoid_rows) == 2
        with pytest.raises(FilterError):
            write_cluster_assignment(assignment, names[:-1], path)

    def test_histogram_file(self, tmp_path):
        path = tmp_path / "hist.tsv"
        write_similarity_histogram([("intra", (1, 2), (4, 4)), ("inter", (1,), (8,))], path)
        lines = path.read_text().splitlines()
        assert lines == [
            "kind\tsimilarity",
            "intra\t0.25",
            "intra\t0.5",
            "inter\t0.125",
        ]

    def test_histogram_file_equals_per_value_format(self, tmp_path):
        # repeated values, 1 (two empty rows, and equal rows) and 0, the
        # smallest nonzero similarity, which '.6g' writes with nine
        # characters, and unequal values that round to the same six digits
        special = [(0, 0), (7, 7), (0, 9), (1, 2048), (1, 3), (2, 3), (2, 6),
                   (1499, 1501), (1500, 1502)]
        assert 1499 / 1501 != 1500 / 1502
        rng = random.Random(8)
        small = [(i, 97) for i in range(98)]
        intra = [rng.choice(special + small) for _ in range(2000)]
        inter = special + [(i, rng.randint(i, 2048)) for i in (rng.randint(0, 2048)
                                                              for _ in range(300))]
        inter += intra[:500]
        path = tmp_path / "hist.tsv"
        write_similarity_histogram([("intra", *zip(*intra)), ("inter", *zip(*inter))], path)
        want = ["kind\tsimilarity\n"]
        want += [similarity_line("intra", i, u) for i, u in intra]
        want += [similarity_line("inter", i, u) for i, u in inter]
        assert path.read_text(encoding="utf-8") == "".join(want)
        assert {"inter\t1\n", "inter\t0\n", "inter\t0.000488281\n"} <= set(want)
        assert want.count("inter\t0.998668\n") >= 2

    def test_histogram_file_across_chunks(self, tmp_path, monkeypatch):
        """Chunks of 7 pairs, arrays and tuples alike, each kind split
        over several streamed chunks and one chunk empty: the same bytes
        as one row formatted per pair."""
        from fluorgen import filters

        monkeypatch.setattr(filters, "HISTOGRAM_CHUNK", 7)
        rng = random.Random(9)
        values = [(0, 0), (3, 3), (1, 2), (1, 3), (1, 2000)]
        intra = np.array([rng.choice(values) for _ in range(50)], dtype=np.int32)
        inter = [(i, rng.randint(max(i, 1), 64)) for i in (rng.randint(0, 64) for _ in range(23))]
        inter += intra[:14].tolist()
        path = tmp_path / "hist.tsv"
        chunks = [("intra", intra[:20, 0], intra[:20, 1]),
                  ("intra", intra[20:, 0], intra[20:, 1]),
                  ("inter", *zip(*inter[:5])), ("inter", (), ()), ("inter", *zip(*inter[5:]))]
        counts = write_similarity_histogram(chunks, path)
        want = ["kind\tsimilarity\n"]
        want += [similarity_line("intra", i, u) for i, u in intra.tolist()]
        want += [similarity_line("inter", i, u) for i, u in inter]
        assert path.read_text(encoding="utf-8") == "".join(want)
        assert counts["intra"].sum() == 50 and counts["inter"].sum() == 37

    def test_every_pair_up_to_union_256_equals_float_path(self, tmp_path):
        """Every 0 <= inter <= union <= 256, so (0, 0) too, shuffled into
        chunks of both kinds: each line and the binned counts equal those
        of the pair's float division."""
        pairs = [(i, u) for u in range(257) for i in range(u + 1)]
        rng = random.Random(3)
        chunks = []
        floats = {kind: [] for kind in HISTOGRAM_KINDS}
        want = ["kind\tsimilarity\n"]
        for kind in HISTOGRAM_KINDS:
            rng.shuffle(pairs)
            for start in range(0, len(pairs), 4096):
                block = np.array(pairs[start : start + 4096], dtype=np.int32)
                chunks.append((kind, block[:, 0], block[:, 1]))
            want += [similarity_line(kind, i, u) for i, u in pairs]
            floats[kind] = [i / u if u else 1.0 for i, u in pairs]
        path = tmp_path / "hist.tsv"
        counts = write_similarity_histogram(chunks, path)
        assert path.read_text(encoding="utf-8") == "".join(want)
        for kind in HISTOGRAM_KINDS:
            want_counts = np.histogram(floats[kind], HISTOGRAM_BINS)[0]
            assert counts[kind].tolist() == want_counts.tolist()

    def test_table_grows_mid_stream(self, tmp_path):
        """A later chunk carries a key larger than any before it, and the
        chunk after it repeats the small keys: lines and counts stay
        those of the float path."""
        chunks = [
            ("intra", (0, 1, 2, 2), (2, 2, 2, 3)),
            ("intra", (5, 1, 1000, 2047), (6, 2, 2000, 2048)),
            ("intra", (1, 0, 5, 2), (2, 2, 6, 3)),
            ("inter", (0,), (0,)),
            ("inter", (17, 0), (100, 0)),
        ]
        path = tmp_path / "hist.tsv"
        counts = write_similarity_histogram(chunks, path)
        want = ["kind\tsimilarity\n"]
        floats = {kind: [] for kind in HISTOGRAM_KINDS}
        for kind, inter, union in chunks:
            want += [similarity_line(kind, i, u) for i, u in zip(inter, union)]
            floats[kind] += [i / u if u else 1.0 for i, u in zip(inter, union)]
        assert path.read_text(encoding="utf-8") == "".join(want)
        for kind in HISTOGRAM_KINDS:
            want_counts = np.histogram(floats[kind], HISTOGRAM_BINS)[0]
            assert counts[kind].tolist() == want_counts.tolist()

    def test_empty_histogram_file(self, tmp_path):
        path = tmp_path / "hist.tsv"
        counts = write_similarity_histogram([], path)
        assert path.read_text(encoding="utf-8") == "kind\tsimilarity\n"
        assert [counts[kind].tolist() for kind in HISTOGRAM_KINDS] == [[0] * 100] * 2


class TestPinnedFilterOutputs:
    """fluorgen filter on the benchmark's seed-1 inputs and proxy
    checkpoints: the seven files it writes and the molecules.tsv it reads
    from its output directory, held to digests taken while every Tanimoto
    of the filter was a popcount sweep. A change that moves them on
    purpose updates the digests and says so in CHANGES.md."""

    DIGESTS = {
        "clusters.tsv": "1fb24288e7edb5338e7c4d39177f94fc0a7086b2521f010f36c7732629af1746",
        "filter_report.tsv": "c6c530e1f59d90e70575253c9fd2235218ef058bed9c02bb6134d5f6f82faadd",
        "molecules.tsv": "2cd740be5168de2cd9f1a50417ca87b9cc55097fee9590a68856ed383cfdcc71",
        "novelty.tsv": "a917835da28ba0b5b8af5cf3217a9715ddb11c7088c285d3eaca7cc7b2941e1f",
        "representatives.tsv":
            "d5159e01af9ee26a5330ad96a2c376c980bef3df8834ea3048ae8ceddab2fb35",
        "similarity_histogram.tsv":
            "c21b50f0da32206110ce10316e0a9ab774e21518ea6f09469164dfddfedbac01",
        "similarity_histogram_binned.tsv":
            "67e23b49b0ce16c9ac724990cd959b616234dbe8f239cae5ba056e8bd5860990",
        "survivors.tsv": "7b1403573465e525c25b8479cffe01870b332789950eafe1e3450ebc6016141f",
    }

    @staticmethod
    def benchmark_clusters() -> int:
        """perfbench/run.py's Filter.clusters, read without importing the
        benchmark (which sets process-wide environment variables)."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name == "Filter":
                for item in node.body:
                    if isinstance(item, ast.Assign) and item.targets[0].id == "clusters":
                        return ast.literal_eval(item.value)
        raise AssertionError("perfbench/run.py has no Filter.clusters")

    def test_output_digests(self, tmp_path, monkeypatch):
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        monkeypatch.delenv("FLUORGEN_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(root)  # the checkpoints read the shipped library
        import inputs

        checkpoints = tmp_path / "checkpoints"
        checkpoints.mkdir()
        inputs.build_checkpoints(str(checkpoints))
        inputs.build_filter(1, str(tmp_path))
        assert self.benchmark_clusters() == 100
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(tmp_path / "molecules.tsv", out)
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[paths]\ncheckpoint_dir = {checkpoints}\noutput_dir = {out}\n"
            f"[filters]\nclusters = 100\nnovelty_references = {tmp_path / 'references.smi'}\n"
        )
        assert cli.main(["--config", str(ini), "filter"]) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
        }
        assert digests == self.DIGESTS
