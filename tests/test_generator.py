"""Tests for the rollout engine: node values, sampling, rewards, the
adaptive controllers, and end-to-end generation runs."""

import copy
import hashlib
import itertools
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluorgen import generator
from fluorgen import scorers as scorers_module
from fluorgen.filters import run_filters
from fluorgen.fingerprints import (
    FEATURE_DIM,
    FP_BITS,
    FP_WORDS,
    Fingerprint,
    SolventFeatures,
    WATER,
    build_feature_vector,
    morgan_fingerprint,
    on_bits,
    pack,
    tanimoto,
    unpack,
)
from fluorgen.generator import (
    UNIFORM_WEIGHTS,
    GeneratedMolecule,
    GenerationConfig,
    Generator,
    GeneratorError,
    ReplayBuffer,
    RouteStep,
    format_route,
    node_features,
    parse_route,
    replay_route,
    reward,
    sample_child,
    softmax_probabilities,
    train_value_model,
    tune_temperature,
    tune_weights,
    uniform_baseline,
    weighted_values,
    write_molecules,
    write_reaction_usage,
    write_run_log,
)
from fluorgen.molgraph import sp2_network_size
from fluorgen.patterns import parse_pattern
from fluorgen.reactions import (
    PREV_MARKER,
    ROUTE_DELIMITERS,
    CompatibilityIndex,
    ReactionTemplate,
    apply_reaction,
    ingest_building_blocks,
    ingest_reaction_templates,
)
from fluorgen.scorers import (
    SCORE_BLOCK_ROWS,
    Head,
    MlpModel,
    PropertyScorer,
    ScorerKind,
    ScoreStack,
    SparseRows,
    forward_batch,
    loss_and_grads,
    property_stack,
    score_rows,
    update_nets,
)
from fluorgen.smiles import parse_smiles

from corpus import CORPUS
from oracles import (
    ReplayBufferDeque,
    node_value_loop,
    replay_rows_int16,
    reward_loop,
    sparse_rows_to_dense,
    train_value_model_dense,
    train_value_model_one_net,
)
from randmol import random_molecule

DATA = Path(__file__).resolve().parent.parent / "data"


def const_model(value: float, head: Head) -> MlpModel:
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


@pytest.fixture(scope="module")
def library():
    return ingest_building_blocks(DATA / "building_blocks.tsv")


@pytest.fixture(scope="module")
def templates():
    return ingest_reaction_templates(DATA / "reactions.txt")


@pytest.fixture(scope="module")
def blocks_by_id(library):
    return {block.id: block for block in library.blocks}


@pytest.fixture(scope="module")
def small_run(library, templates):
    config = GenerationConfig(n_rollouts=60, train_interval=10, window=20, seed=7)
    return Generator(library, templates, const_scorers(), WATER, config).run()


class TestNodeFeatures:
    def test_single_fingerprint_layout(self):
        fp = Fingerprint(bits=(1 << 5) | (1 << 100))
        out = node_features([fp], WATER)
        assert out.shape == (FEATURE_DIM,)
        assert out[5] == 1.0 and out[100] == 1.0
        assert out[:FP_BITS].sum() == 2.0
        assert tuple(out[FP_BITS:]) == WATER.as_tuple()

    def test_disjoint_bits_add(self):
        a = Fingerprint(bits=(1 << 1) | (1 << 2))
        b = Fingerprint(bits=1 << 7)
        out = node_features([a, b], WATER)
        assert out[:FP_BITS].sum() == 3.0

    def test_overlapping_bits_or(self):
        a = Fingerprint(bits=(1 << 1) | (1 << 2))
        b = Fingerprint(bits=(1 << 2) | (1 << 3))
        out = node_features([a, b], WATER)
        assert out[:FP_BITS].sum() == 3.0

    def test_order_does_not_matter(self):
        a = Fingerprint(bits=(1 << 9) | (1 << 2000))
        b = Fingerprint(bits=(1 << 44))
        assert np.array_equal(node_features([a, b], WATER), node_features([b, a], WATER))

    def test_matches_scorer_featurization(self, blocks_by_id):
        block = blocks_by_id["benzaldehyde"]
        expected = build_feature_vector(morgan_fingerprint(block.graph), WATER)
        assert np.array_equal(node_features([morgan_fingerprint(block.graph)], WATER), expected)

    def test_empty_node_rejected(self):
        with pytest.raises(GeneratorError):
            node_features([], WATER)


def random_value_models(rng, count=4, hidden=8):
    return [
        MlpModel(
            w1=rng.normal(0.0, 0.1, (hidden, FEATURE_DIM)),
            b1=rng.normal(0.0, 0.1, hidden),
            w2=rng.normal(0.0, 1.0, hidden),
            b2=float(rng.normal()),
            head=Head.SIGMOID if k == 0 else Head.LINEAR,
            norm_mean=rng.normal(0.5, 0.1, 4),
            norm_std=rng.uniform(0.5, 2.0, 4),
        )
        for k in range(count)
    ]


def random_fingerprint(rng):
    on = rng.choice(FP_BITS, size=int(rng.integers(0, 80)), replace=False)
    return Fingerprint(bits=sum(1 << int(bit) for bit in on))


def packed_node(fingerprints):
    """A node's packed row: the OR of its molecules' packed rows."""
    return np.bitwise_or.reduce(pack(fingerprints))


class TestNodeValue:
    def test_weighted_sum_of_heads(self):
        models = [const_model(z, Head.LINEAR) for z in (0.5, 1.0, 0.0, 0.5)]
        outputs = score_rows(ScoreStack(models), pack([Fingerprint(bits=0)]), WATER)
        values = weighted_values(outputs, (0.4, 0.2, 0.2, 0.2))
        assert values.shape == (1,)
        assert values[0] == pytest.approx(0.5, abs=1e-12)

    def test_length_mismatch_rejected(self):
        models = [const_model(0.0, Head.LINEAR)] * 3
        outputs = score_rows(ScoreStack(models), pack([Fingerprint(bits=0)]), WATER)
        with pytest.raises(GeneratorError):
            weighted_values(outputs, (0.25, 0.25, 0.25, 0.25))

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_members=st.integers(1, 3),
        n_options=st.integers(1, 200),
        weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    def test_batched_values_equal_per_row_oracle(self, seed, n_members, n_options, weights):
        rng = np.random.default_rng(seed)
        models = random_value_models(rng)
        members = [random_fingerprint(rng) for _ in range(n_members)]
        options = [random_fingerprint(rng) for _ in range(n_options)]
        candidates = packed_node(members) | pack(options)
        values = weighted_values(score_rows(ScoreStack(models), candidates, WATER), weights)
        expected = [
            node_value_loop(node_features(members + [option], WATER), models, weights)
            for option in options
        ]
        assert values.shape == (n_options,)
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_nodes", [1, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 1, 200])
    def test_scored_in_blocks(self, n_nodes, monkeypatch):
        """One sparse product per block of rows, for all models at once."""
        rows = []
        original = scorers_module.csr_array

        def counting(arg, shape):
            rows.append(shape[0])
            return original(arg, shape=shape)

        monkeypatch.setattr(scorers_module, "csr_array", counting)
        stack = ScoreStack(random_value_models(np.random.default_rng(n_nodes)))
        score_rows(stack, pack([Fingerprint(bits=1 << k) for k in range(n_nodes)]), WATER)
        blocks = -(-n_nodes // SCORE_BLOCK_ROWS)
        assert len(rows) == blocks
        assert max(rows) <= SCORE_BLOCK_ROWS and sum(rows) == n_nodes


@pytest.fixture(scope="module")
def engine(library, templates):
    return Generator(library, templates, const_scorers(), WATER, GenerationConfig(seed=4))


class TestPackedNodes:
    def test_block_words_rows(self, engine, library):
        """One row per block in library order, then the all-zero row."""
        assert engine.block_words.shape == (len(library.blocks) + 1, FP_WORDS)
        want = pack([morgan_fingerprint(b.graph) for b in library.blocks])
        assert np.array_equal(engine.block_words[:-1], want)
        assert not engine.block_words[-1].any()

    @settings(deadline=None, max_examples=60)
    @given(
        blocks=st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
        no_partner=st.booleans(),
        product=st.one_of(st.none(), st.sampled_from(CORPUS)),
    )
    def test_or_rows_decode_to_node_features(self, engine, library, blocks, no_partner, product):
        """A node built the rollout's way, block_words rows ORed onto each
        other and onto a product row, with -1 read as "no partner", decodes
        to node_features of its molecules; on_bits lists its on-bits."""
        positions = [k % len(library.blocks) for k in blocks] + ([-1] if no_partner else [])
        members = [morgan_fingerprint(library.blocks[k].graph) for k in positions if k != -1]
        rows = engine.block_words[positions]
        if product is not None:
            fingerprint = morgan_fingerprint(parse_smiles(product))
            members.append(fingerprint)
            rows = pack([fingerprint]) | rows
        node = rows[0]
        for row in rows[1:]:
            node = node | row
        want = node_features(members, WATER)[:FP_BITS]
        assert unpack(node).astype(np.float64).tobytes() == want.tobytes()
        assert on_bits(node).tolist() == np.flatnonzero(want).tolist()


class TestSampling:
    def test_equal_values_give_equal_probabilities(self):
        probs = softmax_probabilities([2.0, 2.0, 2.0, 2.0], 0.5)
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_two_value_probability_exact(self):
        probs = softmax_probabilities([1.0, 0.0], 1.0)
        expected = math.e / (1.0 + math.e)
        assert probs[0] == pytest.approx(expected, abs=1e-12)

    def test_huge_temperature_is_uniform(self):
        probs = softmax_probabilities([3.0, 1.0, 2.0], 1e9)
        assert np.max(np.abs(probs - 1.0 / 3.0)) < 1e-6

    def test_extreme_values_do_not_overflow(self):
        probs = softmax_probabilities([1e6, 0.0], 0.001)
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    def test_empirical_frequency_tracks_probability(self):
        rng = random.Random(123)
        n = 50_000
        hits = sum(sample_child([1.0, 0.0], 1.0, rng) == 0 for _ in range(n))
        p = math.e / (1.0 + math.e)
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(hits / n - p) < 3.0 * sigma

    def test_low_temperature_is_greedy(self):
        rng = random.Random(0)
        picks = {sample_child([0.0, 1.0, 0.2], 0.001, rng) for _ in range(200)}
        assert picks == {1}

    def test_bad_inputs_rejected(self):
        rng = random.Random(0)
        with pytest.raises(GeneratorError):
            sample_child([], 1.0, rng)
        with pytest.raises(GeneratorError):
            sample_child([1.0], 0.0, rng)
        with pytest.raises(GeneratorError):
            sample_child([1.0], -2.0, rng)
        with pytest.raises(GeneratorError):
            sample_child([float("nan"), 0.0], 1.0, rng)


class TestReward:
    def test_wavelengths_binarize_inside_window(self):
        benzene = parse_smiles("c1ccccc1")
        weights = (0.25, 0.25, 0.25, 0.25)
        stack = property_stack(const_scorers())
        scores, combined = reward(
            benzene, pack([morgan_fingerprint(benzene)]), stack, weights, WATER
        )
        assert scores[0] == pytest.approx(0.5)
        assert scores[1] == 1.0 and scores[2] == 1.0
        assert scores[3] == pytest.approx(0.5)  # 6 sp2 atoms over target 12
        assert combined == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "nm,expected",
        [(300.0, 0.0), (419.9, 0.0), (420.0, 1.0), (500.0, 1.0), (750.0, 1.0), (750.1, 0.0)],
    )
    def test_window_boundaries_inclusive(self, nm, expected):
        benzene = parse_smiles("c1ccccc1")
        scores, _ = reward(
            benzene,
            pack([morgan_fingerprint(benzene)]),
            property_stack(const_scorers(absorption=nm, emission=nm)),
            (0.25, 0.25, 0.25, 0.25),
            WATER,
        )
        assert scores[1] == expected and scores[2] == expected

    def test_large_sp2_network_clamps_to_one(self):
        anthracene = parse_smiles("c1ccc2cc3ccccc3cc2c1")
        scores, _ = reward(
            anthracene,
            pack([morgan_fingerprint(anthracene)]),
            property_stack(const_scorers()),
            (0.25, 0.25, 0.25, 0.25),
            WATER,
        )
        assert scores[3] == 1.0

    def test_all_ones_combined_is_one(self):
        biphenyl = parse_smiles("c1ccc(-c2ccccc2)cc1")
        scores, combined = reward(
            biphenyl,
            pack([morgan_fingerprint(biphenyl)]),
            property_stack(const_scorers(plqy_logit=50.0)),
            (0.25, 0.25, 0.25, 0.25),
            WATER,
        )
        assert all(s == pytest.approx(1.0) for s in scores)
        assert combined == pytest.approx(1.0)

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        source=st.one_of(st.sampled_from(CORPUS), st.integers(0, 2**32 - 1)),
        weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    def test_equals_per_property_oracle(self, seed, source, weights):
        """One score_rows call over the three models gives exactly the
        scores and combined value of the sparse-order referee, and those of
        four one-row score_property calls within 1e-12."""
        if isinstance(source, str):
            graph = parse_smiles(source)
        else:
            graph = random_molecule(np.random.default_rng(source))
        rng = np.random.default_rng(seed)
        # one sigmoid and two linear nets, with outputs spread across the
        # visible window so both binarized values occur
        models = random_value_models(rng, count=3)
        for model in models[1:]:
            model.b2 += 585.0 + 300.0 * float(rng.normal())
        scorers = {
            kind: PropertyScorer(kind, model)
            for kind, model in zip(
                (ScorerKind.PLQY_PROB, ScorerKind.ABS_NM, ScorerKind.EM_NM), models
            )
        }
        scorers[ScorerKind.SP2_SIZE] = PropertyScorer(ScorerKind.SP2_SIZE)
        fingerprint = morgan_fingerprint(graph)
        got = reward(graph, pack([fingerprint]), property_stack(scorers), weights, WATER)
        assert got == reward_loop(graph, fingerprint, scorers, weights, WATER, sparse_order=True)
        scores, combined = reward_loop(graph, fingerprint, scorers, weights, WATER)
        np.testing.assert_allclose(got[0], scores, rtol=0.0, atol=1e-12)
        assert got[1] == pytest.approx(combined, rel=0.0, abs=1e-12)


class TestRewardAgreesWithFilter:
    """A molecule's reward counts as a success on all four properties
    exactly when run_filters keeps it at default thresholds, on each side
    of every boundary: PLQY 0.5, the 420-750 nm window and sp2 size 12."""

    # SMILES -> sp2 network size, one on each side of the sp2 boundary
    MOLECULES = {"c1ccsc1-c1ccccc1": 11, "c1ccccc1-c1ccccc1": 12}
    WAVELENGTHS = (419.99, 420.0, 750.0, 750.01)

    # PLQY probability 0.5, just below it and well above it
    @pytest.mark.parametrize("plqy_logit", [0.0, -1e-12, 3.0])
    def test_successes_equal_filter_survival(self, plqy_logit):
        outcomes = set()
        for smiles, sp2 in self.MOLECULES.items():
            graph = parse_smiles(smiles)
            assert sp2_network_size(graph) == sp2
            words = pack([morgan_fingerprint(graph)])
            for absorption, emission in itertools.product(self.WAVELENGTHS, repeat=2):
                scorers = const_scorers(plqy_logit, absorption, emission)
                scores, _ = reward(graph, words, property_stack(scorers), UNIFORM_WEIGHTS, WATER)
                success = all(generator._successes(scores))
                survivors, _, _ = run_filters([smiles], scorers, WATER)
                assert success == (survivors == (smiles,)), (smiles, absorption, emission)
                outcomes.add(success)
        # the logit just below 0 fails everywhere; the others pass somewhere
        assert outcomes == ({False} if plqy_logit < 0 else {False, True})


class TestTemperatureController:
    CONFIG = GenerationConfig()

    def test_empty_window_leaves_tau(self):
        assert tune_temperature([], 0.3, self.CONFIG) == 0.3

    def test_on_target_leaves_tau(self):
        assert tune_temperature([0.6, 0.6, 0.6], 0.3, self.CONFIG) == pytest.approx(0.3)

    def test_too_similar_raises_tau(self):
        assert tune_temperature([0.8] * 4, 1.0, self.CONFIG) == pytest.approx(1.002)

    def test_too_diverse_lowers_tau(self):
        assert tune_temperature([0.0], 1.0, self.CONFIG) == pytest.approx(0.994)

    def test_clamped_at_bounds(self):
        config = self.CONFIG
        assert tune_temperature([1.0] * 5, config.tau_max, config) == config.tau_max
        assert tune_temperature([0.0] * 5, config.tau_min, config) == config.tau_min


class TestWeightController:
    def test_equal_rates_give_uniform(self):
        assert tune_weights((0.3, 0.3, 0.3, 0.3), floor=0.05) == pytest.approx((0.25,) * 4)
        assert tune_weights((1.0, 1.0, 1.0, 1.0), floor=0.05) == pytest.approx((0.25,) * 4)

    def test_one_failing_property_dominates(self):
        weights = tune_weights((0.0, 1.0, 1.0, 1.0), floor=0.05)
        assert weights == pytest.approx((0.85, 0.05, 0.05, 0.05))

    def test_simplex_floor_and_ordering_always_hold(self):
        rng = random.Random(5)
        for _ in range(300):
            rates = tuple(rng.random() for _ in range(4))
            weights = tune_weights(rates, floor=0.05)
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)
            assert min(weights) >= 0.05 - 1e-12
            for i in range(4):
                for j in range(4):
                    if rates[i] < rates[j] - 1e-12:
                        assert weights[i] >= weights[j] - 1e-12

    def test_floor_too_large_rejected(self):
        with pytest.raises(GeneratorError):
            tune_weights((0.5, 0.5, 0.5, 0.5), floor=0.3)

    def test_negative_floor_rejected(self):
        # a floor below 0 would let two properties' weights reach 0
        with pytest.raises(GeneratorError, match="floor must be non-negative"):
            tune_weights((1.0, 1.0, 0.0, 0.0), floor=-0.5)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buffer = ReplayBuffer(capacity=3)
        for k in range(4):
            buffer.append(pack([Fingerprint(1 << k | 1 << (10 + k))])[0], (float(k), 0.0, 0.0, 0.0))
        assert len(buffer) == 3
        rows, targets = buffer.rows(WATER)
        assert rows.indices.tolist() == [1, 11, 2, 12, 3, 13]
        assert rows.indptr.tolist() == [0, 2, 4, 6]
        assert list(targets[:, 0]) == [1.0, 2.0, 3.0]

    def test_bad_inputs_rejected(self):
        with pytest.raises(GeneratorError):
            ReplayBuffer(capacity=0)
        buffer = ReplayBuffer(capacity=2)
        with pytest.raises(GeneratorError):
            buffer.append(np.zeros(FP_WORDS, np.uint64), (1.0, 2.0))


class TestSparseReplayBuffer:
    @staticmethod
    def random_nodes(library, n, seed):
        rng = random.Random(seed)
        blocks = library.blocks
        return [
            [morgan_fingerprint(b.graph) for b in rng.sample(blocks, rng.randint(1, 3))]
            for _ in range(n)
        ]

    def test_rows_rebuild_node_features(self, library):
        """Past capacity too: the kept rows are the newest, each equal to
        its node_features row in the given solvent."""
        nodes = self.random_nodes(library, 300, seed=1)
        solvent = SolventFeatures(0.1, 0.5, -0.25, 0.0)
        buffer = ReplayBuffer(capacity=250)
        for k, fps in enumerate(nodes):
            buffer.append(packed_node(fps), (float(k), 0.0, 0.0, 1.0))
        rows, targets = buffer.rows(solvent)
        assert len(rows) == len(buffer) == 250
        want = np.array([node_features(fps, solvent) for fps in nodes[50:]])
        assert np.array_equal(sparse_rows_to_dense(rows), want)
        assert targets[:, 0].tolist() == [float(k) for k in range(50, 300)]
        assert rows.width == FEATURE_DIM and np.all(rows.data == 1.0)

    def test_empty_buffer_has_no_rows(self):
        rows, targets = ReplayBuffer(capacity=4).rows(WATER)
        assert len(rows) == 0 and targets.shape == (0, 4)

    solvent_features = st.builds(SolventFeatures, *[st.floats(-5.0, 5.0)] * 4)

    @staticmethod
    def assert_rows_equal(got, want):
        """Two (SparseRows, targets) pairs equal field by field, dtypes included."""
        (rows, targets), (want_rows, want_targets) = got, want
        for name in ("indptr", "indices", "data", "solvent"):
            a, b = getattr(rows, name), getattr(want_rows, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name
        assert rows.width == want_rows.width
        assert targets.dtype == want_targets.dtype
        assert targets.shape == want_targets.shape and np.array_equal(targets, want_targets)

    @settings(deadline=None, max_examples=60)
    @given(
        nodes=st.lists(
            st.tuples(st.integers(0, (1 << FP_BITS) - 1), st.floats(-1.0, 1.0)), max_size=12
        ),
        solvent=solvent_features,
        capacity=st.integers(1, 8),
    )
    @example(nodes=[], solvent=WATER, capacity=3)
    @example(nodes=[(0, 0.5), (1 << (FP_BITS - 1), 0.0), (0, 1.0)], solvent=WATER, capacity=2)
    def test_rows_equal_int16_referee(self, nodes, solvent, capacity):
        """Field by field, dtypes included: empty buffers, all-zero rows,
        any solvent and eviction past capacity."""
        words = [pack([Fingerprint(bits)])[0] for bits, _ in nodes]
        scores = [(target, 0.0, 0.5, 1.0) for _, target in nodes]
        buffer = ReplayBuffer(capacity)
        for row, targets in zip(words, scores):
            buffer.append(row, targets)
        kept = slice(max(0, len(nodes) - capacity), None)
        want = replay_rows_int16(words[kept], [solvent] * len(words[kept]), scores[kept])
        self.assert_rows_equal(buffer.rows(solvent), want)

    @settings(deadline=None, max_examples=80)
    @given(data=st.data(), capacity=st.integers(1, 7), solvent=solvent_features)
    def test_ring_equals_deque_referee(self, data, capacity, solvent):
        """0 to 3x capacity appends of random rows: the ring and the deque
        buffer hold the same rows and targets, oldest first."""
        n = data.draw(st.integers(0, 3 * capacity), label="appends")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        ring, referee = ReplayBuffer(capacity), ReplayBufferDeque(capacity)
        for _ in range(n):
            # words of any value, a random share of them zero
            row = rng.integers(0, 2**64, FP_WORDS, dtype=np.uint64)
            row[rng.random(FP_WORDS) < rng.random()] = 0
            targets = tuple(rng.normal(size=4).tolist())
            ring.append(row, targets)
            referee.append(row, targets)
            assert len(ring) == len(referee)
            self.assert_rows_equal(ring.rows(solvent), referee.rows(solvent))
        self.assert_rows_equal(ring.rows(solvent), referee.rows(solvent))

    def test_append_stores_a_copy(self):
        """The rollout's node is a row view of its decision's candidate
        matrix; the buffer keeps its own words."""
        candidates = pack([Fingerprint(0b1011), Fingerprint(1 << 2000 | 1 << 7)]).copy()
        buffer = ReplayBuffer(capacity=2)
        buffer.append(candidates[1], (0.0, 0.0, 0.0, 1.0))
        before, _ = buffer.rows(WATER)
        candidates[:] = np.uint64(0xFFFF)
        after, _ = buffer.rows(WATER)
        assert after.indices.tolist() == before.indices.tolist() == [7, 2000]
        assert after.indptr.tolist() == before.indptr.tolist()

    def test_full_buffer_is_ten_times_smaller_than_dense(self, library):
        capacity = 2_000
        rows = [packed_node(fps) for fps in self.random_nodes(library, capacity, seed=3)]
        scores = (0.5, 0.25, 0.75, 1.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            buffer = ReplayBuffer(capacity)
            for row in rows:
                buffer.append(row, scores)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(buffer) == capacity
        dense = capacity * FEATURE_DIM * np.dtype(np.float64).itemsize
        assert held * 10 <= dense, (held, dense)


def loss_free_outputs(model, rows):
    """A value net's outputs on rows: targets it already fits exactly."""
    return forward_batch(model, sparse_rows_to_dense(rows))


class TestValueTraining:
    @staticmethod
    def make_model(seed=0, hidden=16):
        rng = np.random.default_rng(seed)
        return MlpModel(
            w1=rng.normal(0.0, 0.01, (hidden, FEATURE_DIM)),
            b1=np.zeros(hidden),
            w2=rng.normal(0.0, 0.01, hidden),
            b2=0.0,
            head=Head.LINEAR,
            norm_mean=np.zeros(4),
            norm_std=np.ones(4),
        )

    @staticmethod
    def make_data(n=200, seed=1):
        rng = np.random.default_rng(seed)
        features = np.zeros((n, FEATURE_DIM))
        features[:, :FP_BITS] = rng.random((n, FP_BITS)) < 0.02
        features[:, FP_BITS:] = WATER.as_tuple()
        targets = 0.6 * features[:, 5] + 0.2
        return features, targets

    def test_update_reduces_buffer_loss(self):
        model = self.make_model()
        features, targets = self.make_data()
        rows = SparseRows.from_dense(features)
        before, _ = loss_and_grads(model, rows, targets)
        config = GenerationConfig(value_epochs=8, value_lr=0.05)
        train_value_model(model, rows, targets, config, np.random.default_rng(2))
        after, _ = loss_and_grads(model, rows, targets)
        assert after < before

    def test_harmful_update_is_reverted(self):
        model = self.make_model()
        features, targets = self.make_data()
        rows = SparseRows.from_dense(features)
        before, _ = loss_and_grads(model, rows, targets)
        saved_w2 = model.w2.copy()
        config = GenerationConfig(value_lr=1e8, value_epochs=1)
        with np.errstate(all="ignore"):
            train_value_model(model, rows, targets, config, np.random.default_rng(2))
        after, _ = loss_and_grads(model, rows, targets)
        assert after <= before
        assert np.array_equal(model.w2, saved_w2)

    @pytest.mark.parametrize(
        "seed, epochs, lr, batch",
        [(2, 8, 0.05, 32), (3, 1, 1e8, 32), (4, 4, 0.5, 7), (5, 2, 3.0, 200), (6, 4, 0.05, 1)],
    )
    def test_matches_dense_oracle(self, seed, epochs, lr, batch):
        model = self.make_model(seed=seed)
        oracle = self.make_model(seed=seed)
        features, targets = self.make_data(n=120, seed=seed)
        config = GenerationConfig(value_epochs=epochs, value_lr=lr, value_batch=batch)
        saved_w2 = model.w2.copy()
        with np.errstate(all="ignore"):
            train_value_model(
                model, SparseRows.from_dense(features), targets, config, np.random.default_rng(seed)
            )
            kept = train_value_model_dense(
                oracle, features, targets, config, np.random.default_rng(seed)
            )
        assert (not np.array_equal(model.w2, saved_w2)) == kept
        for key in ("w1", "b1", "w2"):
            np.testing.assert_allclose(getattr(model, key), getattr(oracle, key), rtol=1e-12, atol=1e-12)
        assert model.b2 == pytest.approx(oracle.b2, rel=1e-12, abs=1e-12)
        assert model.w1.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 90),
        batch=st.integers(1, 40),
        epochs=st.integers(1, 4),
        hidden=st.integers(1, 12),
    )
    def test_stacked_retrain_equals_sequential_referees(self, seed, n, batch, epochs, hidden):
        """update_nets on four value nets equals four sequential referee
        calls on one rng, in the same retrain one net keeping its update
        and one, its weights blown up, reverting: weights, the kept flags
        and the rng's state afterwards. Every net normalizes the rows'
        own solvent values with its own statistics."""
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, (n, FP_WORDS), dtype=np.uint64)
        for _ in range(4):
            words &= rng.integers(0, 2**64, (n, FP_WORDS), dtype=np.uint64)
        rows = SparseRows.from_words(words, rng.normal(0.5, 0.3, (n, 4)))
        models = [self.make_model(seed=seed % 1000 + k, hidden=hidden) for k in range(4)]
        for model in models:
            model.norm_mean = rng.normal(0.5, 0.2, 4)
            model.norm_std = rng.uniform(0.2, 2.0, 4)
        # the third net's weights blown up, the fourth's output beyond any
        # finite loss, so its update is reverted
        models[2].w1 *= 1e4
        models[2].w2 *= 1e4
        models[3].b2 = 1e200
        # the first net's targets are its own outputs nudged, so a small
        # step can only help it
        targets = rng.normal(0.5, 0.2, (n, 4))
        targets[:, 0] = loss_free_outputs(models[0], rows) + 0.01
        referees = copy.deepcopy(models)
        config = GenerationConfig(value_epochs=epochs, value_lr=0.05, value_batch=batch)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            kept = update_nets(models, rows, targets, epochs, batch, 0.05, got_rng)
            want = [
                train_value_model_one_net(model, rows, targets[:, k], config, want_rng)
                for k, model in enumerate(referees)
            ]
        assert kept == want
        assert want[0] and not want[3]
        for got_model, want_model in zip(models, referees):
            for key in ("w1", "b1", "w2"):
                a, b = getattr(got_model, key), getattr(want_model, key)
                assert a.tobytes() == b.tobytes(), key
            assert np.float64(got_model.b2).tobytes() == np.float64(want_model.b2).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_reverted_update_leaves_w1_at_hidden_one(self):
        """With one hidden unit w1.T is contiguous already, so a working
        copy must still be a copy: a reverted update leaves w1 as it was."""
        model = self.make_model(hidden=1)
        model.b2 = 1e200  # no finite loss, so the update is reverted
        saved = model.w1.copy()
        features, targets = self.make_data()
        with np.errstate(all="ignore"):
            train_value_model(
                model, SparseRows.from_dense(features), targets, GenerationConfig(),
                np.random.default_rng(2),
            )
        assert model.w1.tobytes() == saved.tobytes()
        assert model.b2 == 1e200

    def test_kept_and_reverted_both_occur_in_oracle_cases(self):
        outcomes = set()
        for seed, epochs, lr in ((2, 8, 0.05), (3, 1, 1e8)):
            features, targets = self.make_data(n=120, seed=seed)
            config = GenerationConfig(value_epochs=epochs, value_lr=lr)
            with np.errstate(all="ignore"):
                outcomes.add(train_value_model_dense(
                    self.make_model(seed=seed), features, targets, config, np.random.default_rng(seed)
                ))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("value_lr, kept", [(0.05, True), (1e8, False)])
    def test_scores_follow_current_value_models(self, library, templates, value_lr, kept,
                                                monkeypatch):
        """After retrains that keep (or all revert) their update,
        block_outputs and every later decision's candidate outputs,
        continuations included, equal score_rows over a stack of the
        current value_models built fresh."""
        config = GenerationConfig(
            n_rollouts=4, train_interval=2, max_steps=3, seed=5, value_lr=value_lr
        )
        engine = Generator(library, templates, const_scorers(), WATER, config)
        initial = [model.w1 for model in engine.value_models]
        with np.errstate(all="ignore"):
            engine.run()
        changed = [model.w1 is not w1 for model, w1 in zip(engine.value_models, initial)]
        assert any(changed) == kept
        scored = []

        def recording(stack, words, solvent):
            out = score_rows(stack, words, solvent)
            scored.append((words.copy(), out))
            return out

        continuations = []

        def counting(product):
            found = Generator._continuations(engine, product)
            continuations.append(len(found))
            return found

        monkeypatch.setattr(generator, "score_rows", recording)
        monkeypatch.setattr(engine, "_continuations", counting)
        for _ in range(6):
            engine._run_rollout()
        assert any(continuations)
        fresh = ScoreStack(engine.value_models)
        want = score_rows(fresh, engine.block_words[:-1], WATER)
        np.testing.assert_allclose(engine.block_outputs, want, rtol=0.0, atol=1e-12)
        for words, out in scored:
            np.testing.assert_allclose(out, score_rows(fresh, words, WATER), rtol=0.0, atol=1e-12)

    def test_block_outputs_follow_kept_update(self, library, templates):
        engine = Generator(library, templates, const_scorers(), WATER, GenerationConfig(seed=4))
        stale = engine.block_outputs.copy()
        saved_w2 = [model.w2.copy() for model in engine.value_models]
        for row in engine.block_words[:-1]:
            engine.buffer.append(row, (0.9, 0.1, 0.5, 0.3))
        engine._train_values()
        assert all(
            not np.array_equal(model.w2, w2) for model, w2 in zip(engine.value_models, saved_w2)
        )
        fresh = np.array([
            [
                node_value_loop(
                    node_features([morgan_fingerprint(block.graph)], WATER), [model], [1.0]
                )
                for model in engine.value_models
            ]
            for block in library.blocks
        ])
        assert np.max(np.abs(fresh - stale)) > 1e-3
        np.testing.assert_allclose(engine.block_outputs, fresh, rtol=0.0, atol=1e-12)

    def test_block_outputs_scored_on_read_only(self, library, templates):
        """block_outputs is score_rows of the library under the current
        value nets, at start-up and after a kept retrain."""
        engine = Generator(library, templates, const_scorers(), WATER, GenerationConfig(seed=4))

        def current():
            return score_rows(ScoreStack(engine.value_models), library.words, WATER)

        assert np.array_equal(engine.block_outputs, current())
        saved_w2 = [model.w2.copy() for model in engine.value_models]
        for row in engine.block_words[:-1]:
            engine.buffer.append(row, (0.9, 0.1, 0.5, 0.3))
        engine._train_values()
        assert all(
            not np.array_equal(model.w2, w2) for model, w2 in zip(engine.value_models, saved_w2)
        )
        assert np.array_equal(engine.block_outputs, current())


def test_retrain_equals_four_sequential_referee_calls(library, templates):
    """The retrain trains the four value nets in one update_nets call; it
    equals the per-net referee called on each net in turn, on one rng:
    weights, and the rng's state afterwards."""
    engine = Generator(library, templates, const_scorers(), WATER, GenerationConfig(seed=4))
    for k, row in enumerate(engine.block_words[:-1]):
        engine.buffer.append(row, (0.9, 0.1 * (k % 3), 0.5, 0.3))
    rows, targets = engine.buffer.rows(WATER)
    referees = copy.deepcopy(engine.value_models)
    rng = copy.deepcopy(engine.np_rng)
    engine._train_values()
    kept = [
        train_value_model_one_net(model, rows, targets[:, k], engine.config, rng)
        for k, model in enumerate(referees)
    ]
    assert all(kept)
    for got, want in zip(engine.value_models, referees):
        for key in ("w1", "b1", "w2"):
            assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key
        assert np.float64(got.b2).tobytes() == np.float64(want.b2).tobytes()
        assert got.w1.flags.c_contiguous
    assert engine.np_rng.bit_generator.state == rng.bit_generator.state


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = GenerationConfig()
        assert config.n_rollouts == 10_000
        assert config.max_steps == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_rollouts": -1},
            {"tau_init": 0.001, "tau_min": 0.005},
            {"tau_init": 20.0, "tau_max": 10.0},
            {"tau_min": 0.0, "tau_init": 0.0},
            {"target_similarity": 0.0},
            {"target_similarity": 1.0},
            {"weight_floor": 0.3},
            {"window": 0},
            {"train_interval": 0},
            {"max_steps": 0},
            {"weight_floor": -0.5},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(GeneratorError):
            GenerationConfig(**kwargs)


def write_mini_corpus(tmp_path, blocks_text, reactions_text):
    blocks_file = tmp_path / "blocks.tsv"
    blocks_file.write_text(blocks_text)
    reactions_file = tmp_path / "reactions.txt"
    reactions_file.write_text(reactions_text)
    return (
        ingest_building_blocks(blocks_file),
        ingest_reaction_templates(reactions_file),
    )


AMIDE_ONLY = """\
reaction amide
arity 2
role 0 [O;H1][C]=O
role 1 [N;H2]
edit add_bond 0.1 1.0 single
edit delete_atom 0.0
end
"""


class TestSingleProductDynamics:
    """One acid, one amine, one reaction: every rollout after the first
    is a duplicate, which pins down the controller trajectories."""

    @pytest.fixture()
    def run(self, tmp_path):
        library, templates = write_mini_corpus(
            tmp_path, "acid\tCC(O)=O\namine\tNCCCC\n", AMIDE_ONLY
        )
        config = GenerationConfig(
            n_rollouts=8, train_interval=4, window=5, max_steps=1, seed=3
        )
        engine = Generator(library, templates, const_scorers(), WATER, config)
        return engine, engine.run()

    def test_one_unique_molecule(self, run):
        _, result = run
        assert len(result.molecules) == 1
        assert result.duplicates == 7
        assert result.dead_ends == 0
        assert result.molecules[0].route[0].inputs == ("acid", "amine")

    def test_path_nodes_enter_buffer(self, run):
        engine, _ = run
        # two choice nodes plus the product node per rollout
        assert len(engine.buffer) == 24

    def test_duplicates_drive_tau_up(self, run):
        _, result = run
        taus = [entry.tau for entry in result.log]
        # similarity 1.0 from rollout 1 on: seven multiplicative steps
        expected = 0.1 * (1.0 + 0.01 * (1.0 - 0.6)) ** 7
        assert taus[-1] == pytest.approx(expected)
        assert all(b >= a for a, b in zip(taus, taus[1:]))

    def test_weights_favor_the_failing_property(self, run):
        _, result = run
        # amide product has a 2-atom sp2 network; other properties succeed
        assert result.log[-1].weights == pytest.approx((0.05, 0.05, 0.05, 0.85))
        assert result.log[-1].success_rates == pytest.approx((1.0, 1.0, 1.0, 0.0))


DEAD_END_ONLY = """\
reaction broken
arity 1
role 0 [C;H4]
edit remove_bond 0.0 0.0
end
"""


class TestContinuations:
    def test_unary_template_offered_without_compatible_blocks(self, library, templates,
                                                              blocks_by_id):
        # the unary role matches no block, so the template is not viable,
        # but a product that matches it may still react through it
        amide = next(t for t in templates if t.id == "amide")
        tag = ReactionTemplate("amide_tag", 1, (parse_pattern("O=C[N;H1]"),), ())
        engine = Generator(library, (amide, tag), const_scorers(), WATER, GenerationConfig())
        assert engine.viable == {"amide"}
        reactants = [blocks_by_id[b].graph for b in ("benzoic_acid", "aniline")]
        (product,) = apply_reaction(amide, reactants).products
        assert engine._continuations(product) == [(tag, 0, -1)]


class TestDeadEnds:
    def test_dead_rows_carry_state_and_skip_learning(self, tmp_path, monkeypatch):
        """Amide rollouts succeed, rollouts through the broken unary
        template dead-end. A dead row repeats the previous row's tau,
        weights and rates; it adds nothing to the buffer, and a dead
        rollout on a train_interval boundary does not retrain."""
        library, templates = write_mini_corpus(
            tmp_path, "acid\tCC(O)=O\namine\tNCCCC\nm\tC\n", AMIDE_ONLY + DEAD_END_ONLY
        )
        config = GenerationConfig(n_rollouts=40, train_interval=2, window=5, max_steps=1, seed=3)
        engine = Generator(library, templates, const_scorers(), WATER, config)
        started = []
        retrained_at = []
        train_values = engine._train_values

        def recording():
            retrained_at.append(started[-1])
            train_values()

        monkeypatch.setattr(engine, "_train_values", recording)
        result = engine.run(progress=lambda done, total: started.append(done))
        statuses = [entry.status for entry in result.log]
        dead = [k for k, status in enumerate(statuses) if status == "dead"]
        assert result.dead_ends == len(dead) > 0
        assert any((k + 1) % config.train_interval == 0 for k in dead)
        previous = (config.tau_init, (0.25,) * 4, (0.0,) * 4)
        for entry in result.log:
            state = (entry.tau, entry.weights, entry.success_rates)
            if entry.status == "dead":
                assert state == previous and entry.similarity is None
            previous = state
        live = [k for k, status in enumerate(statuses) if status != "dead"]
        assert retrained_at == [k for k in live if (k + 1) % config.train_interval == 0]
        # the two choice nodes and the product node of each live rollout
        assert len(engine.buffer) == 3 * len(live)


class TestDegenerateRuns:
    def test_all_dead_rollouts_error(self, tmp_path):
        library, templates = write_mini_corpus(tmp_path, "m\tC\n", DEAD_END_ONLY)
        config = GenerationConfig(n_rollouts=5, seed=0)
        with pytest.raises(GeneratorError, match="dead-ended"):
            Generator(library, templates, const_scorers(), WATER, config).run()

    def test_dead_rollouts_logged_not_fatal_when_zero_requested(self, tmp_path):
        library, templates = write_mini_corpus(tmp_path, "m\tC\n", DEAD_END_ONLY)
        config = GenerationConfig(n_rollouts=0, seed=0)
        result = Generator(library, templates, const_scorers(), WATER, config).run()
        assert result.molecules == ()
        assert result.log == ()

    def test_missing_scorer_rejected(self, library, templates):
        scorers = const_scorers()
        del scorers[ScorerKind.EM_NM]
        with pytest.raises(GeneratorError, match="missing reward scorers"):
            Generator(library, templates, scorers, WATER, GenerationConfig(n_rollouts=1))


class TestGenerationRun:
    def test_output_molecules_are_unique(self, small_run):
        smiles = [m.smiles for m in small_run.molecules]
        assert len(smiles) == len(set(smiles))
        assert len(smiles) >= 40

    def test_log_accounts_for_every_rollout(self, small_run):
        assert len(small_run.log) == 60
        counts = {"ok": 0, "duplicate": 0, "dead": 0}
        for entry in small_run.log:
            counts[entry.status] += 1
        assert counts["ok"] == len(small_run.molecules)
        assert counts["duplicate"] == small_run.duplicates
        assert counts["dead"] == small_run.dead_ends

    def test_every_route_replays_to_its_molecule(self, small_run, library, templates):
        for molecule in small_run.molecules:
            assert replay_route(molecule.route, library, templates) == molecule.smiles

    def test_some_routes_chain_two_reactions(self, small_run):
        assert max(len(m.route) for m in small_run.molecules) == 2

    def test_combined_score_matches_recorded_weights(self, small_run):
        for molecule in small_run.molecules:
            expected = sum(w * s for w, s in zip(molecule.weights, molecule.scores))
            assert molecule.combined == pytest.approx(expected, abs=1e-9)

    def test_log_invariants(self, small_run):
        config = GenerationConfig()
        seen_molecule = False
        for entry in small_run.log:
            assert config.tau_min <= entry.tau <= config.tau_max
            assert sum(entry.weights) == pytest.approx(1.0, abs=1e-9)
            assert min(entry.weights) >= 0.05 - 1e-12
            assert all(0.0 <= r <= 1.0 for r in entry.success_rates)
            if entry.status == "dead":
                continue
            if seen_molecule:
                assert 0.0 <= entry.similarity <= 1.0
            else:
                assert entry.similarity is None
                seen_molecule = True

    def test_similarity_is_scalar_max_over_emitted(self, small_run):
        # the nearest-neighbour similarity of each new molecule against
        # every molecule emitted before it, by the scalar tanimoto
        fingerprints = {
            m.rollout: morgan_fingerprint(parse_smiles(m.smiles)) for m in small_run.molecules
        }
        earlier = []
        for entry in small_run.log:
            if entry.status != "ok":
                continue
            fp = fingerprints[entry.rollout]
            if earlier:
                assert entry.similarity == max(tanimoto(fp, other) for other in earlier)
            earlier.append(fp)
        assert len(earlier) > 32

    def test_usage_histogram_counts_route_steps(self, small_run):
        total_steps = sum(len(m.route) for m in small_run.molecules)
        assert sum(small_run.reaction_usage.values()) == total_steps
        assert all(count > 0 for count in small_run.reaction_usage.values())

    def test_molecules_ordered_by_rollout(self, small_run):
        indices = [m.rollout for m in small_run.molecules]
        assert indices == sorted(indices)


def test_wrapping_ring_run_equals_deque_run(library, templates, monkeypatch):
    """A run whose 20-slot buffer wraps many times: with the deque referee
    in place of the ring it gives the same molecules, log and reaction
    usage, and value nets equal to the last bit."""
    config = GenerationConfig(
        n_rollouts=60, buffer_capacity=20, train_interval=5, max_steps=3, window=10, seed=13
    )
    engines = [Generator(library, templates, const_scorers(), WATER, config)]
    monkeypatch.setattr(generator, "ReplayBuffer", ReplayBufferDeque)
    engines.append(Generator(library, templates, const_scorers(), WATER, config))
    ring, referee = (engine.run() for engine in engines)
    # a live rollout appends at least its first block's node and its product's
    live = sum(entry.status != "dead" for entry in ring.log)
    assert 2 * live > 3 * config.buffer_capacity
    assert ring.molecules == referee.molecules
    assert ring.log == referee.log
    assert ring.reaction_usage == referee.reaction_usage
    for model, want in zip(*(engine.value_models for engine in engines)):
        for key in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(model, key), getattr(want, key)), key


class TestDeterminism:
    CONFIG = GenerationConfig(n_rollouts=30, train_interval=5, window=10, seed=11)

    def test_equal_runs_produce_equal_results(self, library, templates):
        first = Generator(library, templates, const_scorers(), WATER, self.CONFIG).run()
        second = Generator(library, templates, const_scorers(), WATER, self.CONFIG).run()
        assert [m.smiles for m in first.molecules] == [m.smiles for m in second.molecules]
        assert first.log == second.log
        assert first.reaction_usage == second.reaction_usage

    def test_output_files_are_byte_identical(self, tmp_path, library, templates):
        paths = {}
        for tag in ("a", "b"):
            result = Generator(library, templates, const_scorers(), WATER, self.CONFIG).run()
            base = tmp_path / tag
            base.mkdir()
            write_molecules(result.molecules, base / "molecules.tsv")
            write_run_log(result.log, base / "log.tsv")
            write_reaction_usage(result.reaction_usage, base / "usage.tsv")
            paths[tag] = base
        for name in ("molecules.tsv", "log.tsv", "usage.tsv"):
            assert (paths["a"] / name).read_bytes() == (paths["b"] / name).read_bytes()

    def test_different_seed_changes_output(self, library, templates):
        first = Generator(library, templates, const_scorers(), WATER, self.CONFIG).run()
        other_config = GenerationConfig(
            n_rollouts=30, train_interval=5, window=10, seed=12
        )
        second = Generator(library, templates, const_scorers(), WATER, other_config).run()
        assert [m.smiles for m in first.molecules] != [m.smiles for m in second.molecules]


class TestPinnedOutputs:
    """The four output files of one fixed run, held to digests taken
    before reactions and set-up stopped writing strings nobody reads. A
    change that moves the trajectory on purpose updates the digests and
    says so in CHANGES.md."""

    DIGESTS = {
        "molecules.tsv": "bad35f5135195b8bfc4aa3411b6fb703310877fb80c6f689ddac3f9a8a5f2fc6",
        "run_log.tsv": "2809f9d57d2cff95173c1ebd584a32a7b67cec1bfc81159f1a54300a1085501e",
        "reaction_usage.tsv": "3be54dc5c1a7a7b4471838c906d6eff2ee93219f0fa3f5f3af1d538c54dfe7cc",
        "baseline.tsv": "0f9ed0631c2b2d5fda1c8472e6f8b5cbf9329f8b7e554cb7c7f3e77cb7350b02",
    }

    def test_output_digests(self, tmp_path, library, templates):
        config = GenerationConfig(
            n_rollouts=120, buffer_capacity=40, train_interval=10, max_steps=3, window=20, seed=5
        )
        result = Generator(library, templates, const_scorers(), WATER, config).run()
        # the 40-slot buffer wraps, and some molecules take three steps
        assert max(len(m.route) for m in result.molecules) == 3
        write_molecules(result.molecules, tmp_path / "molecules.tsv")
        write_run_log(result.log, tmp_path / "run_log.tsv")
        write_reaction_usage(result.reaction_usage, tmp_path / "reaction_usage.tsv")
        baseline = uniform_baseline(library, templates, 30, 3, const_scorers(), WATER)
        write_molecules(baseline, tmp_path / "baseline.tsv")
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS


class TestRouteCodec:
    def test_round_trip(self, small_run):
        for molecule in small_run.molecules:
            text = format_route(molecule.route)
            assert parse_route(text) == molecule.route

    def test_prev_marker_survives(self):
        route = (
            RouteStep("amide", ("acid", "amine"), 0),
            RouteStep("suzuki", ("boronic", "@prev"), 1),
        )
        assert parse_route(format_route(route)) == route

    # any id that ingestion accepts: no route delimiter; the marker may
    # stand for an input
    route_ids = st.text(st.characters(exclude_characters=ROUTE_DELIMITERS))

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(
            st.builds(
                RouteStep,
                template_id=route_ids,
                inputs=st.lists(route_ids | st.just(PREV_MARKER), min_size=1, max_size=3).map(tuple),
                product_index=st.integers(0, 1000),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_round_trips_any_route_of_accepted_ids(self, steps):
        route = tuple(steps)
        assert parse_route(format_route(route)) == route

    def test_malformed_step_rejected(self):
        with pytest.raises(GeneratorError):
            parse_route("amide(acid,amine)")
        with pytest.raises(GeneratorError):
            parse_route("amide->1")

    # digits of other scripts, and superscripts, are no product index
    @pytest.mark.parametrize("index", ["\u0661", "²", "1²"])
    def test_only_ascii_digit_index(self, index):
        with pytest.raises(GeneratorError, match="bad route step"):
            parse_route(f"amide(acid,amine)->{index}")


class TestReplayErrors:
    def test_unknown_template(self, library, templates):
        route = (RouteStep("no_such", ("benzaldehyde",), 0),)
        with pytest.raises(GeneratorError, match="unknown template"):
            replay_route(route, library, templates)

    def test_unknown_block(self, library, templates):
        route = (RouteStep("amide", ("benzoic_acid", "no_such"), 0),)
        with pytest.raises(GeneratorError, match="unknown block"):
            replay_route(route, library, templates)

    def test_prev_in_first_step(self, library, templates):
        route = (RouteStep("amide", ("@prev", "aniline"), 0),)
        with pytest.raises(GeneratorError, match="@prev"):
            replay_route(route, library, templates)

    def test_empty_route(self, library, templates):
        with pytest.raises(GeneratorError, match="empty route"):
            replay_route((), library, templates)


class TestUniformBaseline:
    def test_deterministic_and_single_step(self, library, templates):
        first = uniform_baseline(library, templates, 40, 9, const_scorers(), WATER)
        second = uniform_baseline(library, templates, 40, 9, const_scorers(), WATER)
        assert [m.smiles for m in first] == [m.smiles for m in second]
        assert all(len(m.route) == 1 for m in first)
        assert len(first) > 0

    def test_routes_replay(self, library, templates):
        for molecule in uniform_baseline(library, templates, 25, 4, const_scorers(), WATER):
            assert replay_route(molecule.route, library, templates) == molecule.smiles

    def test_given_index_gives_the_same_sample(self, library, templates):
        index = CompatibilityIndex(library, tuple(templates))
        own = uniform_baseline(library, templates, 40, 9, const_scorers(), WATER)
        shared = uniform_baseline(library, templates, 40, 9, const_scorers(), WATER, index)
        assert shared == own
