import ast
import hashlib
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fluorgen.dataset import Task, TaskDataset
from fluorgen.fingerprints import (
    FEATURE_DIM,
    FP_BITS,
    FP_WORDS,
    SOLVENT_DIM,
    WATER,
    Fingerprint,
    SolventFeatures,
    feature_rows,
    morgan_fingerprint,
    pack,
)
from fluorgen import cli, scorers
from fluorgen.scorers import (
    Head,
    MlpModel,
    PropertyScorer,
    ScorerError,
    ScorerKind,
    ScoreStack,
    SparseRows,
    TrainConfig,
    TrainJob,
    forward_batch,
    load_model,
    loss_and_grads,
    mae,
    mlp_train,
    roc_auc,
    run_cv,
    save_model,
    score_property,
    score_rows,
    train_nets,
)
from fluorgen.smiles import parse_smiles

from oracles import (
    dense_w1_gradient,
    loss_and_grads_dense,
    mlp_train_dense,
    mlp_train_one_net,
    run_cv_dense,
    score_rows_loop,
    sparse_rows_to_dense,
)



def make_model(input_dim=6, hidden=4, head=Head.LINEAR, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    return MlpModel(
        w1=rng.normal(0, scale, (hidden, input_dim)),
        b1=rng.normal(0, scale, hidden),
        w2=rng.normal(0, scale, hidden),
        b2=float(rng.normal(0, scale)),
        head=head,
        norm_mean=np.zeros(SOLVENT_DIM),
        norm_std=np.ones(SOLVENT_DIM),
    )


def zero_model(input_dim=6, hidden=3, head=Head.SIGMOID, b2=0.0):
    return MlpModel(
        w1=np.zeros((hidden, input_dim)),
        b1=np.zeros(hidden),
        w2=np.zeros(hidden),
        b2=b2,
        head=head,
        norm_mean=np.zeros(SOLVENT_DIM),
        norm_std=np.ones(SOLVENT_DIM),
    )


def random_batch(n, input_dim, seed):
    rng = np.random.default_rng(seed)
    features = (rng.random((n, input_dim)) < 0.3).astype(float)
    features[:, -SOLVENT_DIM:] = rng.normal(0.5, 0.3, (n, SOLVENT_DIM))
    return features


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        model = zero_model()
        fv = np.ones(6)
        assert forward_batch(model, fv[np.newaxis, :])[0] == pytest.approx(0.5)

    def test_zero_weights_linear_gives_bias(self):
        model = zero_model(head=Head.LINEAR, b2=450.0)
        assert forward_batch(model, np.ones((1, 6)))[0] == pytest.approx(450.0)

    def test_single_path_arithmetic(self):
        model = zero_model(head=Head.LINEAR)
        model.w1[0, 0] = 1.0
        model.w2[0] = 1.0
        fv = np.zeros(6)
        fv[0] = 1.0
        assert forward_batch(model, fv[np.newaxis, :])[0] == pytest.approx(1.0)

    def test_relu_blocks_negative_path(self):
        model = zero_model(head=Head.LINEAR)
        model.w1[0, 0] = -1.0
        model.w2[0] = 1.0
        fv = np.zeros(6)
        fv[0] = 1.0
        assert forward_batch(model, fv[np.newaxis, :])[0] == pytest.approx(0.0)

    def test_sigmoid_output_in_unit_interval(self):
        model = make_model(head=Head.SIGMOID, scale=3.0)
        batch = random_batch(50, 6, seed=1)
        out = forward_batch(model, batch)
        assert np.all((out > 0) & (out < 1))

    def test_dimension_mismatch(self):
        model = make_model(input_dim=6)
        with pytest.raises(ScorerError, match="features"):
            forward_batch(model, np.ones((1, 7)))

    def test_solvent_normalization_applied(self):
        model = zero_model(head=Head.LINEAR, hidden=1)
        model.w1[0, -1] = 1.0
        model.w2[0] = 1.0
        model.norm_mean[:] = [0, 0, 0, 2.0]
        model.norm_std[:] = [1, 1, 1, 4.0]
        fv = np.zeros(6)
        fv[-1] = 10.0
        assert forward_batch(model, fv[np.newaxis, :])[0] == pytest.approx((10.0 - 2.0) / 4.0)


class TestGradients:
    def finite_difference(self, model, features, labels):
        eps = 1e-4
        grads = {}
        params = {"w1": model.w1, "b1": model.b1, "w2": model.w2}
        for name, arr in params.items():
            grad = np.zeros_like(arr)
            flat = arr.ravel()
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + eps
                up, _ = loss_and_grads(model, features, labels)
                flat[i] = old - eps
                down, _ = loss_and_grads(model, features, labels)
                flat[i] = old
                grad.ravel()[i] = (up - down) / (2 * eps)
            grads[name] = grad
        old = model.b2
        model.b2 = old + eps
        up, _ = loss_and_grads(model, features, labels)
        model.b2 = old - eps
        down, _ = loss_and_grads(model, features, labels)
        model.b2 = old
        grads["b2"] = (up - down) / (2 * eps)
        return grads

    @pytest.mark.parametrize("head", [Head.SIGMOID, Head.LINEAR])
    def test_analytic_matches_finite_differences(self, head):
        model = make_model(input_dim=8, hidden=5, head=head, seed=3)
        features = random_batch(5, 8, seed=4)
        labels = (
            np.array([0, 1, 1, 0, 1], dtype=float)
            if head is Head.SIGMOID
            else np.array([0.2, -1.0, 0.7, 2.0, 0.0])
        )
        rows = SparseRows.from_dense(features)
        _, analytic = loss_and_grads(model, rows, labels)
        analytic["w1"] = dense_w1_gradient(analytic, model)
        numeric = self.finite_difference(model, rows, labels)
        for key in ("w1", "b1", "w2", "b2"):
            a = np.asarray(analytic[key], dtype=float)
            f = np.asarray(numeric[key], dtype=float)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
            assert np.max(np.abs(a - f) / denom) < 1e-4

    def test_gradient_descends(self):
        model = make_model(input_dim=6, hidden=4, head=Head.LINEAR, seed=5)
        features = random_batch(20, 6, seed=6)
        labels = np.linspace(-1, 1, 20)
        rows = SparseRows.from_dense(features)
        loss0, grads = loss_and_grads(model, rows, labels)
        grads["w1"] = dense_w1_gradient(grads, model)
        for key, grad in grads.items():
            current = getattr(model, key)
            setattr(model, key, current - 0.01 * grad)
        loss1, _ = loss_and_grads(model, rows, labels)
        assert loss1 < loss0


class TestTraining:
    def separable_set(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        features = (rng.random((n, 20)) < 0.2).astype(float)
        features[:, -SOLVENT_DIM:] = rng.normal(0, 1, (n, SOLVENT_DIM))
        labels = features[:, 0].copy()
        return features, labels

    def test_separable_classification_fits(self):
        features, labels = self.separable_set()
        config = TrainConfig(hidden_dim=16, epochs=80, learning_rate=0.3, seed=1)
        result = mlp_train(features, labels, Head.SIGMOID, config)
        auc = roc_auc(forward_batch(result.model, features), labels)
        assert auc >= 0.99

    def test_constant_regression_converges(self):
        rng = np.random.default_rng(2)
        features = (rng.random((40, 12)) < 0.3).astype(float)
        labels = np.full(40, 3.0)
        config = TrainConfig(hidden_dim=8, epochs=300, learning_rate=0.1, patience=300, seed=2)
        result = mlp_train(features, labels, Head.LINEAR, config)
        predictions = forward_batch(result.model, features)
        assert np.max(np.abs(predictions - 3.0)) < 1e-3

    def test_training_is_deterministic(self):
        features, labels = self.separable_set(n=60, seed=3)
        config = TrainConfig(hidden_dim=8, epochs=10, seed=7)
        a = mlp_train(features, labels, Head.SIGMOID, config)
        b = mlp_train(features, labels, Head.SIGMOID, config)
        assert np.array_equal(a.model.w1, b.model.w1)
        assert np.array_equal(a.model.w2, b.model.w2)
        assert a.model.b2 == b.model.b2
        assert a.train_losses == b.train_losses

    def test_seed_changes_outcome(self):
        features, labels = self.separable_set(n=60, seed=3)
        a = mlp_train(features, labels, Head.SIGMOID, TrainConfig(hidden_dim=8, epochs=5, seed=1))
        b = mlp_train(features, labels, Head.SIGMOID, TrainConfig(hidden_dim=8, epochs=5, seed=2))
        assert not np.array_equal(a.model.w1, b.model.w1)

    def test_best_validation_checkpoint_returned(self):
        rng = np.random.default_rng(4)
        features = (rng.random((30, 10)) < 0.4).astype(float)
        labels = rng.random(30)
        val_features = (rng.random((10, 10)) < 0.4).astype(float)
        val_labels = rng.random(10)
        config = TrainConfig(hidden_dim=6, epochs=50, learning_rate=0.5, patience=50, seed=4)
        result = mlp_train(
            features, labels, Head.LINEAR, config,
            val_features=val_features, val_labels=val_labels,
        )
        final_val, _ = loss_and_grads(
            result.model, SparseRows.from_dense(val_features), val_labels
        )
        assert final_val == pytest.approx(min(result.val_losses))
        assert result.best_epoch == int(np.argmin(result.val_losses))

    def test_early_stop_cuts_epochs(self):
        # Validation labels anti-correlated with training: fitting the
        # training set makes validation worse, so patience must trigger.
        features, labels = self.separable_set(n=40, seed=5)
        val_features, val_labels = self.separable_set(n=20, seed=50)
        config = TrainConfig(hidden_dim=4, epochs=500, learning_rate=2.0, patience=3, seed=5)
        result = mlp_train(
            features, labels, Head.SIGMOID, config,
            val_features=val_features, val_labels=1.0 - val_labels,
        )
        assert len(result.train_losses) < 500

    def test_divergence_reported(self):
        rng = np.random.default_rng(6)
        features = rng.normal(0, 1, (20, 8))
        labels = rng.normal(0, 1e6, 20)
        config = TrainConfig(hidden_dim=8, epochs=10, learning_rate=100.0, seed=6)
        with np.errstate(all="ignore"), pytest.raises(ScorerError, match="diverged"):
            mlp_train(features, labels, Head.LINEAR, config)

    def test_normalization_from_training_columns(self):
        features, labels = self.separable_set(n=50, seed=8)
        config = TrainConfig(hidden_dim=4, epochs=2, seed=8)
        result = mlp_train(features, labels, Head.SIGMOID, config)
        solvent = features[:, -SOLVENT_DIM:]
        assert np.allclose(result.model.norm_mean, solvent.mean(axis=0))
        assert np.allclose(result.model.norm_std, solvent.std(axis=0))

    def test_length_mismatch(self):
        with pytest.raises(ScorerError, match="differ in length"):
            mlp_train(np.zeros((3, 5)), np.zeros(4), Head.LINEAR, TrainConfig())


class TestMetrics:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_ties_count_half(self):
        assert roc_auc([0.5, 0.5, 0.2], [1, 0, 0]) == pytest.approx(0.75)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        scores = rng.random(50)
        labels = (rng.random(50) < 0.4).astype(int)
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(5 * scores), labels) == pytest.approx(base)
        assert roc_auc(scores * 1000 - 7, labels) == pytest.approx(base)

    def test_single_class_rejected(self):
        with pytest.raises(ScorerError, match="both classes"):
            roc_auc([0.1, 0.9], [1, 1])

    def test_mae_cases(self):
        assert mae([1.0, 3.0], [2.0, 2.0]) == pytest.approx(1.0)
        assert mae([5.0, 5.0], [5.0, 5.0]) == 0.0
        assert mae([6.0, 6.0], [5.0, 5.0]) == pytest.approx(1.0)
        with pytest.raises(ScorerError):
            mae([1.0], [1.0, 2.0])


class TestPropertyScorers:
    @pytest.mark.parametrize("n", [0, 1, 64, 65, 130, 200])
    def test_score_fingerprints_matches_score_property(self, n):
        """score_rows on packed rows equals one-row score_property calls,
        across the 64-row block edges."""
        rng = np.random.default_rng(n)
        model = make_model(input_dim=FEATURE_DIM, hidden=6, head=Head.LINEAR, seed=n, scale=0.3)
        scorer = PropertyScorer(kind=ScorerKind.ABS_NM, model=model)
        solvent = SolventFeatures(0.7, 0.5, 0.2, 0.1)
        fps = [
            Fingerprint(int(sum(1 << int(b) for b in rng.choice(2048, 40, replace=False))))
            for _ in range(n)
        ]
        got = score_rows(ScoreStack([model]), pack(fps), solvent)
        assert got.shape == (n, 1)
        want = [score_property(scorer, None, fp, solvent) for fp in fps]
        np.testing.assert_allclose(got[:, 0], want, rtol=1e-12, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(
            st.tuples(st.sampled_from(Head), st.integers(1, 40)), min_size=1, max_size=4
        ),
        n=st.sampled_from([0, 1, 63, 64, 65, 128, 129]),
        zero_rows=st.integers(0, 3),
    )
    def test_score_rows_equals_sparse_order_referee(self, seed, shapes, n, zero_rows):
        """score_rows equals the sparse-order loop referee bit for bit and
        one-row score_property calls within 1e-12: both heads, mixed hidden
        widths in one stack, normalized solvent columns, all-zero rows and
        n across the 64-row block edges."""
        rng = np.random.default_rng(seed)
        models = [
            MlpModel(
                w1=rng.normal(0.0, 0.3, (width, FEATURE_DIM)),
                b1=rng.normal(0.0, 0.1, width),
                w2=rng.normal(0.0, 1.0, width),
                b2=float(rng.normal()),
                head=head,
                norm_mean=rng.normal(0.5, 0.3, SOLVENT_DIM),
                norm_std=rng.uniform(0.2, 2.0, SOLVENT_DIM),
            )
            for head, width in shapes
        ]
        fps = [
            Fingerprint(sum(1 << int(b) for b in rng.choice(FP_BITS, rng.integers(1, 90), False)))
            for _ in range(n)
        ]
        for row in rng.integers(0, max(n, 1), zero_rows if n else 0):
            fps[row] = Fingerprint(0)
        solvent = SolventFeatures(*rng.uniform(0.0, 1.2, SOLVENT_DIM).tolist())
        words = pack(fps)
        got = score_rows(ScoreStack(models), words, solvent)
        assert got.shape == (n, len(models))
        assert np.array_equal(got, score_rows_loop(models, words, solvent))
        want = [
            [score_property(PropertyScorer(ScorerKind.ABS_NM, m), None, fp, solvent) for m in models]
            for fp in fps
        ]
        np.testing.assert_allclose(got, np.reshape(want, got.shape), rtol=0.0, atol=1e-12)

    def test_stack_rejects_other_widths(self):
        with pytest.raises(ScorerError):
            ScoreStack([zero_model(input_dim=6)])

    def test_stack_bit_weights_c_ordered(self):
        """The CSR product reads the stacked weights uncopied only when they
        are C-ordered, whichever order each model's w1 is in."""
        c_ordered = make_model(input_dim=FEATURE_DIM, hidden=5)
        f_ordered = make_model(input_dim=FEATURE_DIM, hidden=3, seed=1)
        f_ordered.w1 = np.asfortranarray(f_ordered.w1)
        for models in ([c_ordered], [f_ordered], [c_ordered, f_ordered]):
            assert ScoreStack(models).bit_weights.flags.c_contiguous

    def test_sp2_size_scorer(self):
        scorer = PropertyScorer(kind=ScorerKind.SP2_SIZE)
        benzene = parse_smiles("c1ccccc1")
        assert score_property(scorer, benzene, morgan_fingerprint(benzene), WATER) == 6.0

    def test_model_backed_scorer(self):
        model = zero_model(input_dim=FEATURE_DIM, hidden=2)
        scorer = PropertyScorer(kind=ScorerKind.PLQY_PROB, model=model)
        ethanol = parse_smiles("CCO")
        value = score_property(scorer, ethanol, morgan_fingerprint(ethanol), WATER)
        assert value == pytest.approx(0.5)

    def test_missing_model_rejected(self):
        with pytest.raises(ScorerError, match="needs a trained model"):
            PropertyScorer(kind=ScorerKind.ABS_NM)

    def test_probability_stays_in_unit_interval(self):
        model = make_model(input_dim=FEATURE_DIM, hidden=5, head=Head.SIGMOID, seed=11, scale=2.0)
        scorer = PropertyScorer(kind=ScorerKind.PLQY_PROB, model=model)
        for smiles in ("c1ccccc1", "CC(=O)O", "c1ccc2ccccc2c1"):
            graph = parse_smiles(smiles)
            value = score_property(scorer, graph, morgan_fingerprint(graph), WATER)
            assert 0.0 < value < 1.0


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model = make_model(input_dim=10, hidden=4, head=Head.SIGMOID, seed=12)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.w1, model.w1)
        assert np.array_equal(loaded.w2, model.w2)
        assert loaded.b2 == model.b2
        assert loaded.head is Head.SIGMOID
        batch = random_batch(7, 10, seed=13)
        assert np.array_equal(forward_batch(loaded, batch), forward_batch(model, batch))

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_text("not a checkpoint")
        with pytest.raises(ScorerError, match="cannot read"):
            load_model(str(path))

    def test_version_checked(self, tmp_path):
        path = str(tmp_path / "model.npz")
        np.savez(path, version=np.int64(99), w1=np.zeros((1, 1)))
        with pytest.raises(ScorerError, match="version"):
            load_model(path)


class TestCrossValidation:
    def build_dataset(self, n=120, seed=14):
        rng = np.random.default_rng(seed)
        features = (rng.random((n, FEATURE_DIM)) < 0.02).astype(float)
        features[:, 3] = (rng.random(n) < 0.5).astype(float)
        features[:, -SOLVENT_DIM:] = rng.normal(0.5, 0.2, (n, SOLVENT_DIM))
        labels = features[:, 3].copy()
        bits = features[:, :FP_BITS].astype(np.uint8)
        return TaskDataset(
            task=Task.PLQY_CLASS,
            words=np.packbits(bits, axis=1, bitorder="little").view("<u8"),
            labels=labels,
            smiles=tuple(f"mol{i}" for i in range(n)),
            solvents=tuple(SolventFeatures(*features[i, -SOLVENT_DIM:]) for i in range(n)),
        )

    def test_cv_on_separable_data(self):
        dataset = self.build_dataset()
        config = TrainConfig(hidden_dim=8, epochs=40, learning_rate=0.5, seed=15)
        report, _ = run_cv(dataset, config, folds=10, split_seed=0)
        assert len(report.fold_metrics) == 10
        assert report.mean > 0.9
        assert report.metric_name == "roc_auc"

    def test_report_format(self, tmp_path):
        import re

        dataset = self.build_dataset(n=60)
        config = TrainConfig(hidden_dim=4, epochs=5, seed=16)
        report, _ = run_cv(dataset, config, folds=10, split_seed=1)
        assert re.fullmatch(r"roc_auc = \d\.\d{3} ± \d\.\d{3}", report.summary())
        path = tmp_path / "cv.tsv"
        report.write(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "task\tplqy_class"
        assert lines[-1].startswith("summary\t")
        assert len(lines) == 13

    def test_run_cv_equals_dense_path_oracle(self, tmp_path, monkeypatch):
        """Every task of the benchmark's seed-1 train CSV: run_cv on the
        dataset's packed words gives exactly the fold metrics and model
        arrays of the dense path (feature_matrix, then from_dense)."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import inputs

        from fluorgen.dataset import curate_task, ingest_chemfluor

        inputs.build_train(1, str(tmp_path))
        ingested = ingest_chemfluor(str(tmp_path / "chemfluor.csv"))
        config = TrainConfig(epochs=6, hidden_dim=16, patience=3, seed=2)
        for task in (Task.PLQY_CLASS, Task.ABS_REG, Task.EM_REG):
            dataset = curate_task(ingested, task)
            report, models = run_cv(dataset, config, folds=4, split_seed=3)
            want_metrics, want_models = run_cv_dense(dataset, config, folds=4, split_seed=3)
            assert report.fold_metrics == want_metrics
            assert len(models) == len(want_models) == 4
            for got, want in zip(models, want_models):
                for key in ("w1", "b1", "w2", "norm_mean", "norm_std"):
                    assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key
                assert (got.b2, got.head, got.seed) == (want.b2, want.head, want.seed)


@st.composite
def sparse_problems(draw):
    """A model and a batch whose rows include empty leading blocks and
    all-zero solvent values."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 12))
    width = draw(st.integers(SOLVENT_DIM + 1, 40))
    hidden = draw(st.integers(1, 7))
    head = draw(st.sampled_from([Head.SIGMOID, Head.LINEAR]))
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    features = np.where(rng.random((n, width)) < density, 1.0, 0.0)
    if draw(st.booleans()):
        features *= rng.normal(0, 2, (n, width))  # values other than 1
    features[:, -SOLVENT_DIM:] = rng.normal(0.5, 0.3, (n, SOLVENT_DIM))
    features[rng.random(n) < 0.3, :-SOLVENT_DIM] = 0.0
    features[rng.random(n) < 0.3, -SOLVENT_DIM:] = 0.0
    model = make_model(input_dim=width, hidden=hidden, head=head, seed=seed % 1000)
    model.norm_mean[:] = rng.normal(0, 0.2, SOLVENT_DIM)
    model.norm_std[:] = rng.uniform(0.5, 2.0, SOLVENT_DIM)
    labels = (
        (rng.random(n) < 0.5).astype(float) if head is Head.SIGMOID else rng.normal(0, 1, n)
    )
    return model, features, labels


class TestSparseKernel:
    @settings(max_examples=150, deadline=None)
    @given(sparse_problems())
    def test_matches_dense_oracle(self, problem):
        model, features, labels = problem
        rows = SparseRows.from_dense(features)
        loss, grads = loss_and_grads(model, rows, labels)
        want_loss, want = loss_and_grads_dense(model, features, labels)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        columns, _ = grads["w1"]
        assert np.all(np.diff(columns) > 0)
        touched = np.flatnonzero(np.any(features != 0.0, axis=0)[:-SOLVENT_DIM])
        assert columns.tolist() == touched.tolist() + list(
            range(model.input_dim - SOLVENT_DIM, model.input_dim)
        )
        np.testing.assert_allclose(dense_w1_gradient(grads, model), want["w1"], rtol=0, atol=1e-12)
        for key in ("b1", "w2"):
            np.testing.assert_allclose(grads[key], want[key], rtol=0, atol=1e-12)
        assert grads["b2"] == pytest.approx(want["b2"], rel=0, abs=1e-12)
        full, none = loss_and_grads(model, rows, labels, grads=False)
        assert none is None
        assert full == pytest.approx(want_loss, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(sparse_problems(), st.data())
    def test_rows_round_trip(self, problem, data):
        _, features, _ = problem
        rows = SparseRows.from_dense(features)
        assert np.array_equal(sparse_rows_to_dense(rows), features)
        order = data.draw(st.permutations(range(len(features))))
        taken = rows.take(order)
        assert np.array_equal(sparse_rows_to_dense(taken), features[order])
        start = data.draw(st.integers(0, len(features)))
        stop = data.draw(st.integers(start, len(features) + 3))
        assert np.array_equal(
            sparse_rows_to_dense(taken.slice(start, stop)), features[order][start:stop]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 70),
        zero_rows=st.integers(0, 4),
        per_row_solvents=st.booleans(),
    )
    def test_from_words_equals_from_dense_of_feature_rows(
        self, seed, n, zero_rows, per_row_solvents
    ):
        """Field by field, with all-zero rows and solvent values given per
        row or as one row for all."""
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, (n, FP_WORDS), dtype=np.uint64, endpoint=False)
        words &= rng.integers(0, 2**64, (n, FP_WORDS), dtype=np.uint64, endpoint=False)
        words[rng.integers(0, max(n, 1), zero_rows if n else 0)] = 0
        if per_row_solvents:
            solvents = rng.normal(0.5, 0.3, (n, SOLVENT_DIM))
        else:
            solvents = tuple(rng.normal(0.5, 0.3, SOLVENT_DIM).tolist())
        got = SparseRows.from_words(words, solvents)
        want = SparseRows.from_dense(feature_rows(words, solvents))
        assert got.width == want.width == FEATURE_DIM
        for key in ("indptr", "indices", "data", "solvent"):
            a, b = getattr(got, key), getattr(want, key)
            assert a.dtype == b.dtype and a.shape == b.shape, key
            assert a.tobytes() == b.tobytes(), key

    def test_width_mismatch_rejected(self):
        with pytest.raises(ScorerError, match="wide rows"):
            loss_and_grads(
                make_model(input_dim=6), SparseRows.from_dense(np.ones((2, 7))), np.zeros(2)
            )

    @pytest.mark.parametrize("labels", [[1.0], [1.0, 2.0]], ids=["one", "two"])
    def test_label_count_must_equal_row_count(self, labels):
        """One label is not broadcast over five rows, and two fail with
        the stack's message, not inside numpy."""
        rows = SparseRows.from_dense(np.ones((5, 7)))
        with pytest.raises(ScorerError, match=f"row set 0: {len(labels)} labels for 5 rows"):
            loss_and_grads(make_model(input_dim=7), rows, labels, grads=False)

    def test_untouched_columns_keep_their_initial_weights(self):
        """Momentum is kept only for the live columns, those the training
        rows touch plus the solvent columns: every other w1 column stays
        the initial draw bit for bit, and every live column moves."""
        rng = np.random.default_rng(3)
        n, width = 80, 40
        features = np.zeros((n, width))
        features[:, :12] = rng.random((n, 12)) < 0.3
        features[:, -SOLVENT_DIM:] = rng.normal(size=(n, SOLVENT_DIM))
        config = TrainConfig(epochs=5, hidden_dim=8, seed=4)
        model = mlp_train(features, rng.normal(size=n), Head.LINEAR, config).model
        init = np.random.default_rng(config.seed).normal(
            0.0, config.weight_init_scale, (config.hidden_dim, width)
        )
        live = features.any(axis=0)
        assert 0 < live[:-SOLVENT_DIM].sum() < width - SOLVENT_DIM
        assert model.w1[:, ~live].tobytes() == init[:, ~live].tobytes()
        assert (model.w1[:, live] != init[:, live]).any(axis=0).all()

    def test_trainer_matches_dense_oracle_on_train_csv(self, tmp_path, monkeypatch):
        """Every fold of the benchmark's seed-1 train CSV, as cmd_train
        splits it: weights to 1e-12, same best epoch and epoch count,
        loss sequences to 1e-12 relative."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import inputs

        from fluorgen.dataset import curate_task, ingest_chemfluor, split_cv

        inputs.build_train(1, str(tmp_path))
        ingested = ingest_chemfluor(str(tmp_path / "chemfluor.csv"))
        config = TrainConfig(epochs=20, hidden_dim=64, patience=20, batch_size=32)
        for task in (Task.PLQY_CLASS, Task.ABS_REG, Task.EM_REG):
            dataset = curate_task(ingested, task)
            features = feature_rows(dataset.words, [s.as_tuple() for s in dataset.solvents])
            head = Head.SIGMOID if task is Task.PLQY_CLASS else Head.LINEAR
            for split in split_cv(len(dataset), folds=3, seed=0):
                train, val = np.array(split.train), np.array(split.val)
                args = (features[train], dataset.labels[train], head, config)
                kwargs = {"val_features": features[val], "val_labels": dataset.labels[val]}
                got = mlp_train(*args, **kwargs)
                want = mlp_train_dense(*args, **kwargs)
                assert got.best_epoch == want.best_epoch
                np.testing.assert_allclose(got.train_losses, want.train_losses, rtol=1e-12)
                np.testing.assert_allclose(got.val_losses, want.val_losses, rtol=1e-12)
                for key in ("w1", "b1", "w2", "norm_mean", "norm_std"):
                    np.testing.assert_allclose(
                        getattr(got.model, key), getattr(want.model, key), rtol=1e-12, atol=1e-12
                    )
                assert got.model.b2 == pytest.approx(want.model.b2, rel=1e-12, abs=1e-12)
                assert got.model.w1.flags.c_contiguous


@st.composite
def stacked_problems(draw):
    """Jobs for train_nets: fold sizes that straddle a batch boundary, so
    nets take different step counts per epoch, a patience small enough
    that nets stop at different epochs, and validation rows that touch
    columns no training row of their job touches."""
    seed = draw(st.integers(0, 2**32 - 1))
    head = draw(st.sampled_from([Head.SIGMOID, Head.LINEAR]))
    batch = draw(st.integers(2, 8))
    width = draw(st.integers(SOLVENT_DIM + 4, 40))
    config = TrainConfig(
        epochs=draw(st.integers(1, 8)),
        hidden_dim=draw(st.integers(1, 6)),
        batch_size=batch,
        patience=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([0.05, 0.5])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        seed=draw(st.integers(0, 1000)),
    )
    rng = np.random.default_rng(seed)
    lead = width - SOLVENT_DIM
    jobs = []
    for _ in range(draw(st.integers(1, 6))):
        n = max(1, draw(st.integers(1, 3)) * batch + draw(st.integers(-1, 1)))
        n_val = draw(st.integers(1, 8))
        features = np.where(rng.random((n + n_val, width)) < 0.25, 1.0, 0.0)
        if draw(st.booleans()):
            features *= rng.normal(0, 2, features.shape)  # values other than 1
        features[:, -SOLVENT_DIM:] = rng.normal(0.5, 0.3, (n + n_val, SOLVENT_DIM))
        # training rows leave some leading columns to the validation rows
        features[:n, np.flatnonzero(rng.random(lead) < 0.3)] = 0.0
        if head is Head.SIGMOID:
            labels = (rng.random(n + n_val) < 0.5).astype(float)
        else:
            labels = rng.normal(rng.normal(0, 100), rng.uniform(0.1, 50), n + n_val)
        jobs.append((features[:n], labels[:n], features[n:], labels[n:]))
    return jobs, head, config


def assert_results_equal(got, want):
    """Models, losses and best epoch, byte for byte."""
    assert got.best_epoch == want.best_epoch
    for key in ("train_losses", "val_losses"):
        a, b = np.array(getattr(got, key)), np.array(getattr(want, key))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), key
    for key in ("w1", "b1", "w2", "norm_mean", "norm_std"):
        a, b = getattr(got.model, key), getattr(want.model, key)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), key
    assert np.float64(got.model.b2).tobytes() == np.float64(want.model.b2).tobytes()
    assert (got.model.head, got.model.seed) == (want.model.head, want.model.seed)
    assert got.model.w1.flags.c_contiguous


def diverged_job(message: str, errors) -> int:
    """The job k that a train_nets divergence error names, checked against
    ``errors``, each job's one-net referee error or None: job k's referee
    must diverge at the epoch the message names."""
    match = re.fullmatch(r"job (\d+): (loss diverged at epoch \d+; .*)", message)
    assert match, message
    named = int(match[1])
    assert errors[named] == match[2], (message, errors)
    return named


class TestStackedTraining:
    @settings(max_examples=80, deadline=None)
    @given(stacked_problems(), st.sampled_from([None, 1, 3000]))
    def test_equals_one_net_referees(self, problem, stack_bytes):
        """train_nets on G jobs gives what G separate runs of the per-net
        referee give, under any grouping of the jobs."""
        jobs, head, config = problem
        wants, errors = [], []
        with np.errstate(all="ignore"):
            for features, labels, val_features, val_labels in jobs:
                try:
                    wants.append(
                        mlp_train_one_net(features, labels, head, config, val_features, val_labels)
                    )
                    errors.append(None)
                except ScorerError as exc:
                    errors.append(str(exc))
            bound = scorers.STACK_BYTES if stack_bytes is None else stack_bytes
            with mock.patch.object(scorers, "STACK_BYTES", bound):
                if any(errors):
                    with pytest.raises(ScorerError) as caught:
                        train_nets([TrainJob.of(*job) for job in jobs], head, config)
                    named = diverged_job(str(caught.value), errors)
                    if stack_bytes == 1:
                        # one job a group: the first to diverge, in job order
                        assert named == min(k for k, error in enumerate(errors) if error)
                    return
                got = train_nets([TrainJob.of(*job) for job in jobs], head, config)
        assert len(got) == len(jobs)
        for result, want in zip(got, wants):
            assert_results_equal(result, want)

    def test_nets_that_part_ways_equal_referees(self):
        """Fold sizes 15, 16 and 17 at batch 8 take 2, 2 and 3 steps an
        epoch, and with patience 1 the nets stop at different epochs."""
        rng = np.random.default_rng(11)
        config = TrainConfig(epochs=30, hidden_dim=5, batch_size=8, patience=1, seed=3)
        jobs = []
        for n in (15, 16, 17):
            features = random_batch(n + 6, 20, int(rng.integers(1000)))
            labels = rng.normal(0, 1, n + 6)
            jobs.append((features[:n], labels[:n], features[n:], labels[n:]))
        got = train_nets([TrainJob.of(*job) for job in jobs], Head.LINEAR, config)
        wants = [mlp_train_one_net(f, y, Head.LINEAR, config, vf, vy) for f, y, vf, vy in jobs]
        assert len({len(want.val_losses) for want in wants}) > 1
        assert max(len(want.val_losses) for want in wants) < config.epochs
        for result, want in zip(got, wants):
            assert_results_equal(result, want)

    def test_divergence_names_the_first_job_that_diverged(self):
        """The jobs diverge at different epochs, job 0 last. Trained as one
        group, the run stops at the first epoch in which a job diverges and
        names that job; with every job in its own group it names the first
        job in job order, as training the jobs one after another would.
        Either way the named job, trained alone, diverges at the named
        epoch."""
        rng = np.random.default_rng(6)
        config = TrainConfig(hidden_dim=8, epochs=20, learning_rate=1.0, seed=6)
        features = rng.normal(0, 1, (20, 8))
        jobs = []
        for scale in (1.0, 40.0, 3.0):
            scaled = features.copy()
            scaled[:, :4] *= scale
            jobs.append((scaled, rng.normal(0, 1, 20)))
        messages = []
        with np.errstate(all="ignore"):
            for job in jobs:
                with pytest.raises(ScorerError, match="diverged") as caught:
                    mlp_train_one_net(*job, Head.LINEAR, config)
                messages.append(str(caught.value))
            epochs = [int(message.split()[4].rstrip(";")) for message in messages]
            assert epochs[0] > max(epochs[1:]) and len(set(epochs)) == 3, epochs
            for stack_bytes in (scorers.STACK_BYTES, 1):
                with mock.patch.object(scorers, "STACK_BYTES", stack_bytes):
                    for first in range(len(jobs)):
                        with pytest.raises(ScorerError) as caught:
                            train_nets(
                                [TrainJob.of(*job) for job in jobs[first:]], Head.LINEAR, config
                            )
                        named = diverged_job(str(caught.value), messages[first:])
                        rest = epochs[first:]
                        assert named == (0 if stack_bytes == 1 else rest.index(min(rest)))

    @pytest.mark.parametrize(
        "val_features, val_labels, message",
        [
            (np.ones((10, 8)), None, "10 validation rows but no validation labels"),
            (np.ones((10, 8)), np.zeros(1), "10 validation rows but 1 validation labels"),
            (np.ones((10, 8)), np.zeros(11), "10 validation rows but 11 validation labels"),
            (None, np.zeros(3), "3 validation labels but no validation rows"),
            (np.ones((0, 8)), np.zeros(0), "empty validation set"),
            (np.ones((4, 9)), np.zeros(4), "expected 8-wide validation rows, got 9"),
        ],
    )
    def test_validation_set_checked(self, val_features, val_labels, message):
        features, labels = random_batch(12, 8, 1), np.zeros(12)
        config = TrainConfig(hidden_dim=3, epochs=2)
        with pytest.raises(ScorerError, match=message):
            mlp_train(features, labels, Head.LINEAR, config, val_features, val_labels)
        with pytest.raises(ScorerError, match=message):
            TrainJob.of(features, labels, val_features, val_labels)


class TestPinnedTrainOutputs:
    """fluorgen train on the benchmark's seed-1 CSV: the three cv_*.txt
    files and the three checkpoints, held to digests taken before the
    folds of a task trained side by side, and rejected_rows.txt, held to
    one taken before ingest read each distinct SMILES once. A change that
    moves them on purpose updates the digests and says so in CHANGES.md."""

    DIGESTS = {
        "bench": {
            "rejected_rows.txt":
                "650728458651a5de811b7e498e3739f4997c7cf714715dd386a1d812a57e208e",
            "cv_plqy_class.txt": "de790dc962c0892ecb08da726a6ea5169492a1ff1271d625550d52d67044260a",
            "cv_abs_reg.txt": "b888b2b316170bcb4445744e1dac9cbd77a2248e7cfc88be61642d734b63df03",
            "cv_em_reg.txt": "2d3ef0ce8c0835b9e99b5eea91617369fb27e30410215458fccf3bedf8b7c2bf",
            "checkpoints/plqy_class.npz":
                "ee9da103053296d25910235571e56c7c88596909205654cb92f60a2f08440117",
            "checkpoints/abs_reg.npz":
                "33e2a61e2d0c0903c329b4e05c17bcb958986e17e27117eb367adacb5b8429bd",
            "checkpoints/em_reg.npz":
                "e48fad8deeb0d6ca77c3a8fb737e244d7a02c3ebd97d7529958b5bc44ed4e6d7",
        },
        "four_folds": {
            "rejected_rows.txt":
                "650728458651a5de811b7e498e3739f4997c7cf714715dd386a1d812a57e208e",
            "cv_plqy_class.txt": "b5ed7291c35ec36a37f705c5a12e4be96d27a8d45a14ccfae8fd03cf4f81a162",
            "cv_abs_reg.txt": "d0d67a41c15919a9dbf1a7b7d52b74bff6030f6b6a346897eed9a9c825195df3",
            "cv_em_reg.txt": "92c17bb71fc80b36aa31e9645cbabe029de9b80ccce52a91b172d534bf6c69bb",
            "checkpoints/plqy_class.npz":
                "636e9dace245cec3c44e8e2fe62e352f9ea4ef7210b765bdfe8c47bf2e095c7c",
            "checkpoints/abs_reg.npz":
                "ae96167040def715beef07d8c3bd905859222a861f9ed4e4e2d2abab17098183",
            "checkpoints/em_reg.npz":
                "ba23da8c1028ff52154dc9ccbbf71197c09b486d0ac868fcd26ace112f6b006f",
        },
    }

    @staticmethod
    def benchmark_train_config() -> dict:
        """perfbench/run.py's TRAIN_CONFIG, read without importing the
        benchmark (which sets process-wide environment variables)."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and node.targets[0].id == "TRAIN_CONFIG":
                return ast.literal_eval(node.value)
        raise AssertionError("perfbench/run.py has no TRAIN_CONFIG")

    @pytest.mark.parametrize("name", ["bench", "four_folds"])
    def test_output_digests(self, name, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        monkeypatch.delenv("FLUORGEN_OUTPUT_DIR", raising=False)
        import inputs

        inputs.build_train(1, str(tmp_path))
        train = self.benchmark_train_config()
        assert train == {
            "folds": 3, "epochs": 20, "hidden_dim": 64, "patience": 20, "batch_size": 32,
        }
        if name == "four_folds":
            train = dict(train, folds=4, patience=2)
        out = tmp_path / "out"
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[paths]\ndataset = {tmp_path / 'chemfluor.csv'}\n"
            f"checkpoint_dir = {out / 'checkpoints'}\noutput_dir = {out}\n[train]\n"
            + "".join(f"{key} = {value}\n" for key, value in train.items())
        )
        assert cli.main(["--config", str(ini), "train"]) == 0
        digests = {
            relative: hashlib.sha256((out / relative).read_bytes()).hexdigest()
            for relative in self.DIGESTS[name]
        }
        assert digests == self.DIGESTS[name]
