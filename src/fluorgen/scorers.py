"""Property predictors: one-hidden-layer MLPs plus rule-based scores.

All networks share one shape: 2,052 inputs (fingerprint bits then four
solvent descriptors), a ReLU hidden layer, and a single output that is
either a sigmoid probability trained with binary cross-entropy or a
linear value trained with squared error. Gradients are written out by
hand; the finite-difference check in the tests is the referee for them.

Only the four solvent columns are normalized (bit columns are already
0/1), with statistics taken from the training fold and stored on the
model so scoring never depends on outside state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from fluorgen.fingerprints import SOLVENT_DIM, Fingerprint, build_feature_vector
from fluorgen.molgraph import MolecularGraph, sp2_network_size

_CHECKPOINT_VERSION = 1


class ScorerError(ValueError):
    pass


class Head(enum.Enum):
    SIGMOID = "sigmoid"
    LINEAR = "linear"


@dataclass
class MlpModel:
    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float
    head: Head
    norm_mean: np.ndarray  # (4,) solvent column means
    norm_std: np.ndarray  # (4,) solvent column stdevs, zeros replaced by 1
    seed: int = 0

    def __post_init__(self):
        if self.w1.shape[0] != self.b1.shape[0] or self.w1.shape[0] != self.w2.shape[0]:
            raise ScorerError("inconsistent layer dimensions")
        if self.norm_mean.shape != (SOLVENT_DIM,) or self.norm_std.shape != (SOLVENT_DIM,):
            raise ScorerError("normalization parameters must cover the solvent columns")
        for arr in (self.w1, self.b1, self.w2, self.norm_mean, self.norm_std):
            if not np.all(np.isfinite(arr)):
                raise ScorerError("non-finite model parameter")
        if not np.isfinite(self.b2):
            raise ScorerError("non-finite model parameter")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    learning_rate: float = 0.05
    batch_size: int = 32
    hidden_dim: int = 300
    patience: int = 10
    momentum: float = 0.9
    weight_init_scale: float = 0.01
    seed: int = 0

    def __post_init__(self):
        positive = {
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "weight_init_scale": self.weight_init_scale,
            "patience": self.patience,
            "hidden_dim": self.hidden_dim,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ScorerError(f"{name} must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ScorerError("momentum must be in [0,1)")


def _normalize(model: MlpModel, features: np.ndarray) -> np.ndarray:
    out = np.array(features, dtype=np.float64, copy=True)
    out[..., -SOLVENT_DIM:] = (out[..., -SOLVENT_DIM:] - model.norm_mean) / model.norm_std
    return out


def forward_batch(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Predictions for a (n, input_dim) feature matrix."""
    if features.ndim != 2 or features.shape[1] != model.input_dim:
        raise ScorerError(
            f"expected (n, {model.input_dim}) features, got {features.shape}"
        )
    x = _normalize(model, features)
    hidden = np.maximum(x @ model.w1.T + model.b1, 0.0)
    logits = hidden @ model.w2 + model.b2
    if model.head is Head.SIGMOID:
        return 1.0 / (1.0 + np.exp(-logits))
    return logits


def loss_and_grads(model: MlpModel, features: np.ndarray, labels: np.ndarray):
    """Batch loss plus gradients for every parameter.

    SIGMOID uses mean binary cross-entropy computed from the logit
    (softplus form, no probability clipping needed); LINEAR uses mean
    squared error. Returns (loss, dict with keys w1, b1, w2, b2).
    """
    x = _normalize(model, features)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    z1 = x @ model.w1.T + model.b1
    hidden = np.maximum(z1, 0.0)
    z2 = hidden @ model.w2 + model.b2
    if model.head is Head.SIGMOID:
        loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
        dz2 = (1.0 / (1.0 + np.exp(-z2)) - y) / n
    else:
        diff = z2 - y
        loss = float(np.mean(diff * diff))
        dz2 = 2.0 * diff / n
    grad_w2 = hidden.T @ dz2
    grad_b2 = float(np.sum(dz2))
    d_hidden = np.outer(dz2, model.w2)
    dz1 = d_hidden * (z1 > 0.0)
    grad_w1 = dz1.T @ x
    grad_b1 = dz1.sum(axis=0)
    return loss, {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    best_epoch: int


def mlp_train(
    features: np.ndarray,
    labels: np.ndarray,
    head: Head,
    config: TrainConfig,
    val_features: np.ndarray | None = None,
    val_labels: np.ndarray | None = None,
) -> TrainResult:
    """Mini-batch SGD with momentum, keeping the best-validation weights.

    When no validation set is given the training set doubles as one.
    Deterministic under config.seed: same inputs give bit-identical
    weights. A non-finite loss aborts with a diverging-rate diagnostic.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if len(features) == 0:
        raise ScorerError("empty training set")
    if len(features) != len(labels):
        raise ScorerError("features and labels differ in length")
    if val_features is None:
        val_features, val_labels = features, labels
    val_labels = np.asarray(val_labels, dtype=np.float64)

    # Regression targets train standardized so one learning rate serves
    # both heads; the transform is folded back into w2/b2 at the end.
    target_mean, target_std = 0.0, 1.0
    if head is Head.LINEAR:
        target_mean = float(labels.mean())
        spread = float(labels.std())
        target_std = spread if spread > 0.0 else 1.0
        labels = (labels - target_mean) / target_std
        val_labels = (val_labels - target_mean) / target_std

    rng = np.random.default_rng(config.seed)
    input_dim = features.shape[1]
    solvent_cols = features[:, -SOLVENT_DIM:]
    std = solvent_cols.std(axis=0)
    model = MlpModel(
        w1=rng.normal(0.0, config.weight_init_scale, (config.hidden_dim, input_dim)),
        b1=np.zeros(config.hidden_dim),
        w2=rng.normal(0.0, config.weight_init_scale, config.hidden_dim),
        b2=0.0,
        head=head,
        norm_mean=solvent_cols.mean(axis=0),
        norm_std=np.where(std > 0.0, std, 1.0),
        seed=config.seed,
    )
    velocity = {
        "w1": np.zeros_like(model.w1),
        "b1": np.zeros_like(model.b1),
        "w2": np.zeros_like(model.w2),
        "b2": 0.0,
    }

    def snapshot():
        return (model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2)

    best = snapshot()
    best_loss = float("inf")
    best_epoch = 0
    stale = 0
    train_losses = []
    val_losses = []
    n = len(features)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = loss_and_grads(model, features[batch], labels[batch])
            if not np.isfinite(loss):
                raise ScorerError(
                    f"loss diverged at epoch {epoch}; lower the learning rate"
                )
            epoch_loss += loss * len(batch)
            for key in velocity:
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * grads[key]
            model.w1 += velocity["w1"]
            model.b1 += velocity["b1"]
            model.w2 += velocity["w2"]
            model.b2 += velocity["b2"]
        # reported losses are in the caller's target units
        train_losses.append(epoch_loss / n * target_std**2)
        val_loss, _ = loss_and_grads(model, val_features, val_labels)
        if not np.isfinite(val_loss):
            raise ScorerError(f"loss diverged at epoch {epoch}; lower the learning rate")
        val_losses.append(val_loss * target_std**2)
        if val_loss < best_loss:
            best_loss = val_loss
            best = snapshot()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    model.w1, model.b1, model.w2, model.b2 = best
    if head is Head.LINEAR:
        model.w2 = model.w2 * target_std
        model.b2 = model.b2 * target_std + target_mean
    return TrainResult(
        model=model,
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        best_epoch=best_epoch,
    )


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Mann-Whitney form: tied scores contribute one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ScorerError("scores and labels differ in length")
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ScorerError("roc_auc needs both classes present")
    ranks = rankdata(scores)
    rank_sum = ranks[positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def mae(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ScorerError("predictions and targets differ in length")
    if len(predictions) == 0:
        raise ScorerError("mae of empty input")
    return float(np.mean(np.abs(predictions - targets)))


class ScorerKind(enum.Enum):
    PLQY_PROB = "plqy_prob"
    ABS_NM = "abs_nm"
    EM_NM = "em_nm"
    SP2_SIZE = "sp2_size"


@dataclass(frozen=True)
class PropertyScorer:
    kind: ScorerKind
    model: MlpModel | None = None

    def __post_init__(self):
        if self.kind is not ScorerKind.SP2_SIZE and self.model is None:
            raise ScorerError(f"{self.kind.value} scorer needs a trained model")


def score_property(
    scorer: PropertyScorer, graph: MolecularGraph, fingerprint: Fingerprint, solvent
) -> float:
    """Score one molecule, given with its Morgan fingerprint, in one solvent.

    PLQY_PROB is a probability from the sigmoid head, ABS_NM and EM_NM
    are regression outputs in nm, both read from the fingerprint.
    SP2_SIZE is the largest sp2 network size of the graph and ignores the
    fingerprint and the solvent.
    """
    if scorer.kind is ScorerKind.SP2_SIZE:
        return float(sp2_network_size(graph))
    fv = build_feature_vector(fingerprint, solvent)
    return float(forward_batch(scorer.model, fv[np.newaxis, :])[0])


def save_model(model: MlpModel, path: str):
    np.savez(
        path,
        version=np.int64(_CHECKPOINT_VERSION),
        head=np.str_(model.head.value),
        w1=model.w1,
        b1=model.b1,
        w2=model.w2,
        b2=np.float64(model.b2),
        norm_mean=model.norm_mean,
        norm_std=model.norm_std,
        seed=np.int64(model.seed),
    )


def load_model(path: str) -> MlpModel:
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:
        raise ScorerError(f"cannot read checkpoint {path}: {exc}") from None
    if "version" not in data or int(data["version"]) != _CHECKPOINT_VERSION:
        raise ScorerError(f"{path}: unsupported checkpoint version")
    return MlpModel(
        w1=data["w1"],
        b1=data["b1"],
        w2=data["w2"],
        b2=float(data["b2"]),
        head=Head(str(data["head"])),
        norm_mean=data["norm_mean"],
        norm_std=data["norm_std"],
        seed=int(data["seed"]),
    )


@dataclass(frozen=True)
class CvReport:
    task_name: str
    metric_name: str
    fold_metrics: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_metrics))

    @property
    def stdev(self) -> float:
        # sample stdev across folds, matching the usual reporting convention
        return float(np.std(self.fold_metrics, ddof=1))

    def summary(self) -> str:
        return f"{self.metric_name} = {self.mean:.3f} ± {self.stdev:.3f}"

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"task\t{self.task_name}\n")
            handle.write(f"fold\t{self.metric_name}\n")
            for fold_id, value in enumerate(self.fold_metrics):
                handle.write(f"{fold_id}\t{value:.6g}\n")
            handle.write(f"summary\t{self.summary()}\n")


def run_cv(dataset, config: TrainConfig, folds: int = 10, split_seed: int = 0,
           collect_models: bool = False):
    """Train on every fold of a TaskDataset; AUC for the classification
    task, MAE for the regression tasks, reported per fold. With
    collect_models, also return the per-fold models in fold order."""
    from fluorgen.dataset import Task, split_cv

    head = Head.SIGMOID if dataset.task is Task.PLQY_CLASS else Head.LINEAR
    metric_name = "roc_auc" if head is Head.SIGMOID else "mae"
    metrics = []
    models = []
    for split in split_cv(len(dataset), folds=folds, seed=split_seed):
        train_idx = np.array(split.train)
        val_idx = np.array(split.val)
        test_idx = np.array(split.test)
        result = mlp_train(
            dataset.features[train_idx],
            dataset.labels[train_idx],
            head,
            config,
            val_features=dataset.features[val_idx],
            val_labels=dataset.labels[val_idx],
        )
        predictions = forward_batch(result.model, dataset.features[test_idx])
        truth = dataset.labels[test_idx]
        if head is Head.SIGMOID:
            metrics.append(roc_auc(predictions, truth))
        else:
            metrics.append(mae(predictions, truth))
        models.append(result.model)
    report = CvReport(
        task_name=dataset.task.value,
        metric_name=metric_name,
        fold_metrics=tuple(metrics),
    )
    if collect_models:
        return report, tuple(models)
    return report
