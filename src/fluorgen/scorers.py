"""Property predictors: one-hidden-layer MLPs plus rule-based scores.

All networks share one shape: 2,052 inputs (fingerprint bits then four
solvent descriptors), a ReLU hidden layer, and a single output that is
either a sigmoid probability trained with binary cross-entropy or a
linear value trained with squared error. Gradients are written out by
hand; the finite-difference check in the tests is the referee for them.

Only the four solvent columns are normalized (bit columns are already
0/1), with statistics taken from the training fold and stored on the
model so scoring never depends on outside state.

Training reads rows sparsely. A fingerprint row holds about 35 on-bits
out of 2,048, so training rows are SparseRows: the on-bit columns in CSR
form plus the four solvent values, made from packed words by
SparseRows.from_words. loss_and_grads computes the first layer over only
the columns a mini-batch touches, against a transposed (input, hidden)
working copy of w1, and returns the w1 gradient for those columns alone;
full-set losses are one CSR product. Checkpoints keep w1 as (hidden,
input). The dense form of the kernel is the test referee
(tests/oracles.py).

Scoring reads rows sparsely too. Every batch of fingerprints is scored by
one loop, score_rows, on packed rows against a ScoreStack, the bit
columns of several models' w1 side by side: each block of
SCORE_BLOCK_ROWS rows, made SparseRows by from_words, is one CSR product
that gives every model's first-layer sums at once, summed over the
on-bits in ascending order. Filtering, stats, rewards and the rollout's
value estimates all go through it; the first three score one stack,
property_stack: the PLQY, absorption and emission models, in that order.
forward_batch, the dense form, scores cross-validation test folds and is
the referee behind score_property, the one-molecule form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csr_array
from scipy.stats import rankdata

from fluorgen.fingerprints import (
    FEATURE_DIM,
    FP_BITS,
    SOLVENT_DIM,
    Fingerprint,
    build_feature_vector,
    feature_rows,
    on_bits,
)
from fluorgen.molgraph import MolecularGraph, sp2_network_size

_CHECKPOINT_VERSION = 1
_CHECKPOINT_ARRAYS = ("head", "w1", "b1", "w2", "b2", "norm_mean", "norm_std", "seed")

# Rows are scored at most this many per CSR product, which bounds the
# per-block temporaries (an (n, FP_BITS) uint8 decode and an (n, total
# hidden) float block) however long the list: 11,590 molecules, the
# paper's filter input, would decode 24 MB in one block. At perfbench's
# sizes the choice does not show: one block per call left the peak memory
# of generate at 116.4-116.6 MB and of filter at 140.8-140.9 MB, against
# 116.5-116.8 and 141.1 MB with 64-row blocks.
SCORE_BLOCK_ROWS = 64


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


@dataclass(frozen=True)
class SparseRows:
    """Feature rows for training, the leading block in CSR form.

    Row i's nonzero leading columns (the fingerprint bits) are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, with values
    ``data`` at the same positions; its last SOLVENT_DIM columns are
    ``solvent[i]``, not normalized. ``width`` is the full row length.
    """

    indptr: np.ndarray  # (n + 1,) int32
    indices: np.ndarray  # (nnz,) int32
    data: np.ndarray  # (nnz,) float64
    solvent: np.ndarray  # (n, SOLVENT_DIM) float64
    width: int

    @classmethod
    def from_dense(cls, features) -> SparseRows:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] < SOLVENT_DIM:
            raise ScorerError(f"expected (n, >= {SOLVENT_DIM}) features, got {features.shape}")
        lead = features[:, :-SOLVENT_DIM]
        rows, columns = np.nonzero(lead)
        indptr = np.zeros(len(features) + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=len(features)), out=indptr[1:])
        return cls(
            indptr=indptr,
            indices=columns.astype(np.int32),
            data=lead[rows, columns],
            solvent=features[:, -SOLVENT_DIM:].copy(),
            width=features.shape[1],
        )

    @classmethod
    def from_words(cls, words: np.ndarray, solvent_values) -> SparseRows:
        """The rows feature_rows(words, solvent_values) lays out densely."""
        indptr = np.zeros(len(words) + 1, dtype=np.int32)
        np.cumsum(np.bitwise_count(words).sum(axis=1), out=indptr[1:])
        indices = on_bits(words).astype(np.int32)
        solvent = np.empty((len(words), SOLVENT_DIM))
        solvent[:] = solvent_values
        return cls(indptr, indices, np.ones(len(indices)), solvent, FEATURE_DIM)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows) -> SparseRows:
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        positions = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return SparseRows(
            indptr, self.indices[positions], self.data[positions], self.solvent[rows], self.width
        )

    def slice(self, start: int, stop: int) -> SparseRows:
        """Rows start..stop-1, sharing this object's arrays."""
        stop = min(stop, len(self))
        low, high = self.indptr[start], self.indptr[stop]
        return SparseRows(
            self.indptr[start : stop + 1] - low,
            self.indices[low:high],
            self.data[low:high],
            self.solvent[start:stop],
            self.width,
        )


def as_sparse_rows(features) -> SparseRows:
    """SparseRows as given, or built from a dense (n, width) matrix."""
    return features if isinstance(features, SparseRows) else SparseRows.from_dense(features)


def loss_and_grads(model: MlpModel, rows: SparseRows, labels, grads: bool = True):
    """Batch loss plus gradients for every parameter.

    SIGMOID uses mean binary cross-entropy computed from the logit
    (softplus form, no probability clipping needed); LINEAR uses mean
    squared error. The first layer reads ``model.w1.T`` only at the
    rows' nonzero leading columns, as a CSR product; in training
    ``model.w1`` is the transposed view of an (input, hidden) working
    copy, so those reads are contiguous rows.

    Returns (loss, dict with keys w1, b1, w2, b2). The w1 entry is a
    (columns, rows) pair: the input columns the batch touches (its
    nonzero leading columns, then the solvent columns) and the gradient
    of ``w1.T`` at them, shape (len(columns), hidden); every other
    column's gradient is zero. With ``grads=False`` only the loss is
    computed, over the uncompacted CSR block, and the dict is None.
    """
    if rows.width != model.input_dim:
        raise ScorerError(f"expected {model.input_dim}-wide rows, got {rows.width}")
    y = np.asarray(labels, dtype=np.float64)
    n = len(rows)
    w1t = model.w1.T
    n_lead = rows.width - SOLVENT_DIM
    if grads:
        # compact to the touched columns; a mask over the leading block
        # finds them faster than sorting the indices
        touched = np.zeros(n_lead, dtype=bool)
        touched[rows.indices] = True
        columns = np.flatnonzero(touched)
        indices = (np.cumsum(touched, dtype=np.int32) - 1)[rows.indices]
        weights = w1t[columns]
    else:
        indices, weights = rows.indices, w1t[:n_lead]
    lead = csr_array((rows.data, indices, rows.indptr), shape=(n, len(weights)))
    solvent = (rows.solvent - model.norm_mean) / model.norm_std
    z1 = lead @ weights + solvent @ w1t[n_lead:] + model.b1
    hidden = np.maximum(z1, 0.0)
    z2 = hidden @ model.w2 + model.b2
    if model.head is Head.SIGMOID:
        loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
        dz2 = (1.0 / (1.0 + np.exp(-z2)) - y) / n
    else:
        diff = z2 - y
        loss = float(np.mean(diff * diff))
        dz2 = 2.0 * diff / n
    if not grads:
        return loss, None
    grad_w2 = hidden.T @ dz2
    grad_b2 = float(np.sum(dz2))
    d_hidden = np.outer(dz2, model.w2)
    dz1 = d_hidden * (z1 > 0.0)
    # the same three arrays, read as CSC, are the transposed block
    lead_t = csc_array((rows.data, indices, rows.indptr), shape=(len(columns), n))
    grad_w1 = (
        np.concatenate([columns, np.arange(n_lead, rows.width)]),
        np.concatenate([lead_t @ dz1, solvent.T @ dz1]),
    )
    grad_b1 = dz1.sum(axis=0)
    return loss, {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    best_epoch: int


def mlp_train(
    features,
    labels: np.ndarray,
    head: Head,
    config: TrainConfig,
    val_features=None,
    val_labels: np.ndarray | None = None,
) -> TrainResult:
    """Mini-batch SGD with momentum, keeping the best-validation weights.

    Features are SparseRows or dense matrices. When no validation set is
    given the training set doubles as one. Deterministic under
    config.seed: same inputs give bit-identical weights. A non-finite
    loss aborts with a diverging-rate diagnostic.

    Training updates an (input, hidden) copy of w1 in place: each
    mini-batch writes its gradient only to the columns it touches, and
    the momentum step ``v *= m; v[cols] -= lr * g; w1 += v`` makes the
    same float operations per element as ``v = m * v - lr * g``. Velocity
    is kept only for the live columns, those some training row touches
    plus the solvent columns: every other column's velocity stays zero
    and would move nothing.
    """
    rows = as_sparse_rows(features)
    labels = np.asarray(labels, dtype=np.float64)
    if len(rows) == 0:
        raise ScorerError("empty training set")
    if len(rows) != len(labels):
        raise ScorerError("features and labels differ in length")
    if val_features is None:
        val_rows, val_labels = rows, labels
    else:
        val_rows = as_sparse_rows(val_features)
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
    std = rows.solvent.std(axis=0)
    w1t = rng.normal(0.0, config.weight_init_scale, (config.hidden_dim, rows.width)).T.copy()
    model = MlpModel(
        w1=w1t.T,
        b1=np.zeros(config.hidden_dim),
        w2=rng.normal(0.0, config.weight_init_scale, config.hidden_dim),
        b2=0.0,
        head=head,
        norm_mean=rows.solvent.mean(axis=0),
        norm_std=np.where(std > 0.0, std, 1.0),
        seed=config.seed,
    )
    solvent_columns = np.arange(rows.width - SOLVENT_DIM, rows.width)
    live = np.concatenate([np.unique(rows.indices), solvent_columns])
    live_slot = np.zeros(rows.width, dtype=np.intp)
    live_slot[live] = np.arange(len(live))
    velocity_w1 = np.zeros((len(live), config.hidden_dim))
    velocity = {"b1": np.zeros_like(model.b1), "w2": np.zeros_like(model.w2), "b2": 0.0}

    def snapshot():
        return (w1t.copy(), model.b1.copy(), model.w2.copy(), model.b2)

    best = snapshot()
    best_loss = float("inf")
    best_epoch = 0
    stale = 0
    train_losses = []
    val_losses = []
    n = len(rows)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_rows, epoch_labels = rows.take(order), labels[order]
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            batch_labels = epoch_labels[start:stop]
            loss, grads = loss_and_grads(model, epoch_rows.slice(start, stop), batch_labels)
            if not np.isfinite(loss):
                raise ScorerError(
                    f"loss diverged at epoch {epoch}; lower the learning rate"
                )
            epoch_loss += loss * len(batch_labels)
            columns, grad_rows = grads["w1"]
            velocity_w1 *= config.momentum
            velocity_w1[live_slot[columns]] -= config.learning_rate * grad_rows
            w1t[live] += velocity_w1
            for key in velocity:
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * grads[key]
            model.b1 += velocity["b1"]
            model.w2 += velocity["w2"]
            model.b2 += velocity["b2"]
        # reported losses are in the caller's target units
        train_losses.append(epoch_loss / n * target_std**2)
        val_loss, _ = loss_and_grads(model, val_rows, val_labels, grads=False)
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
    best_w1t, model.b1, model.w2, model.b2 = best
    model.w1 = np.ascontiguousarray(best_w1t.T)
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


class ScoreStack:
    """Models stacked for score_rows, a copy of their weights taken when
    built: the bit columns of every w1 side by side as one C-contiguous
    (FP_BITS, total hidden) array, so one CSR product makes every model's
    first-layer sums (scipy copies a weight array that is not C-ordered on
    every product), and the solvent columns, normalization, b1 and w2 laid
    out the same way. A caller builds one per set of models and builds it
    again when their weights change.
    """

    def __init__(self, models):
        models = list(models)
        for model in models:
            if model.input_dim != FEATURE_DIM:
                raise ScorerError(f"expected {FEATURE_DIM}-wide models, got {model.input_dim}")
        self.count = len(models)
        widths = [m.hidden_dim for m in models]
        # filled in place, with no full-size temporary to copy in C order
        self.bit_weights = np.concatenate(
            [m.w1[:, :FP_BITS].T for m in models], axis=1, out=np.empty((FP_BITS, sum(widths)))
        )
        # (SOLVENT_DIM, total hidden): each hidden unit's solvent weights
        # and its model's normalization
        self.solvent_weights = np.vstack([m.w1[:, FP_BITS:] for m in models]).T
        self.norm_mean = np.repeat([m.norm_mean for m in models], widths, axis=0).T
        self.norm_std = np.repeat([m.norm_std for m in models], widths, axis=0).T
        self.b1 = np.concatenate([m.b1 for m in models])
        self.w2 = np.concatenate([m.w2 for m in models])
        self.b2 = np.array([m.b2 for m in models])
        self.bounds = np.cumsum([0] + widths).tolist()
        self.sigmoid = np.array([m.head is Head.SIGMOID for m in models])


# the three learned property models, in the order every caller stacks them
PROPERTY_MODELS = (ScorerKind.PLQY_PROB, ScorerKind.ABS_NM, ScorerKind.EM_NM)


def property_stack(scorers) -> ScoreStack:
    """The PROPERTY_MODELS of a scorer mapping as one ScoreStack: the stack
    that reward, the baseline, the filter stages and stats all score with."""
    return ScoreStack([scorers[kind].model for kind in PROPERTY_MODELS])


def score_rows(stack: ScoreStack, words: np.ndarray, solvent) -> np.ndarray:
    """(len(words), stack.count) outputs for an (n, FP_WORDS) array of
    packed fingerprint rows in one solvent, one column per stacked model.

    Each block of SCORE_BLOCK_ROWS rows is one CSR product of its on-bit
    columns against stack.bit_weights, which sums each row's weight
    columns in ascending bit order. The normalized solvent term (its four
    products summed in descriptor order) and b1 are added after, and each
    model's ReLU outputs times w2 are summed along the row, so a row's
    outputs do not depend on the rows scored with it.
    """
    solvent_values = np.reshape(solvent.as_tuple(), (SOLVENT_DIM, 1))
    normalized = (solvent_values - stack.norm_mean) / stack.norm_std
    solvent_term = (normalized * stack.solvent_weights).sum(axis=0)
    out = np.empty((len(words), stack.count))
    for start in range(0, len(words), SCORE_BLOCK_ROWS):
        block = SparseRows.from_words(words[start : start + SCORE_BLOCK_ROWS], solvent.as_tuple())
        lead = csr_array((block.data, block.indices, block.indptr), shape=(len(block), FP_BITS))
        hidden = lead @ stack.bit_weights
        hidden += solvent_term
        hidden += stack.b1
        np.maximum(hidden, 0.0, out=hidden)
        hidden *= stack.w2
        for k, (low, high) in enumerate(zip(stack.bounds, stack.bounds[1:])):
            out[start : start + len(block), k] = hidden[:, low:high].sum(axis=1)
    out += stack.b2
    out[:, stack.sigmoid] = 1.0 / (1.0 + np.exp(-out[:, stack.sigmoid]))
    return out


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
    missing = [key for key in _CHECKPOINT_ARRAYS if key not in data]
    if missing:
        raise ScorerError(f"{path}: checkpoint lacks {', '.join(missing)}")
    head = str(data["head"])
    if head not in {h.value for h in Head}:
        raise ScorerError(f"{path}: unknown head {head!r}")
    return MlpModel(
        w1=data["w1"],
        b1=data["b1"],
        w2=data["w2"],
        b2=float(data["b2"]),
        head=Head(head),
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


def run_cv(dataset, config: TrainConfig, folds: int, split_seed: int):
    """Train on every fold of a TaskDataset; AUC for the classification
    task, MAE for the regression tasks, reported per fold. Returns the
    report and the per-fold models in fold order."""
    from fluorgen.dataset import Task, split_cv

    head = Head.SIGMOID if dataset.task is Task.PLQY_CLASS else Head.LINEAR
    metric_name = "roc_auc" if head is Head.SIGMOID else "mae"
    metrics = []
    models = []
    solvents = np.reshape([s.as_tuple() for s in dataset.solvents], (-1, SOLVENT_DIM))
    rows = SparseRows.from_words(dataset.words, solvents)
    for split in split_cv(len(dataset), folds=folds, seed=split_seed):
        train_idx = np.array(split.train)
        val_idx = np.array(split.val)
        test_idx = np.array(split.test)
        result = mlp_train(
            rows.take(train_idx),
            dataset.labels[train_idx],
            head,
            config,
            val_features=rows.take(val_idx),
            val_labels=dataset.labels[val_idx],
        )
        test_rows = feature_rows(dataset.words[test_idx], solvents[test_idx])
        predictions = forward_batch(result.model, test_rows)
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
    return report, tuple(models)
