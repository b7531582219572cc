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
SparseRows.from_words. Every net trains in one SGD loop, _NetStack.epoch,
that runs several independent nets in lockstep. One constructor,
_NetStack, sets up a fit: each net's live columns (those any of its rows
touch, plus the solvent columns) get their own slice of one stacked
(rows, hidden) working copy of w1, and each of the fit's row sets is
laid out once, every net's rows mapped to its slice and normalized by
its statistics, with their labels and each net's span of them. The
fits leave this layout to the stack: they hand it rows and labels, read
back each net's losses, and have it save a net's weights (save) and
write a net back into its model (store). In a step the first layer is
one CSR product and its gradient one CSC product over the rows the step
touches, while the small dense products stay per net with the shapes a
net alone would use. No net's bits depend on the nets trained with it.
train_nets trains the folds of a cross-validation task this way,
mlp_train is its one-job form, update_nets retrains the rollout's four
value nets, and loss_and_grads is the one-net pass. The per-net sparse
loops and the dense kernel are the test referees (tests/oracles.py).

Checkpoints keep w1 as (hidden, input). A loaded one is checked for
shapes, dtypes, finite values and positive stdevs, and the commands
check its head against TASK_HEADS and its width against FEATURE_DIM.

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

import copy
import enum
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csr_array
from scipy.stats import rankdata

from fluorgen.dataset import Task, split_cv
from fluorgen.fingerprints import (
    FEATURE_DIM,
    FP_BITS,
    SOLVENT_DIM,
    Fingerprint,
    build_feature_vector,
    feature_rows,
    on_bit_rows,
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

# Nets train side by side while their working copies (the live w1 rows,
# their velocity and the best epoch's copy) fit in this many bytes; more
# train in groups, one after another. Ten folds of a ChemFluor-size task
# (2,052 live columns, hidden 300) would take 148 MB; groups of three take
# 44 MB.
STACK_BYTES = 48 * 2**20

# A step writes its touched w1 rows in blocks of about this many bytes, so
# no temporary outgrows the cache. ``w[rows] -= lr * g`` over 2,300 touched
# rows at hidden 300 took 1.4 ms in 109-row blocks against 6.0 ms in one
# piece; at hidden 64 (500 rows, one block) the two were within 3%.
UPDATE_BLOCK_BYTES = 2**18


class ScorerError(ValueError):
    pass


class Head(enum.Enum):
    SIGMOID = "sigmoid"
    LINEAR = "linear"


# each task's head: the PLQY class is a probability, the wavelengths are
# regressions in nm; training and loading checkpoints both follow it
TASK_HEADS = {Task.PLQY_CLASS: Head.SIGMOID, Task.ABS_REG: Head.LINEAR, Task.EM_REG: Head.LINEAR}


@dataclass
class MlpModel:
    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float
    head: Head
    norm_mean: np.ndarray  # (4,) solvent column means
    norm_std: np.ndarray  # (4,) solvent column stdevs, positive: zeros replaced by 1
    seed: int = 0

    def __post_init__(self):
        arrays = (self.w1, self.b1, self.w2, self.norm_mean, self.norm_std)
        scalars = (self.b2, self.seed)
        if any(np.asarray(value).dtype.kind not in "iuf" for value in (*arrays, *scalars)):
            raise ScorerError("non-numeric model parameter")
        if any(np.ndim(value) != 0 for value in scalars):
            raise ScorerError("b2 and seed must be scalars")
        if self.w1.ndim != 2 or not self.b1.shape == self.w2.shape == (self.hidden_dim,):
            raise ScorerError(f"inconsistent w1, b1, w2 shapes {[a.shape for a in arrays[:3]]}")
        if self.norm_mean.shape != (SOLVENT_DIM,) or self.norm_std.shape != (SOLVENT_DIM,):
            raise ScorerError("normalization parameters must cover the solvent columns")
        if not all(np.all(np.isfinite(arr)) for arr in (*arrays, self.b2)):
            raise ScorerError("non-finite model parameter")
        if np.any(self.norm_std <= 0.0):
            raise ScorerError(f"norm_std must be positive, got {self.norm_std.tolist()}")
        self.b2, self.seed = float(self.b2), int(self.seed)

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


# A fit's overflow is its divergence check's to report, and a sigmoid
# whose exp overflows is 0, as it should be, so neither warns.
_QUIET = {"over": "ignore", "invalid": "ignore"}


@np.errstate(**_QUIET)
def _sigmoid(logits):
    return 1.0 / (1.0 + np.exp(-logits))


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
        return _sigmoid(logits)
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
        indptr, indices = on_bit_rows(words)
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


class _NetStack:
    """Copies of one-hidden-layer nets of one head and hidden size, trained
    side by side, and their rows and labels laid out once for run.

    ``w1t`` holds the first-layer weights of every net as rows of one
    (rows, hidden) array: net g's live columns (the bit columns any of
    its row sets touches, ascending, then its solvent columns) at rows
    ``bounds[g]:bounds[g + 1]``. ``live[g]`` are net g's live columns;
    ``b1``, ``w2`` and ``b2`` stack the rest, one row or entry per net.
    Net g reads its solvent columns at rows
    ``solvent_at[g]:solvent_at[g] + SOLVENT_DIM``. The fits do not read
    this layout: save copies net g into a snapshot, and store writes net
    g (or its snapshot) back into a model.

    ``laid[p]`` is row-set position p of every net, net after net, as run
    reads a batch: each row's indices mapped to its net's w1t rows, its
    solvent values normalized by its net's statistics. ``labels[p]`` are
    their labels in the same order, and ``spans[p]`` each net's (net,
    start, stop) in ``laid[p]``, in net order, the parts run takes. Every
    net's rows meet only that net's w1t rows, and the mapping keeps each
    row's columns in order, so run and step make the same float
    operations per net, in the same order, as the net alone.

    ``velocity`` is None for plain SGD (``w -= lr * g``); otherwise it
    holds the momentum ``m`` and the velocities of every w1t row and of
    b1, w2 and b2, and a step makes ``v *= m; v -= lr * g; w += v``. A
    column only validation rows touch never has a gradient, so its
    velocity stays 0 and ``w += 0.0`` leaves it as it was.
    """

    def __init__(self, models, row_sets, label_sets, momentum=None):
        if len({model.head for model in models}) > 1:
            raise ScorerError("stacked nets differ in head")
        width = models[0].input_dim
        solvent_columns = np.arange(width - SOLVENT_DIM, width)
        live = []
        for k, sets in enumerate(row_sets):
            # the rows of the net before have the same columns
            if not (k and sets is row_sets[k - 1]):
                bits = np.unique(np.concatenate([rows.indices for rows in sets]))
                columns = np.concatenate([bits, solvent_columns])
            live.append(columns)
        bounds = np.cumsum([0] + [len(columns) for columns in live]).tolist()
        self.w1t = np.empty((bounds[-1], models[0].hidden_dim))
        laid = [[] for _ in row_sets[0]]
        for g, model in enumerate(models):
            low, high = bounds[g], bounds[g + 1]
            self.w1t[low:high] = model.w1[:, live[g]].T
            slots = np.zeros(width, dtype=np.int32)
            slots[live[g]] = np.arange(low, high)
            for p, (out, rows, labels) in enumerate(zip(laid, row_sets[g], label_sets[g])):
                if len(labels) != len(rows):
                    raise ScorerError(
                        f"net {g}, row set {p}: {len(labels)} labels for {len(rows)} rows"
                    )
                out.append(SparseRows(
                    rows.indptr, slots[rows.indices], rows.data,
                    (rows.solvent - model.norm_mean) / model.norm_std, len(self.w1t) + SOLVENT_DIM,
                ))
        self.laid = [_concat_rows(sets) for sets in laid]
        self.labels = [np.concatenate(labels, dtype=np.float64) for labels in zip(*label_sets)]
        self.spans = []
        for sets in laid:
            ends = np.cumsum([0] + [len(rows) for rows in sets]).tolist()
            self.spans.append(list(zip(range(len(sets)), ends, ends[1:])))
        self.bounds, self.live = bounds, live
        self.solvent_at = [high - SOLVENT_DIM for high in bounds[1:]]
        self.b1 = np.array([model.b1 for model in models])
        self.w2 = np.array([model.w2 for model in models])
        self.b2 = np.array([model.b2 for model in models], dtype=np.float64)
        self.sigmoid = models[0].head is Head.SIGMOID
        self.velocity = None
        if momentum is not None:
            self.velocity = (
                momentum, np.zeros_like(self.w1t), np.zeros_like(self.b1),
                np.zeros_like(self.w2), np.zeros_like(self.b2),
            )
        self._touched = np.zeros(len(self.w1t), dtype=bool)

    def save(self, g: int, saved) -> None:
        """Copy net g's weights into ``saved``, a (w1t, b1, w2, b2)
        snapshot shaped like the stack's own arrays."""
        low, high = self.bounds[g], self.bounds[g + 1]
        saved[0][low:high] = self.w1t[low:high]
        for out, weights in zip(saved[1:], (self.b1, self.w2, self.b2)):
            out[g] = weights[g]

    def store(self, g: int, model: MlpModel, saved=None) -> None:
        """Write net g's weights, or its copy in the snapshot ``saved``,
        into ``model``: a new w1 array, ``model.w1`` with net g's live
        columns replaced (the folds of a group share their first w1), and
        new b1, w2 and b2."""
        w1t, b1, w2, b2 = (self.w1t, self.b1, self.w2, self.b2) if saved is None else saved
        low, high = self.bounds[g], self.bounds[g + 1]
        w1 = model.w1.copy()
        w1[:, self.live[g]] = w1t[low:high].T
        model.w1, model.b1, model.w2, model.b2 = w1, b1[g].copy(), w2[g].copy(), float(b2[g])

    @np.errstate(**_QUIET)
    def run(self, batch: SparseRows, labels, parts, grads: bool = True):
        """Each part's mean loss and, with ``grads``, the gradients.

        SIGMOID uses mean binary cross-entropy computed from the logit
        (softplus form, no probability clipping needed); LINEAR uses mean
        squared error. The first layer of every net is one CSR product
        against w1t, and the w1 gradient one CSC product, compacted to the
        w1t rows the batch touches; the solvent term, ``hidden @ w2``, the
        means and the other gradients are per part.

        Returns (losses, grads): grads is None without ``grads``, else
        (touched w1t rows, their gradient rows, then per part the solvent
        rows' gradient, the b1, w2 and b2 gradients).
        """
        n = len(batch)
        w1t = self.w1t
        nets = [g for g, _, _ in parts]
        sizes = [high - low for _, low, high in parts]
        lead = csr_array((batch.data, batch.indices, batch.indptr), shape=(n, len(w1t)))
        z1 = lead @ w1t
        for g, low, high in parts:
            at = self.solvent_at[g]
            z1[low:high] += batch.solvent[low:high] @ w1t[at : at + SOLVENT_DIM]
        # elementwise steps run on the whole batch, each row against its
        # own net's b1, w2 and b2
        z1 += np.repeat(self.b1[nets], sizes, axis=0)
        # the ReLU in place: z1 is not read again
        hidden = np.maximum(z1, 0.0, out=z1)
        z2 = np.empty(n)
        for g, low, high in parts:
            np.matmul(hidden[low:high], self.w2[g], out=z2[low:high])
        z2 += np.repeat(self.b2[nets], sizes)
        count = np.repeat(sizes, sizes)
        if self.sigmoid:
            terms = np.logaddexp(0.0, z2) - labels * z2
            dz2 = (_sigmoid(z2) - labels) / count
        else:
            diff = z2 - labels
            terms = diff * diff
            dz2 = 2.0 * diff / count
        # a mean is the pairwise sum over the part, then one division
        losses = [float(terms[low:high].sum()) / (high - low) for _, low, high in parts]
        if not grads:
            return losses, None
        dz1 = np.repeat(self.w2[nets], sizes, axis=0)
        dz1 *= dz2[:, np.newaxis]
        dz1 *= hidden > 0.0
        width = w1t.shape[1]
        grad_solvent = np.empty((len(parts), SOLVENT_DIM, width))
        grad_b1 = np.empty((len(parts), width))
        grad_w2 = np.empty((len(parts), width))
        grad_b2 = np.empty(len(parts))
        for k, (g, low, high) in enumerate(parts):
            np.matmul(hidden[low:high].T, dz2[low:high], out=grad_w2[k])
            grad_b2[k] = dz2[low:high].sum()
            dz1[low:high].sum(axis=0, out=grad_b1[k])
            np.matmul(batch.solvent[low:high].T, dz1[low:high], out=grad_solvent[k])
        # compact to the touched rows; a mask finds them faster than sorting
        touched = self._touched
        touched[batch.indices] = True
        columns = np.flatnonzero(touched)
        indices = (np.cumsum(touched, dtype=np.int32) - 1)[batch.indices]
        touched[columns] = False
        # the same three arrays, read as CSC, are the transposed block
        lead_t = csc_array((batch.data, indices, batch.indptr), shape=(len(columns), n))
        return losses, (columns, lead_t @ dz1, grad_solvent, grad_b1, grad_w2, grad_b2)

    @np.errstate(**_QUIET)
    def step(self, parts, grads, learning_rate: float) -> None:
        """One update of the nets in ``parts`` from run's gradients."""
        columns, rows, solvent, b1, w2, b2 = grads
        nets = [g for g, _, _ in parts]
        if self.velocity is None:
            _subtract_rows(self.w1t, columns, learning_rate, rows)
            for k, g in enumerate(nets):
                at = self.solvent_at[g]
                self.w1t[at : at + SOLVENT_DIM] -= learning_rate * solvent[k]
            for weights, grad in ((self.b1, b1), (self.w2, w2), (self.b2, b2)):
                weights[nets] -= learning_rate * grad
            return
        momentum, velocity, *others = self.velocity
        # each net's live rows, adjacent nets' rows merged
        spans = []
        for g in nets:
            if spans and spans[-1][1] == self.bounds[g]:
                spans[-1][1] = self.bounds[g + 1]
            else:
                spans.append([self.bounds[g], self.bounds[g + 1]])
        for low, high in spans:
            velocity[low:high] *= momentum
        _subtract_rows(velocity, columns, learning_rate, rows)
        for k, g in enumerate(nets):
            at = self.solvent_at[g]
            velocity[at : at + SOLVENT_DIM] -= learning_rate * solvent[k]
        for low, high in spans:
            self.w1t[low:high] += velocity[low:high]
        for weights, speed, grad in zip((self.b1, self.w2, self.b2), others, (b1, w2, b2)):
            speed[nets] = momentum * speed[nets] - learning_rate * grad
            weights[nets] += speed[nets]

    def epoch(self, orders: dict, batch_size: int, learning_rate: float):
        """One epoch of lockstep mini-batch steps on row-set position 0.
        ``orders`` maps each training net, ascending, to its permutation
        of its rows; step k holds batch k of every net that has one, and
        the epoch's rows are taken from ``laid[0]`` once. Returns each
        net's sum of batch loss times batch size, added in step order, and
        the nets that had a non-finite batch loss."""
        ids, steps, at = [], [], 0
        longest = max(len(order) for order in orders.values())
        for begin in range(0, longest, batch_size):
            start, parts = at, []
            for g, order in orders.items():
                chunk = order[begin : begin + batch_size]
                if len(chunk):
                    ids.append(chunk + self.spans[0][g][1])
                    parts.append((g, at - start, at - start + len(chunk)))
                    at += len(chunk)
            steps.append((start, parts))
        ids = np.concatenate(ids)
        rows, labels = self.laid[0].take(ids), self.labels[0][ids]
        sums, diverged = dict.fromkeys(orders, 0.0), set()
        for start, parts in steps:
            stop = start + parts[-1][2]
            losses, grads = self.run(rows.slice(start, stop), labels[start:stop], parts)
            self.step(parts, grads, learning_rate)
            for (g, low, high), loss in zip(parts, losses):
                sums[g] += loss * (high - low)
                if not np.isfinite(loss):
                    diverged.add(g)
        return sums, diverged


def _subtract_rows(target, columns, scale: float, rows) -> None:
    """``target[columns] -= scale * rows`` in blocks of about
    UPDATE_BLOCK_BYTES, so each block's gather, product and scatter stay
    in cache; every element makes the same two float operations."""
    block = max(1, UPDATE_BLOCK_BYTES // (8 * target.shape[1]))
    for start in range(0, len(columns), block):
        stop = start + block
        target[columns[start:stop]] -= scale * rows[start:stop]


def loss_and_grads(model: MlpModel, rows: SparseRows, labels, grads: bool = True):
    """Batch loss plus gradients for every parameter, for one model.

    The first layer reads a copy of w1 at the rows' nonzero leading
    columns, as a CSR product. Returns (loss, dict with keys w1, b1, w2,
    b2). The w1 entry is a (columns, rows) pair: the input columns the
    batch touches (its nonzero leading columns, then the solvent columns)
    and the gradient of ``w1.T`` at them, shape (len(columns), hidden);
    every other column's gradient is zero. With ``grads=False`` only the
    loss is computed and the dict is None.
    """
    if rows.width != model.input_dim:
        raise ScorerError(f"expected {model.input_dim}-wide rows, got {rows.width}")
    stack = _NetStack([model], [(rows,)], [(labels,)])
    (loss,), out = stack.run(stack.laid[0], stack.labels[0], stack.spans[0], grads)
    if out is None:
        return loss, None
    touched, bit_rows, solvent, b1, w2, b2 = out
    grad_w1 = (
        np.concatenate([stack.live[0][touched], np.arange(rows.width - SOLVENT_DIM, rows.width)]),
        np.concatenate([bit_rows, solvent[0]]),
    )
    return loss, {"w1": grad_w1, "b1": b1[0], "w2": w2[0], "b2": float(b2[0])}


def _concat_rows(parts) -> SparseRows:
    indptr = np.zeros(sum(len(rows) for rows in parts) + 1, dtype=np.int32)
    np.cumsum(np.concatenate([np.diff(rows.indptr) for rows in parts]), out=indptr[1:])
    return SparseRows(
        indptr,
        np.concatenate([rows.indices for rows in parts]),
        np.concatenate([rows.data for rows in parts]),
        np.concatenate([rows.solvent for rows in parts]),
        parts[0].width,
    )


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    best_epoch: int


@dataclass(frozen=True)
class TrainJob:
    """One net's data for train_nets: training rows and labels, and the
    validation rows and labels that pick its best epoch. Build it with
    TrainJob.of, which checks the lengths."""

    rows: SparseRows
    labels: np.ndarray
    val_rows: SparseRows
    val_labels: np.ndarray

    @classmethod
    def of(cls, features, labels, val_features=None, val_labels=None) -> TrainJob:
        """Features are SparseRows or dense matrices; with no validation
        set the training set doubles as one."""
        rows = as_sparse_rows(features)
        labels = np.asarray(labels, dtype=np.float64)
        if len(rows) == 0:
            raise ScorerError("empty training set")
        if labels.shape != (len(rows),):
            raise ScorerError("features and labels differ in length")
        if val_features is None and val_labels is None:
            return cls(rows, labels, rows, labels)
        if val_features is None:
            raise ScorerError(f"{np.size(val_labels)} validation labels but no validation rows")
        val_rows = as_sparse_rows(val_features)
        if val_labels is None:
            raise ScorerError(f"{len(val_rows)} validation rows but no validation labels")
        val_labels = np.asarray(val_labels, dtype=np.float64)
        if val_labels.shape != (len(val_rows),):
            raise ScorerError(
                f"{len(val_rows)} validation rows but {val_labels.size} validation labels"
            )
        if len(val_rows) == 0:
            raise ScorerError("empty validation set")
        if val_rows.width != rows.width:
            raise ScorerError(f"expected {rows.width}-wide validation rows, got {val_rows.width}")
        return cls(rows, labels, val_rows, val_labels)


def _groups(jobs, hidden: int):
    """Consecutive runs of jobs whose working copies (w1t, its velocity and
    the best epoch's copy over each net's live rows) fit STACK_BYTES."""
    group, size = [], 0
    for job in jobs:
        bits = np.unique(np.concatenate([job.rows.indices, job.val_rows.indices]))
        need = 3 * 8 * hidden * (len(bits) + SOLVENT_DIM)
        if group and size + need > STACK_BYTES:
            yield group
            group, size = [], 0
        group.append(job)
        size += need
    if group:
        yield group


def train_nets(jobs, head: Head, config: TrainConfig) -> list[TrainResult]:
    """Mini-batch SGD with momentum for each TrainJob, keeping each net's
    best-validation weights; one TrainResult per job, in job order.

    Every net starts from the same draws of config.seed and shuffles its
    rows with its own generator, continued from those draws, one
    permutation per epoch, so a net's result does not depend on the jobs
    trained with it: same inputs give bit-identical weights. The nets take
    their mini-batches in lockstep, step k of an epoch holding batch k of
    every net that has one, and a net whose validation loss has not
    improved for more than config.patience epochs leaves.

    Jobs train in groups that fit STACK_BYTES, one group after another. A
    non-finite batch or validation loss ends training after its epoch e
    with "job k: loss diverged at epoch e; ...", k the lowest index in
    ``jobs`` of a net that diverged in that epoch; trained alone, job k
    diverges at epoch e too. With one job a group, k is the first job to
    diverge in job order.
    """
    results = []
    for group in _groups(jobs, config.hidden_dim):
        results.extend(_train_group(group, head, config, len(results)))
    return results


def _train_group(jobs, head: Head, config: TrainConfig, first: int) -> list[TrainResult]:
    if len({job.rows.width for job in jobs}) > 1:
        raise ScorerError("jobs differ in row width")
    rng = np.random.default_rng(config.seed)
    hidden = config.hidden_dim
    w1 = rng.normal(0.0, config.weight_init_scale, (hidden, jobs[0].rows.width))
    w2 = rng.normal(0.0, config.weight_init_scale, hidden)
    rngs = [copy.deepcopy(rng) for _ in jobs]
    models, targets = [], []
    for job in jobs:
        # Regression targets train standardized so one learning rate serves
        # both heads; the transform is folded back into w2/b2 at the end.
        mean, scale = 0.0, 1.0
        if head is Head.LINEAR:
            mean = float(job.labels.mean())
            spread = float(job.labels.std())
            scale = spread if spread > 0.0 else 1.0
        # (x - 0.0) / 1.0 is x, bit for bit, so classification labels pass
        targets.append((mean, scale, (job.labels - mean) / scale, (job.val_labels - mean) / scale))
        std = job.rows.solvent.std(axis=0)
        models.append(MlpModel(
            w1=w1, b1=np.zeros(hidden), w2=w2, b2=0.0, head=head,
            norm_mean=job.rows.solvent.mean(axis=0), norm_std=np.where(std > 0.0, std, 1.0),
            seed=config.seed,
        ))
    stack = _NetStack(
        models, [(job.rows, job.val_rows) for job in jobs], [t[2:] for t in targets],
        config.momentum,
    )
    best = (stack.w1t.copy(), stack.b1.copy(), stack.w2.copy(), stack.b2.copy())
    best_loss = [float("inf")] * len(jobs)
    best_epoch = [0] * len(jobs)
    stale = [0] * len(jobs)
    train_losses = [[] for _ in jobs]
    val_losses = [[] for _ in jobs]
    active = list(range(len(jobs)))
    for epoch in range(config.epochs):
        if not active:
            break
        orders = {g: rngs[g].permutation(len(jobs[g].rows)) for g in active}
        sums, diverged = stack.epoch(orders, config.batch_size, config.learning_rate)
        # every net's whole validation set in one pass
        losses, _ = stack.run(stack.laid[1], stack.labels[1], stack.spans[1], grads=False)
        diverged.update(g for g in active if not np.isfinite(losses[g]))
        if diverged:
            k = first + min(diverged)
            raise ScorerError(f"job {k}: loss diverged at epoch {epoch}; lower the learning rate")
        for g in list(active):
            scale = targets[g][1]
            train_losses[g].append(sums[g] / len(jobs[g].rows) * scale**2)
            val_losses[g].append(losses[g] * scale**2)
            if losses[g] < best_loss[g]:
                best_loss[g] = losses[g]
                stack.save(g, best)
                best_epoch[g] = epoch
                stale[g] = 0
            else:
                stale[g] += 1
                if stale[g] > config.patience:
                    active.remove(g)
    results = []
    for g, model in enumerate(models):
        mean, scale = targets[g][:2]
        stack.store(g, model, best)
        if head is Head.LINEAR:
            model.w2 = model.w2 * scale
            model.b2 = model.b2 * scale + mean
        results.append(TrainResult(model, tuple(train_losses[g]), tuple(val_losses[g]), best_epoch[g]))
    return results


def mlp_train(
    features,
    labels: np.ndarray,
    head: Head,
    config: TrainConfig,
    val_features=None,
    val_labels: np.ndarray | None = None,
) -> TrainResult:
    """train_nets for one job: mini-batch SGD with momentum, keeping the
    best-validation weights. Features are SparseRows or dense matrices;
    when no validation set is given the training set doubles as one."""
    job = TrainJob.of(features, labels, val_features, val_labels)
    return train_nets([job], head, config)[0]


def update_nets(models, rows: SparseRows, targets, epochs: int, batch_size: int,
                learning_rate: float, rng) -> list[bool]:
    """A few epochs of plain SGD for each model on the same rows, column k
    of the (n, len(models)) ``targets`` for model k; an update is kept
    only when it does not worsen that model's full-set loss, and is
    otherwise dropped. Returns whether each update was kept.

    Every model's permutations, one per epoch, are drawn from ``rng`` up
    front, all of model 0's first; the models then train in lockstep.
    A kept update replaces ``w1`` with a new array and ``b1``, ``w2`` and
    ``b2`` with new values; a dropped one leaves the model as it was.
    """
    n = len(rows)
    orders = [[rng.permutation(n) for _ in range(epochs)] for _ in models]
    stack = _NetStack(
        models, [(rows,)] * len(models), [(column,) for column in np.transpose(targets)]
    )

    def full_losses():
        return stack.run(stack.laid[0], stack.labels[0], stack.spans[0], grads=False)[0]

    before = full_losses()
    for epoch in range(epochs):
        stack.epoch({k: order[epoch] for k, order in enumerate(orders)}, batch_size,
                    learning_rate)
    after = full_losses()
    kept = []
    for k, model in enumerate(models):
        kept.append(bool(np.isfinite(after[k]) and not after[k] > before[k]))
        if kept[-1]:
            stack.store(k, model)
    return kept


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
    out[:, stack.sigmoid] = _sigmoid(out[:, stack.sigmoid])
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
        with np.load(path, allow_pickle=False) as npz:
            data = {key: npz[key] for key in npz.files}
    except Exception as exc:
        raise ScorerError(f"cannot read checkpoint {path}: {exc}") from None
    version = data.get("version")
    if version is None or version.shape != () or version.item() != _CHECKPOINT_VERSION:
        raise ScorerError(f"{path}: unsupported checkpoint version")
    missing = [key for key in _CHECKPOINT_ARRAYS if key not in data]
    if missing:
        raise ScorerError(f"{path}: checkpoint lacks {', '.join(missing)}")
    head = str(data["head"])
    if head not in {h.value for h in Head}:
        raise ScorerError(f"{path}: unknown head {head!r}")
    try:
        return MlpModel(
            w1=data["w1"],
            b1=data["b1"],
            w2=data["w2"],
            b2=data["b2"],
            head=Head(head),
            norm_mean=data["norm_mean"],
            norm_std=data["norm_std"],
            seed=data["seed"],
        )
    except ScorerError as exc:
        raise ScorerError(f"{path}: {exc}") from None


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
    head = TASK_HEADS[dataset.task]
    metric_name = "roc_auc" if head is Head.SIGMOID else "mae"
    metrics = []
    models = []
    solvents = np.reshape([s.as_tuple() for s in dataset.solvents], (-1, SOLVENT_DIM))
    rows = SparseRows.from_words(dataset.words, solvents)
    splits = split_cv(len(dataset), folds=folds, seed=split_seed)
    # made as train_nets reaches them, so only one group's copies exist
    jobs = (
        TrainJob.of(
            rows.take(split.train), dataset.labels[list(split.train)],
            rows.take(split.val), dataset.labels[list(split.val)],
        )
        for split in splits
    )
    for split, result in zip(splits, train_nets(jobs, head, config)):
        test_idx = np.array(split.test)
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
