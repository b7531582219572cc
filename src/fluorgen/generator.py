"""Reinforcement-learned assembly of candidate fluorophores.

A rollout walks a synthesis tree: sample a reaction template and a block
for its first role, fill the remaining roles, apply the reaction, then
decide whether to keep reacting the product (up to a step budget) or
stop. Choices are drawn from a softmax over learned value estimates, the
final molecule is scored by the four reward properties, and the visited
nodes land in a replay buffer that periodically retrains the value
networks. Temperature chases a target nearest-neighbor similarity;
property weights shift toward whichever property is currently failing.

Everything downstream of the seed is deterministic, including the output
files: rerunning a config reproduces them byte for byte.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fluorgen.filters import FilterThresholds
from fluorgen.fingerprints import (
    FEATURE_DIM,
    FP_WORDS,
    Fingerprint,
    SolventFeatures,
    build_feature_vector,
    morgan_fingerprints,
    tanimoto_matrix,
)
from fluorgen.molgraph import MolecularGraph, is_digits, sp2_network_size
from fluorgen.patterns import has_match
from fluorgen.reactions import (
    PREV_MARKER,
    BlockLibrary,
    CompatibilityIndex,
    apply_reaction,
)
from fluorgen.scorers import (
    PROPERTY_MODELS,
    Head,
    MlpModel,
    ScorerKind,
    ScoreStack,
    SparseRows,
    property_stack,
    score_rows,
    update_nets,
)
from fluorgen.smiles import write_canonical_smiles

PROPERTY_ORDER = PROPERTY_MODELS + (ScorerKind.SP2_SIZE,)
N_PROPERTIES = len(PROPERTY_ORDER)
UNIFORM_WEIGHTS = (1.0 / N_PROPERTIES,) * N_PROPERTIES

# A rollout succeeds on the dye criteria the filter screens for: the
# filter's default thresholds, not a run's configured ones.
DYE_CRITERIA = FilterThresholds()


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for one generation run.

    :param n_rollouts: number of rollouts to attempt.
    :param tau_init: starting softmax temperature.
    :param tau_min: lower clamp for the temperature controller.
    :param tau_max: upper clamp for the temperature controller.
    :param target_similarity: nearest-neighbor Tanimoto the controller
        steers toward.
    :param eta: multiplicative controller gain per rollout.
    :param window: rolling-window length for similarity and success rates.
    :param train_interval: rollouts between value-network updates.
    :param max_steps: reaction steps allowed per molecule.
    :param buffer_capacity: replay-buffer size, FIFO eviction.
    :param value_hidden: hidden width of each value network.
    :param value_epochs: epochs per value-network update.
    :param value_lr: learning rate for value-network updates.
    :param value_batch: mini-batch size for value-network updates.
    :param weight_floor: minimum property weight.
    :param seed: seed fixing every stochastic choice of the run.
    """

    n_rollouts: int = 10_000
    tau_init: float = 0.1
    tau_min: float = 0.005
    tau_max: float = 10.0
    target_similarity: float = 0.6
    eta: float = 0.01
    window: int = 100
    train_interval: int = 10
    max_steps: int = 2
    buffer_capacity: int = 2_000
    value_hidden: int = 32
    value_epochs: int = 4
    value_lr: float = 0.05
    value_batch: int = 32
    weight_floor: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_rollouts < 0:
            raise GeneratorError("n_rollouts must be non-negative")
        if not 0 < self.tau_min <= self.tau_init <= self.tau_max:
            raise GeneratorError("need 0 < tau_min <= tau_init <= tau_max")
        if not 0.0 < self.target_similarity < 1.0:
            raise GeneratorError("target_similarity must lie in (0,1)")
        if self.weight_floor < 0.0:
            raise GeneratorError("weight_floor must be non-negative")
        if self.weight_floor * N_PROPERTIES > 1.0:
            raise GeneratorError("weight_floor too large for the simplex")
        for name in ("eta", "window", "train_interval", "max_steps",
                     "buffer_capacity", "value_hidden", "value_epochs",
                     "value_lr", "value_batch"):
            if getattr(self, name) <= 0:
                raise GeneratorError(f"{name} must be positive")


@dataclass(frozen=True)
class RouteStep:
    """One reaction application: inputs are block ids in role order, with
    the previous step's product written as the ``@prev`` marker."""

    template_id: str
    inputs: tuple[str, ...]
    product_index: int


@dataclass(frozen=True)
class GeneratedMolecule:
    smiles: str
    route: tuple[RouteStep, ...]
    scores: tuple[float, ...]  # M_k in PROPERTY_ORDER
    combined: float  # p(m) under the weights below
    weights: tuple[float, ...]  # weights in force when the molecule was scored
    rollout: int


@dataclass(frozen=True)
class RolloutLog:
    rollout: int
    tau: float
    weights: tuple[float, ...]
    success_rates: tuple[float, ...]
    similarity: float | None
    status: str  # "ok", "duplicate", or "dead"


@dataclass(frozen=True)
class GenerationResult:
    molecules: tuple[GeneratedMolecule, ...]
    log: tuple[RolloutLog, ...]
    reaction_usage: dict[str, int]
    dead_ends: int
    duplicates: int


class ReplayBuffer:
    """Ring of the last ``capacity`` visited nodes and their reward targets.

    Node rows live in two fixed arrays, (capacity, FP_WORDS) packed words
    and (capacity, N_PROPERTIES) targets; each append writes the slot
    after the newest, overwriting the oldest once the ring is full. A
    full 2,000-row buffer holds 576 KB, and ``rows`` hands it to training
    as one ordered gather and one SparseRows.from_words call.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise GeneratorError("buffer capacity must be positive")
        self._words = np.zeros((capacity, FP_WORDS), dtype=np.uint64)
        self._targets = np.zeros((capacity, N_PROPERTIES))
        self._appended = 0

    def append(self, row: np.ndarray, targets: tuple[float, ...]):
        """Copy a node's packed (FP_WORDS,) row and its targets into the
        next slot."""
        if len(targets) != N_PROPERTIES:
            raise GeneratorError(f"expected {N_PROPERTIES} targets")
        slot = self._appended % len(self._words)
        self._words[slot] = row
        self._targets[slot] = targets
        self._appended += 1

    def __len__(self) -> int:
        return min(self._appended, len(self._words))

    def rows(self, solvent: SolventFeatures) -> tuple[SparseRows, np.ndarray]:
        """(SparseRows of every stored node in ``solvent``, (n, N_PROPERTIES)
        targets), oldest first."""
        order = np.arange(self._appended - len(self), self._appended) % len(self._words)
        return SparseRows.from_words(self._words[order], solvent.as_tuple()), self._targets[order]


def node_features(fingerprints, solvent: SolventFeatures) -> np.ndarray:
    """Feature vector for a set of molecules: bit-OR of their
    fingerprints followed by the solvent features. The rollout ORs packed
    rows instead; this form is their referee.

    :param fingerprints: one or more Fingerprint values.
    :param solvent: solvent descriptors appended as the last four entries.
    """
    fingerprints = list(fingerprints)
    if not fingerprints:
        raise GeneratorError("node has no molecules")
    bits = 0
    for fp in fingerprints:
        bits |= fp.bits
    return build_feature_vector(Fingerprint(bits), solvent)


def weighted_values(outputs: np.ndarray, weights) -> np.ndarray:
    """V(N) = sum_k w_k * Z_k(N) for each row of value-net outputs, summed
    one property at a time in PROPERTY_ORDER."""
    if outputs.shape[1] != len(weights):
        raise GeneratorError("one value model per weight required")
    total = np.zeros(len(outputs))
    for k, weight in enumerate(weights):
        total += weight * outputs[:, k]
    return total


def softmax_probabilities(values, tau: float) -> np.ndarray:
    """Selection probabilities e^{V_i/tau} / sum_j e^{V_j/tau}, computed
    with max subtraction so large values cannot overflow.

    :param values: candidate values, all finite, at least one.
    :param tau: softmax temperature, positive.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise GeneratorError("no candidates to sample")
    if tau <= 0:
        raise GeneratorError("temperature must be positive")
    if not np.all(np.isfinite(arr)):
        raise GeneratorError("non-finite candidate value")
    shifted = (arr - arr.max()) / tau
    probabilities = np.exp(shifted)
    return probabilities / probabilities.sum()


def sample_child(values, tau: float, rng: random.Random) -> int:
    """Draw an index with probability proportional to e^{V/tau}.

    :param values: candidate values, all finite.
    :param tau: softmax temperature, positive.
    :param rng: run RNG; the single source of randomness.
    """
    probabilities = softmax_probabilities(values, tau)
    cutoff = rng.random()
    cumulative = np.cumsum(probabilities)
    return min(
        int(np.searchsorted(cumulative, cutoff, side="right")), probabilities.size - 1
    )


def reward(
    graph: MolecularGraph,
    words: np.ndarray,
    stack: ScoreStack,
    weights,
    solvent: SolventFeatures,
):
    """Per-property scores and their weighted combination.

    PLQY is the classifier probability; absorption and emission binarize
    to 1 when the predicted wavelength falls in DYE_CRITERIA's window; the
    sp2 score is the network size over DYE_CRITERIA.sp2_min, clamped to 1.

    :param words: the molecule's packed fingerprint as a (1, FP_WORDS)
        row; its three model scores come from one score_rows call.
    :param stack: the reward models, as property_stack builds them.
    :param weights: property weights in PROPERTY_ORDER.
    :returns: (scores tuple, combined p(m)).
    """
    plqy, absorption, emission = score_rows(stack, words, solvent)[0].tolist()
    sp2 = sp2_network_size(graph)
    scores = (
        plqy,
        1.0 if DYE_CRITERIA.in_window(absorption) else 0.0,
        1.0 if DYE_CRITERIA.in_window(emission) else 0.0,
        min(sp2 / DYE_CRITERIA.sp2_min, 1.0),
    )
    combined = float(sum(w * m for w, m in zip(weights, scores)))
    return scores, combined


def _successes(scores) -> tuple[bool, ...]:
    # the DYE_CRITERIA a molecule passes, read off its reward scores
    return (
        scores[0] >= DYE_CRITERIA.plqy_min,
        scores[1] == 1.0,
        scores[2] == 1.0,
        scores[3] >= 1.0,
    )


def tune_temperature(similarities, tau: float, config: GenerationConfig) -> float:
    """One controller step toward the target similarity.

    :param similarities: rolling window of nearest-neighbor Tanimoto
        values, most recent last; empty leaves tau unchanged.
    """
    if not similarities:
        return tau
    mean = sum(similarities) / len(similarities)
    tau = tau * (1.0 + config.eta * (mean - config.target_similarity))
    return min(max(tau, config.tau_min), config.tau_max)


def tune_weights(success_rates, floor: float) -> tuple[float, ...]:
    """Weights proportional to failure rates, kept on the simplex with a
    floor so no property is ever abandoned.

    The proportional assignment max(floor, 1-r)/sum can dip below the
    floor after normalization, so weights that land under it are pinned
    there and the remainder is redistributed until the assignment is
    consistent.
    """
    count = len(success_rates)
    if floor < 0.0:
        raise GeneratorError("floor must be non-negative")
    if floor * count > 1.0:
        raise GeneratorError("floor too large for the simplex")
    demand = [max(0.0, 1.0 - r) for r in success_rates]
    weights = [0.0] * count
    pinned: set[int] = set()
    while True:
        free = [k for k in range(count) if k not in pinned]
        mass = 1.0 - floor * len(pinned)
        total = sum(demand[k] for k in free)
        if not free:
            return tuple(1.0 / count for _ in range(count))
        if total == 0.0:
            for k in free:
                weights[k] = mass / len(free)
            break
        scale = mass / total
        low = [k for k in free if demand[k] * scale < floor]
        if not low:
            for k in free:
                weights[k] = demand[k] * scale
            break
        pinned.update(low)
    for k in pinned:
        weights[k] = floor
    return tuple(weights)


def _init_value_models(config: GenerationConfig) -> list[MlpModel]:
    rng = np.random.default_rng(config.seed)
    models = []
    for _ in range(N_PROPERTIES):
        models.append(
            MlpModel(
                w1=rng.normal(0.0, 0.01, (config.value_hidden, FEATURE_DIM)),
                b1=np.zeros(config.value_hidden),
                w2=rng.normal(0.0, 0.01, config.value_hidden),
                b2=0.0,
                head=Head.LINEAR,
                norm_mean=np.zeros(4),
                norm_std=np.ones(4),
                seed=config.seed,
            )
        )
    return models


def train_value_model(model, rows: SparseRows, targets, config, rng) -> None:
    """update_nets for one value net: a few epochs of SGD on the buffer,
    kept only when the update does not worsen the full-buffer loss."""
    update_nets(
        [model], rows, np.reshape(targets, (-1, 1)), config.value_epochs, config.value_batch,
        config.value_lr, rng,
    )


class _Rollout(NamedTuple):
    """A rollout that reached a product: the product with its canonical
    SMILES and packed (1, FP_WORDS) fingerprint row, its route, and the
    packed (FP_WORDS,) rows of the nodes it visited, in visit order."""

    graph: MolecularGraph
    smiles: str
    words: np.ndarray
    route: tuple[RouteStep, ...]
    path: tuple[np.ndarray, ...]


class Generator:
    """Holds the mutable run state; ``Generator(...).run`` is the entry
    point, and config.seed fixes the run.

    :param library: building blocks, in file order.
    :param templates: reaction templates, in file order.
    :param scorers: reward scorers keyed by ScorerKind, all four present.
    :param solvent: solvent the rewards are evaluated in.
    :param config: run parameters.
    :param index: the CompatibilityIndex of library and templates, when
        the caller already has one; built here otherwise.
    """

    def __init__(self, library: BlockLibrary, templates, scorers, solvent, config, index=None):
        missing = [kind.value for kind in PROPERTY_ORDER if kind not in scorers]
        if missing:
            raise GeneratorError(f"missing reward scorers: {missing}")
        self.config = config
        self.templates = tuple(templates)
        self.blocks = library.blocks
        self.property_stack = property_stack(scorers)
        self.solvent = solvent
        self.index = index or CompatibilityIndex(library, self.templates)
        self.viable = set(self.index.viable_templates())
        if not self.viable:
            raise GeneratorError("no template has compatible blocks for every role")
        self.rng = random.Random(config.seed)
        self.np_rng = np.random.default_rng(config.seed + 1)
        self.value_models = _init_value_models(config)
        self.buffer = ReplayBuffer(config.buffer_capacity)
        self.tau = config.tau_init
        self.weights = UNIFORM_WEIGHTS
        self.similarity_window = collections.deque(maxlen=config.window)
        self.success_window = collections.deque(maxlen=config.window)
        # each block's packed row in library order, then an all-zero row
        # that position -1 (no partner, or the previous product) reads
        self.block_words = np.append(library.words, np.zeros((1, FP_WORDS), np.uint64), axis=0)
        # the first decision's (template, block position) candidates
        self._first_candidates = [
            (template, position)
            for template in self.templates
            if template.id in self.viable
            for position in self.index.compatible_blocks(template.id, 0)
        ]
        self._first_rows = np.array([position for _, position in self._first_candidates])
        self._refresh_values()

    # value estimation

    def _refresh_values(self):
        """Stack the current value nets for score_rows (``value_stack``) and
        score each library block alone with them (``block_outputs``, in
        library order); run at start-up and after each retrain."""
        self.value_stack = ScoreStack(self.value_models)
        self.block_outputs = score_rows(self.value_stack, self.block_words[:-1], self.solvent)

    def _sample(self, outputs: np.ndarray) -> int:
        return sample_child(weighted_values(outputs, self.weights), self.tau, self.rng)

    def _choose(self, candidates: np.ndarray) -> int:
        return self._sample(score_rows(self.value_stack, candidates, self.solvent))

    # rollout phases

    def _continuations(self, product: MolecularGraph):
        """(template, product role, library position of the block for the
        lowest other role, or -1 for a unary template) triples the current
        product could react through next."""
        out = []
        for template in self.templates:
            if template.id not in self.viable and template.arity > 1:
                continue
            for role in range(template.arity):
                if not has_match(template.roles[role], product):
                    continue
                others = [k for k in range(template.arity) if k != role]
                if not others:
                    out.append((template, role, -1))
                    continue
                for position in self.index.compatible_blocks(template.id, others[0]).tolist():
                    out.append((template, role, position))
        return out

    def _run_rollout(self) -> _Rollout | None:
        """The first step starts from a sampled (template, first block)
        pair, each later one from a sampled continuation of the product or
        a stop; the open roles are then filled one sampled block at a time.
        None when a reaction yields no product (a dead end)."""
        template, first_block = self._first_candidates[
            self._sample(self.block_outputs[self._first_rows])
        ]
        # reactants as library positions in role order, -1 for the product
        inputs = [first_block] + [-1] * (template.arity - 1)
        # the current node's packed row: the OR of its molecules' rows
        node = self.block_words[first_block]
        path = [node]
        open_roles = range(1, template.arity)
        product = product_row = None
        route = []
        for step in range(self.config.max_steps):
            if step:
                continuations = self._continuations(product)
                if not continuations:
                    break
                # the stop node first, then each continuation's node
                partners = [-1] + [position for _, _, position in continuations]
                candidates = product_row | self.block_words[partners]
                pick = self._choose(candidates)
                if pick == 0:
                    break
                template, product_role, partner = continuations[pick - 1]
                node = candidates[pick]
                inputs = [-1] * template.arity
                others = [k for k in range(template.arity) if k != product_role]
                if others:
                    inputs[others[0]] = partner
                    path.append(node)
                open_roles = others[1:]
            for role in open_roles:
                options = self.index.compatible_blocks(template.id, role)
                candidates = node | self.block_words[options]
                pick = self._choose(candidates)
                inputs[role] = options[pick]
                node = candidates[pick]
                path.append(node)

            reactants = [product if k < 0 else self.blocks[k].graph for k in inputs]
            result = apply_reaction(template, reactants)
            if not result.products:
                return None
            product_index = self.rng.randrange(len(result.products))
            product = result.products[product_index]
            product_row = morgan_fingerprints([product])
            names = tuple(PREV_MARKER if k < 0 else self.blocks[k].id for k in inputs)
            route.append(RouteStep(template.id, names, product_index))
            path.append(product_row[0])

        return _Rollout(
            product, write_canonical_smiles(product), product_row, tuple(route), tuple(path)
        )

    def _train_values(self):
        rows, targets = self.buffer.rows(self.solvent)
        config = self.config
        update_nets(
            self.value_models, rows, targets, config.value_epochs, config.value_batch,
            config.value_lr, self.np_rng,
        )
        self._refresh_values()

    def run(self, progress=None) -> GenerationResult:
        """Run the full generation loop and return molecules plus run logs.

        :param progress: optional callback invoked as progress(done, total)
            before each rollout; purely informational.
        """
        config = self.config
        emitted: dict[str, GeneratedMolecule] = {}
        # packed fingerprints of the emitted molecules in rows [:len(emitted)]
        emitted_words = np.empty((config.n_rollouts, FP_WORDS), dtype=np.uint64)
        log: list[RolloutLog] = []
        for rollout_idx in range(config.n_rollouts):
            if progress is not None:
                progress(rollout_idx, config.n_rollouts)
            outcome = self._run_rollout()
            status, similarity = "dead", None
            # a dead end skips reward, the controllers, the buffer and the
            # retrain check
            if outcome is not None:
                scores, combined = reward(
                    outcome.graph, outcome.words, self.property_stack, self.weights, self.solvent
                )
                n_emitted = len(emitted)
                if n_emitted:
                    similarity = float(
                        tanimoto_matrix(outcome.words, emitted_words[:n_emitted]).max()
                    )
                if outcome.smiles in emitted:
                    status = "duplicate"
                else:
                    status = "ok"
                    emitted[outcome.smiles] = GeneratedMolecule(
                        smiles=outcome.smiles,
                        route=outcome.route,
                        scores=scores,
                        combined=combined,
                        weights=self.weights,
                        rollout=rollout_idx,
                    )
                    emitted_words[n_emitted] = outcome.words

                self.success_window.append(_successes(scores))
                if similarity is not None:
                    self.similarity_window.append(similarity)
                    self.tau = tune_temperature(self.similarity_window, self.tau, config)
                self.weights = tune_weights(self._rates(), config.weight_floor)

                for row in outcome.path:
                    self.buffer.append(row, scores)
                if (rollout_idx + 1) % config.train_interval == 0:
                    self._train_values()

            log.append(
                RolloutLog(
                    rollout=rollout_idx,
                    tau=self.tau,
                    weights=self.weights,
                    success_rates=self._rates(),
                    similarity=similarity,
                    status=status,
                )
            )

        if config.n_rollouts > 0 and not emitted:
            raise GeneratorError("every rollout dead-ended; nothing generated")
        usage: dict[str, int] = {}
        for molecule in emitted.values():
            for step in molecule.route:
                usage[step.template_id] = usage.get(step.template_id, 0) + 1
        statuses = [entry.status for entry in log]
        return GenerationResult(
            molecules=tuple(emitted.values()),
            log=tuple(log),
            reaction_usage=usage,
            dead_ends=statuses.count("dead"),
            duplicates=statuses.count("duplicate"),
        )

    def _rates(self) -> tuple[float, ...]:
        if not self.success_window:
            return tuple(0.0 for _ in range(N_PROPERTIES))
        count = len(self.success_window)
        return tuple(
            sum(1.0 for flags in self.success_window if flags[k]) / count
            for k in range(N_PROPERTIES)
        )


def uniform_baseline(
    library: BlockLibrary,
    templates,
    n_samples: int,
    seed: int,
    scorers,
    solvent: SolventFeatures,
    index: CompatibilityIndex | None = None,
) -> tuple[GeneratedMolecule, ...]:
    """Single-step random template/block combinations from the same
    library, scored the same way; the no-learning comparison set. index is
    the CompatibilityIndex of library and templates, if already built."""
    rng = random.Random(seed)
    index = index or CompatibilityIndex(library, tuple(templates))
    viable = sorted(index.viable_templates())
    if not viable:
        raise GeneratorError("no template has compatible blocks for every role")
    blocks = library.blocks
    stack = property_stack(scorers)
    out = []
    for sample_idx in range(n_samples):
        template = index.templates[viable[rng.randrange(len(viable))]]
        chosen = []
        for role in range(template.arity):
            options = index.compatible_blocks(template.id, role)
            chosen.append(options[rng.randrange(len(options))])
        result = apply_reaction(template, [blocks[k].graph for k in chosen])
        if not result.products:
            continue
        product_index = rng.randrange(len(result.products))
        product = result.products[product_index]
        scores, combined = reward(
            product, morgan_fingerprints([product]), stack, UNIFORM_WEIGHTS, solvent
        )
        out.append(
            GeneratedMolecule(
                smiles=write_canonical_smiles(product),
                route=(RouteStep(template.id, tuple(blocks[k].id for k in chosen), product_index),),
                scores=scores,
                combined=combined,
                weights=UNIFORM_WEIGHTS,
                rollout=sample_idx,
            )
        )
    return tuple(out)


def replay_route(route, library: BlockLibrary, templates) -> str:
    """Re-run a recorded route and return the final canonical SMILES."""
    templates_by_id = {t.id: t for t in templates}
    blocks = {b.id: b for b in library.blocks}
    previous: MolecularGraph | None = None
    for step in route:
        template = templates_by_id.get(step.template_id)
        if template is None:
            raise GeneratorError(f"route names unknown template {step.template_id!r}")
        reactants = []
        for name in step.inputs:
            if name == PREV_MARKER:
                if previous is None:
                    raise GeneratorError(f"route uses {PREV_MARKER} in its first step")
                reactants.append(previous)
            else:
                block = blocks.get(name)
                if block is None:
                    raise GeneratorError(f"route names unknown block {name!r}")
                reactants.append(block.graph)
        result = apply_reaction(template, reactants)
        if step.product_index >= len(result.products):
            raise GeneratorError(
                f"route step expects product {step.product_index}, "
                f"got {len(result.products)} products"
            )
        previous = result.products[step.product_index]
    if previous is None:
        raise GeneratorError("empty route")
    return write_canonical_smiles(previous)


# file output; all numbers use %.6g so reruns are byte-identical


def format_route(route) -> str:
    steps = []
    for step in route:
        steps.append(
            f"{step.template_id}({','.join(step.inputs)})->{step.product_index}"
        )
    return ";".join(steps)


def parse_route(text: str) -> tuple[RouteStep, ...]:
    steps = []
    for chunk in text.split(";"):
        head, _, index_text = chunk.rpartition("->")
        name, _, inner = head.partition("(")
        if not inner.endswith(")") or not is_digits(index_text):
            raise GeneratorError(f"bad route step {chunk!r}")
        steps.append(
            RouteStep(
                template_id=name,
                inputs=tuple(inner[:-1].split(",")),
                product_index=int(index_text),
            )
        )
    return tuple(steps)


def _fmt(value: float) -> str:
    return format(value, ".6g")


def write_molecules(molecules, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "smiles\troute\tm_plqy\tm_abs\tm_em\tm_sp2\tp\trollout\n"
        )
        for m in molecules:
            scores = "\t".join(_fmt(s) for s in m.scores)
            handle.write(
                f"{m.smiles}\t{format_route(m.route)}\t{scores}\t{_fmt(m.combined)}\t{m.rollout}\n"
            )


def write_run_log(log, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "rollout\ttau\tw_plqy\tw_abs\tw_em\tw_sp2\t"
            "r_plqy\tr_abs\tr_em\tr_sp2\tsimilarity\tstatus\n"
        )
        for entry in log:
            weights = "\t".join(_fmt(w) for w in entry.weights)
            rates = "\t".join(_fmt(r) for r in entry.success_rates)
            similarity = "" if entry.similarity is None else _fmt(entry.similarity)
            handle.write(
                f"{entry.rollout}\t{_fmt(entry.tau)}\t{weights}\t{rates}\t"
                f"{similarity}\t{entry.status}\n"
            )


def write_reaction_usage(usage: dict[str, int], path: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("template\tcount\n")
        for template_id in sorted(usage):
            handle.write(f"{template_id}\t{usage[template_id]}\n")
