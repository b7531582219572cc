"""Post-generation screening: staged property filters, Tanimoto-space
clustering, and novelty against a reference set."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from fluorgen.fingerprints import (
    Fingerprint,
    SolventFeatures,
    morgan_fingerprints,
    pack,
    tanimoto_matrix,
)
from fluorgen.molgraph import sp2_network_size
from fluorgen.scorers import ScorerKind, ScoreStack, score_rows
from fluorgen.smiles import parse_smiles

NOVELTY_THRESHOLD = 0.5

# pair similarities converted to Python floats at a time when writing
HISTOGRAM_CHUNK = 1 << 16


class FilterError(ValueError):
    pass


@dataclass(frozen=True)
class FilterThresholds:
    sp2_min: int = 12
    plqy_min: float = 0.5
    window_min_nm: float = 420.0
    window_max_nm: float = 750.0


@dataclass(frozen=True)
class FilterReport:
    """Counts per stage. remaining[i] is the population after stage i."""

    stages: tuple[str, ...]
    total: int
    remaining: tuple[int, ...]
    rejected: tuple[int, ...]

    def __post_init__(self):
        if len(self.remaining) != len(self.stages) or len(self.rejected) != len(self.stages):
            raise FilterError("one count per stage required")
        previous = self.total
        for kept, dropped in zip(self.remaining, self.rejected):
            if kept + dropped != previous or dropped < 0:
                raise FilterError("stage counts must be monotone non-increasing")
            previous = kept


FILTER_STAGES = ("sp2_network", "plqy_probability", "absorption_window", "emission_window")


def run_filters(smiles_list, scorers, solvent: SolventFeatures,
                thresholds: FilterThresholds = FilterThresholds()):
    """Apply the four stages in order; a molecule is charged to the first
    stage it fails. Each molecule is parsed once; the sp2 stage's survivors,
    exactly the molecules that reach a model stage, are fingerprinted in one
    batch, and each model stage scores its distinct survivors with
    score_rows against a ScoreStack of the stage's model, one CSR product
    per block of rows. Returns (surviving smiles, FilterReport, survivor
    fingerprints in survivor order)."""
    survivors = list(smiles_list)
    graphs = {s: parse_smiles(s) for s in survivors}
    fingerprints: dict[str, Fingerprint] = {}

    def in_window(nm):
        return thresholds.window_min_nm <= nm <= thresholds.window_max_nm

    # (scorer kind, or None for the sp2 stage; test on the stage's value)
    stages = (
        (None, lambda size: size >= thresholds.sp2_min),
        (ScorerKind.PLQY_PROB, lambda probability: probability >= thresholds.plqy_min),
        (ScorerKind.ABS_NM, in_window),
        (ScorerKind.EM_NM, in_window),
    )
    total = len(survivors)
    remaining = []
    rejected = []
    for kind, ok in stages:
        distinct = list(dict.fromkeys(survivors))
        if kind is None:
            values = [sp2_network_size(graphs[s]) for s in distinct]
        elif distinct:  # with nothing left, no scorer is needed
            fps = [fingerprints[s] for s in distinct]
            stack = ScoreStack([scorers[kind].model])
            values = score_rows(stack, pack(fps), solvent)[:, 0].tolist()
        else:
            values = []
        passed = {s for s, value in zip(distinct, values) if ok(value)}
        kept = [s for s in survivors if s in passed]
        rejected.append(len(survivors) - len(kept))
        remaining.append(len(kept))
        survivors = kept
        if kind is None:
            distinct = list(dict.fromkeys(survivors))
            fingerprints.update(zip(distinct, morgan_fingerprints(graphs[s] for s in distinct)))
    report = FilterReport(
        stages=FILTER_STAGES,
        total=total,
        remaining=tuple(remaining),
        rejected=tuple(rejected),
    )
    return tuple(survivors), report, tuple(fingerprints[s] for s in survivors)


@dataclass(frozen=True)
class ClusterAssignment:
    k: int
    labels: tuple[int, ...]
    medoids: tuple[int, ...]  # medoids[c] indexes the clustered sequence
    objective_trace: tuple[float, ...]  # summed point-to-medoid distance per iteration

    def __post_init__(self):
        if len(self.medoids) != self.k:
            raise FilterError("one medoid per cluster required")
        if any(not 0 <= label < self.k for label in self.labels):
            raise FilterError("cluster label out of range")
        for cluster, medoid in enumerate(self.medoids):
            if self.labels[medoid] != cluster:
                raise FilterError("medoid must belong to its own cluster")


def distance_matrix(fingerprints) -> np.ndarray:
    """Pairwise Jaccard distances 1 - tanimoto; the diagonal is zero."""
    words = pack(fingerprints)
    out = tanimoto_matrix(words, words)
    return np.subtract(1.0, out, out=out)


def _farthest_point_seeds(distances: np.ndarray, k: int, seed: int) -> list[int]:
    n = distances.shape[0]
    rng = random.Random(seed)
    seeds = [rng.randrange(n)]
    while len(seeds) < k:
        nearest = distances[:, seeds].min(axis=1)
        nearest[seeds] = -1.0  # never reselect
        seeds.append(int(np.argmax(nearest)))  # argmax ties break to lowest index
    return seeds


def cluster_tanimoto(fingerprints, k: int = 100, seed: int = 0,
                     max_iterations: int = 100) -> ClusterAssignment:
    """K-medoids in Tanimoto space: assign to the nearest medoid, then
    move each medoid to the member minimizing summed intra-cluster
    distance, until assignments stop changing."""
    n = len(fingerprints)
    if n < k:
        raise FilterError(f"cannot form {k} clusters from {n} molecules")
    if k < 1:
        raise FilterError("k must be positive")
    distances = distance_matrix(fingerprints)
    medoids = _farthest_point_seeds(distances, k, seed)
    labels = None
    trace = []
    for _ in range(max_iterations):
        new_labels = np.argmin(distances[:, medoids], axis=1)
        for cluster, medoid in enumerate(medoids):
            new_labels[medoid] = cluster  # a medoid stays home on distance ties
        trace.append(float(distances[np.arange(n), [medoids[c] for c in new_labels]].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in range(k):
            members = np.flatnonzero(labels == cluster)
            within = distances[np.ix_(members, members)].sum(axis=1)
            medoids[cluster] = int(members[np.argmin(within)])
    return ClusterAssignment(
        k=k,
        labels=tuple(int(c) for c in labels),
        medoids=tuple(medoids),
        objective_trace=tuple(trace),
    )


def cluster_similarity_histogram(assignment: ClusterAssignment, fingerprints):
    """All pairwise similarities split into within-cluster and
    across-cluster float64 arrays, each in (i, j) order with i < j. Both
    are allocated at their exact sizes (within: the sum of C(size, 2) over
    the clusters) and filled a few rows at a time against the columns
    right of them, so no n x n matrix is held."""
    n = len(fingerprints)
    if len(assignment.labels) != n:
        raise FilterError("assignment does not match the fingerprint list")
    labels = np.asarray(assignment.labels, dtype=np.intp)
    sizes = np.bincount(labels, minlength=assignment.k)
    n_intra = int((sizes * (sizes - 1) // 2).sum())
    intra = np.empty(n_intra)
    inter = np.empty(n * (n - 1) // 2 - n_intra)
    n_intra = n_inter = 0
    words = pack(fingerprints)
    block = 8
    for start in range(0, n, block):
        similarities = tanimoto_matrix(words[start:start + block], words[start + 1:])
        for offset, row in enumerate(similarities):
            i = start + offset
            row = row[offset:]  # columns j > i
            same = labels[i + 1:] == labels[i]
            within = row[same]
            across = row[~same]
            intra[n_intra : n_intra + len(within)] = within
            inter[n_inter : n_inter + len(across)] = across
            n_intra += len(within)
            n_inter += len(across)
    return intra, inter


def select_representatives(assignment: ClusterAssignment, fingerprints):
    """Per cluster: members ranked by distance to the medoid, medoid
    first. Input for the human picking one molecule per cluster."""
    words = pack(fingerprints)
    labels = np.asarray(assignment.labels)
    distances = 1.0 - tanimoto_matrix(words[list(assignment.medoids)], words)
    ranked = []
    for cluster, medoid in enumerate(assignment.medoids):
        # members ascend, so the stable sort breaks distance ties by index
        members = np.flatnonzero(labels == cluster)
        order = np.argsort(distances[cluster, members], kind="stable")
        ranked.append((medoid, tuple(members[order].tolist())))
    return tuple(ranked)


def novelty(fingerprints, references) -> tuple[float, ...]:
    """Per molecule, the maximum Tanimoto similarity to any reference."""
    references = list(references)
    if not references:
        raise FilterError("reference set is empty")
    best = tanimoto_matrix(pack(fingerprints), pack(references)).max(axis=1)
    return tuple(best.tolist())


def is_novel(score: float) -> bool:
    return score < NOVELTY_THRESHOLD


def write_filter_report(report: FilterReport, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("stage\tremaining\trejected\n")
        handle.write(f"input\t{report.total}\t0\n")
        for stage, kept, dropped in zip(report.stages, report.remaining, report.rejected):
            handle.write(f"{stage}\t{kept}\t{dropped}\n")


def write_cluster_assignment(assignment: ClusterAssignment, names, path):
    if len(names) != len(assignment.labels):
        raise FilterError("one name per clustered molecule required")
    medoid_set = set(assignment.medoids)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("molecule\tcluster\tis_medoid\n")
        for index, (name, label) in enumerate(zip(names, assignment.labels)):
            flag = 1 if index in medoid_set else 0
            handle.write(f"{name}\t{label}\t{flag}\n")


def write_similarity_histogram(intra, inter, path):
    """One `kind similarity` row per pair, the value written with '.6g'.

    The pairs of a clustering take few distinct values, so each distinct
    value is formatted once. Values are read HISTOGRAM_CHUNK at a time,
    so only one chunk is ever held as Python floats. Keying by float is
    exact here: the one pair of unequal strings a float key merges, 0 and
    -0, cannot occur, since no similarity is negative zero.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("kind\tsimilarity\n")
        for kind, values in (("intra", intra), ("inter", inter)):
            values = np.asarray(values, dtype=np.float64)
            lines: dict[float, str] = {}
            for start in range(0, len(values), HISTOGRAM_CHUNK):
                chunk = values[start : start + HISTOGRAM_CHUNK].tolist()
                for value in set(chunk).difference(lines):
                    lines[value] = f"{kind}\t{format(value, '.6g')}\n"
                handle.writelines(map(lines.__getitem__, chunk))
