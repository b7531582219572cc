"""Post-generation screening: staged property filters, Tanimoto-space
clustering, and novelty against a reference set."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from fluorgen.fingerprints import (
    SolventFeatures,
    morgan_fingerprints,
    pack,
    tanimoto_matrix,
)
from fluorgen.molgraph import sp2_network_size
from fluorgen.scorers import ScorerKind, ScoreStack, score_rows
from fluorgen.smiles import SmilesError, parse_smiles

NOVELTY_THRESHOLD = 0.5

# pair similarities converted to Python floats at a time when writing
HISTOGRAM_CHUNK = 1 << 16
# bin edges of the binned similarity histogram: 100 bins of width 0.01
HISTOGRAM_BINS = np.linspace(0, 1, 101)
HISTOGRAM_KINDS = ("intra", "inter")
# rows per block of the across-cluster pair sweep
PAIR_BLOCK = 8


class FilterError(ValueError):
    pass


class UnparsableSmiles(FilterError):
    """A filter input that does not parse; smiles is the offending string."""

    def __init__(self, smiles: str, reason: SmilesError):
        super().__init__(f"{smiles!r}: {reason}")
        self.smiles = smiles


def parse_molecule(smiles: str):
    """parse_smiles, failing with UnparsableSmiles, which names the input."""
    try:
        return parse_smiles(smiles)
    except SmilesError as exc:
        raise UnparsableSmiles(smiles, exc) from None


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
    stage it fails. Each distinct SMILES is parsed once. A graph lives
    until its sp2 size is taken or, for an sp2 survivor, until its chunk
    of MORGAN_CHUNK graphs is fingerprinted. Each model stage scores its
    distinct survivors with score_rows against a ScoreStack of the stage's
    model, one CSR product per block of rows. Returns (surviving smiles,
    FilterReport, survivor fingerprints in survivor order)."""
    survivors = list(smiles_list)
    total = len(survivors)
    remaining = []
    rejected = []

    def keep(passed):
        nonlocal survivors
        kept = [s for s in survivors if s in passed]
        rejected.append(len(survivors) - len(kept))
        remaining.append(len(kept))
        survivors = kept

    sp2_passed: list[str] = []  # distinct sp2 survivors, in parse order

    def sp2_graphs():
        for smiles in dict.fromkeys(survivors):
            graph = parse_molecule(smiles)
            if sp2_network_size(graph) >= thresholds.sp2_min:
                sp2_passed.append(smiles)
                yield graph

    fps = morgan_fingerprints(sp2_graphs())
    fingerprints = dict(zip(sp2_passed, fps, strict=True))
    keep(fingerprints)

    def in_window(nm):
        return thresholds.window_min_nm <= nm <= thresholds.window_max_nm

    stages = (
        (ScorerKind.PLQY_PROB, lambda probability: probability >= thresholds.plqy_min),
        (ScorerKind.ABS_NM, in_window),
        (ScorerKind.EM_NM, in_window),
    )
    for kind, ok in stages:
        distinct = list(dict.fromkeys(survivors))
        passed = set()
        if distinct:  # with nothing left, no scorer is needed
            stack = ScoreStack([scorers[kind].model])
            values = score_rows(stack, pack(fingerprints[s] for s in distinct), solvent)
            passed = {s for s, value in zip(distinct, values[:, 0].tolist()) if ok(value)}
        keep(passed)
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


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jaccard distances 1 - tanimoto of packed rows a against packed
    rows b. tanimoto_matrix loops over a in 8-row blocks, so callers pass
    the smaller side as a."""
    out = tanimoto_matrix(a, b)
    return np.subtract(1.0, out, out=out)


def distance_matrix(fingerprints) -> np.ndarray:
    """Pairwise Jaccard distances 1 - tanimoto; the diagonal is zero.

    Nothing in the package calls this any more: clustering reads distance
    blocks on demand. It stays as a public entry point, which the
    benchmark's tracer watches and the tests use as a reference."""
    words = pack(fingerprints)
    return _distances(words, words)


def _farthest_point_seeds(words: np.ndarray, k: int, seed: int) -> list[int]:
    n = len(words)
    rng = random.Random(seed)
    seeds = [rng.randrange(n)]
    # distance to the nearest seed so far, folded in one seed row at a time
    nearest = np.full(n, np.inf)
    while len(seeds) < k:
        np.minimum(nearest, _distances(words[seeds[-1:]], words)[0], out=nearest)
        nearest[seeds[-1]] = -1.0  # never reselect
        seeds.append(int(np.argmax(nearest)))  # argmax ties break to lowest index
    return seeds


def cluster_tanimoto(fingerprints, k: int = 100, seed: int = 0,
                     max_iterations: int = 100) -> ClusterAssignment:
    """K-medoids in Tanimoto space: assign to the nearest medoid, then
    move each medoid to the member minimizing summed intra-cluster
    distance, until assignments stop changing.

    Distances are computed on demand from the packed words: one k x n
    block per assignment and one members x members block per medoid
    update, so memory is O(n k + largest cluster squared), never n x n."""
    n = len(fingerprints)
    if n < k:
        raise FilterError(f"cannot form {k} clusters from {n} molecules")
    if k < 1:
        raise FilterError("k must be positive")
    words = pack(fingerprints)
    medoids = _farthest_point_seeds(words, k, seed)
    labels = None
    trace = []
    molecules = np.arange(n)
    for _ in range(max_iterations):
        to_medoids = _distances(words[medoids], words)
        new_labels = np.argmin(to_medoids, axis=0)
        for cluster, medoid in enumerate(medoids):
            new_labels[medoid] = cluster  # a medoid stays home on distance ties
        trace.append(float(to_medoids[new_labels, molecules].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in range(k):
            members = np.flatnonzero(labels == cluster)
            block = words[members]
            within = _distances(block, block).sum(axis=1)
            medoids[cluster] = int(members[np.argmin(within)])
    return ClusterAssignment(
        k=k,
        labels=tuple(int(c) for c in labels),
        medoids=tuple(medoids),
        objective_trace=tuple(trace),
    )


def cluster_similarity_histogram(assignment: ClusterAssignment, fingerprints):
    """Every pairwise similarity i < j as (kind, float64 chunk) pairs in
    file order: the within-cluster ("intra") pairs in (i, j) order, then
    the across-cluster ("inter") pairs in (i, j) order.

    The intra pairs come from one members x members block per cluster,
    sorted into (i, j) order; the inter pairs are swept PAIR_BLOCK rows at
    a time against the columns right of them, one chunk per block. So no
    n x n matrix and no array of all pairs is held. The length check runs
    at call time; the chunks are computed as they are read."""
    n = len(fingerprints)
    if len(assignment.labels) != n:
        raise FilterError("assignment does not match the fingerprint list")
    return _similarity_chunks(np.asarray(assignment.labels, dtype=np.intp), assignment.k,
                              pack(fingerprints))


def _similarity_chunks(labels: np.ndarray, k: int, words: np.ndarray):
    yield "intra", _intra_similarities(labels, k, words)
    n = len(words)
    for start in range(0, n, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, n)
        similarities = tanimoto_matrix(words[start:stop], words[start + 1:])
        rows = np.arange(start, stop)[:, None]
        columns = np.arange(start + 1, n)
        across = (columns > rows) & (labels[columns] != labels[rows])
        yield "inter", similarities[across]


def _intra_similarities(labels: np.ndarray, k: int, words: np.ndarray) -> np.ndarray:
    """Within-cluster similarities in (i, j) order, i < j: the upper
    triangle of each cluster's members x members block, keyed i * n + j
    and sorted."""
    n = len(words)
    keys = []
    values = []
    for cluster in range(k):
        members = np.flatnonzero(labels == cluster)
        block = words[members]
        upper = np.triu_indices(len(members), 1)
        values.append(tanimoto_matrix(block, block)[upper])
        keys.append(members[upper[0]] * n + members[upper[1]])
    return np.concatenate(values)[np.argsort(np.concatenate(keys))]


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


def write_similarity_histogram(chunks, path) -> dict[str, np.ndarray]:
    """One `kind similarity` row per value of the (kind, values) chunks,
    in the order given, the value written with '.6g'. Returns per kind
    the counts over HISTOGRAM_BINS, summed across the chunks.

    The pairs of a clustering take few distinct values, so each distinct
    value is formatted once. Values are read HISTOGRAM_CHUNK at a time,
    so only one chunk is ever held as Python floats. Keying by float is
    exact here: the one pair of unequal strings a float key merges, 0 and
    -0, cannot occur, since no similarity is negative zero.
    """
    counts = {kind: np.zeros(len(HISTOGRAM_BINS) - 1, dtype=np.int64) for kind in HISTOGRAM_KINDS}
    lines: dict[str, dict[float, str]] = {kind: {} for kind in HISTOGRAM_KINDS}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("kind\tsimilarity\n")
        for kind, values in chunks:
            values = np.asarray(values, dtype=np.float64)
            counts[kind] += np.histogram(values, HISTOGRAM_BINS)[0]
            formatted = lines[kind]
            for start in range(0, len(values), HISTOGRAM_CHUNK):
                chunk = values[start : start + HISTOGRAM_CHUNK].tolist()
                for value in set(chunk).difference(formatted):
                    formatted[value] = f"{kind}\t{format(value, '.6g')}\n"
                handle.writelines(map(formatted.__getitem__, chunk))
    return counts


def write_binned_histogram(counts, path):
    """One `kind bin_low bin_high count` row per kind and bin of
    HISTOGRAM_BINS; the last bin also holds similarity 1."""
    edges = [format(edge, ".6g") for edge in HISTOGRAM_BINS.tolist()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("kind\tbin_low\tbin_high\tcount\n")
        for kind in HISTOGRAM_KINDS:
            for low, high, count in zip(edges, edges[1:], counts[kind].tolist()):
                handle.write(f"{kind}\t{low}\t{high}\t{count}\n")
