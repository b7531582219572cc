"""Post-generation screening: staged property filters, Tanimoto-space
clustering, and novelty against a reference set."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from fluorgen.fingerprints import (
    QUERY_TILE,
    SolventFeatures,
    TanimotoIndex,
    morgan_fingerprints,
    popcounts,
    tanimoto_counts,
    tanimoto_values,
)
from fluorgen.molgraph import sp2_network_size
from fluorgen.scorers import property_stack, score_rows
from fluorgen.smiles import SmilesError, parse_smiles

NOVELTY_THRESHOLD = 0.5

# pairs whose lines are joined into one write of the raw histogram
HISTOGRAM_CHUNK = 1 << 16
# bin edges of the binned similarity histogram: 100 bins of width 0.01
HISTOGRAM_BINS = np.linspace(0, 1, 101)
HISTOGRAM_KINDS = ("intra", "inter")
# Rows per block of the across-cluster pair sweep, one index query each.
# On the benchmark's filter 32 rows swept 2 ms faster than 16, but each
# block's chunk goes to the histogram writer whole, and a `fluorgen filter`
# peaked 2 MB higher; 8 rows swept 6 ms slower.
PAIR_BLOCK = 16
# k-medoids stops after this many assignment passes if it has not settled
CLUSTER_ITERATIONS = 100


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

    def __post_init__(self):
        if self.sp2_min < 0:
            raise FilterError("filters.sp2_min must be at least 0")
        if not 0.0 <= self.plqy_min <= 1.0:
            raise FilterError("filters.plqy_min must lie in [0,1]")
        if self.window_min_nm > self.window_max_nm:
            raise FilterError("filters.window_min_nm must not exceed filters.window_max_nm")

    def in_window(self, nm: float) -> bool:
        return self.window_min_nm <= nm <= self.window_max_nm


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
    of MORGAN_CHUNK graphs is fingerprinted. The distinct sp2 survivors are
    scored by one score_rows call against property_stack, every model in
    one CSR product per block of rows, and the three model stages apply
    its columns in order as masks; with no sp2 survivor no model is read.
    Returns (surviving smiles, FilterReport, survivor fingerprints as
    packed rows in survivor order)."""
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

    words = morgan_fingerprints(sp2_graphs())
    row_of = {smiles: row for row, smiles in enumerate(sp2_passed)}
    keep(row_of)

    # one test per PROPERTY_MODELS column
    window = thresholds.in_window
    tests = (lambda probability: probability >= thresholds.plqy_min, window, window)
    outputs = np.empty((0, len(tests)))
    if sp2_passed:  # with nothing left, no scorer is needed
        outputs = score_rows(property_stack(scorers), words, solvent)
    for ok, values in zip(tests, outputs.T.tolist()):
        keep({s for s, value in zip(sp2_passed, values) if ok(value)})
    report = FilterReport(
        stages=FILTER_STAGES,
        total=total,
        remaining=tuple(remaining),
        rejected=tuple(rejected),
    )
    return tuple(survivors), report, words[[row_of[s] for s in survivors]]


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


def _distances(similarities: np.ndarray) -> np.ndarray:
    """Jaccard distances 1 - tanimoto, in place of the similarities."""
    return np.subtract(1.0, similarities, out=similarities)


def distance_matrix(words: np.ndarray) -> np.ndarray:
    """Pairwise Jaccard distances 1 - tanimoto of packed rows; zero diagonal.

    Nothing in the package calls this any more: clustering reads distance
    blocks on demand. It stays as a public entry point, which the
    benchmark's tracer watches and the tests use as a reference."""
    return _distances(tanimoto_values(*tanimoto_counts(words, words)))


def _farthest_point_seeds(index: TanimotoIndex, words: np.ndarray, k: int, seed: int) -> list[int]:
    n = len(words)
    rng = random.Random(seed)
    seeds = [rng.randrange(n)]
    # distance to the nearest seed so far, folded in one seed row at a time
    nearest = np.full(n, np.inf)
    while len(seeds) < k:
        np.minimum(nearest, _distances(index.similarity(words[seeds[-1:]]))[0], out=nearest)
        nearest[seeds[-1]] = -1.0  # never reselect
        seeds.append(int(np.argmax(nearest)))  # argmax ties break to lowest index
    return seeds


def cluster_tanimoto(words: np.ndarray, k: int, seed: int) -> ClusterAssignment:
    """K-medoids in Tanimoto space: assign to the nearest medoid, then
    move each medoid to the member minimizing summed intra-cluster
    distance, until assignments stop changing or CLUSTER_ITERATIONS
    passes have run.

    Distances are computed on demand: the seeds and every assignment
    query one TanimotoIndex of the words, built once, for a k x n block,
    and each medoid update sums a QUERY_TILE x members tanimoto_counts
    block at a time, so memory is O(n k) at any cluster size, never
    n x n. A pass updates only the clusters whose members changed."""
    n = len(words)
    if n < k:
        raise FilterError(f"cannot form {k} clusters from {n} molecules")
    if k < 1:
        raise FilterError("k must be positive")
    index = TanimotoIndex(words)
    medoids = _farthest_point_seeds(index, words, k, seed)
    labels = None
    trace = []
    molecules = np.arange(n)
    for _ in range(CLUSTER_ITERATIONS):
        to_medoids = _distances(index.similarity(words[medoids]))
        new_labels = np.argmin(to_medoids, axis=0)
        for cluster, medoid in enumerate(medoids):
            new_labels[medoid] = cluster  # a medoid stays home on distance ties
        trace.append(float(to_medoids[new_labels, molecules].sum()))
        if labels is None:
            moved = range(k)
        else:
            # the same members give the same medoid, so only a cluster a
            # molecule left or joined is updated
            changed = new_labels != labels
            if not changed.any():
                break
            moved = np.union1d(labels[changed], new_labels[changed]).tolist()
        labels = new_labels
        for cluster in moved:
            members = np.flatnonzero(labels == cluster)
            block = words[members]
            within = np.empty(len(block))
            for first in range(0, len(block), QUERY_TILE):
                last = first + QUERY_TILE
                tile = _distances(tanimoto_values(*tanimoto_counts(block[first:last], block)))
                within[first:last] = tile.sum(axis=1)
            medoids[cluster] = int(members[np.argmin(within)])
    return ClusterAssignment(
        k=k,
        labels=tuple(int(c) for c in labels),
        medoids=tuple(medoids),
        objective_trace=tuple(trace),
    )


def cluster_similarity_histogram(assignment: ClusterAssignment, words: np.ndarray):
    """Every pair i < j as (kind, inter, union) chunks in file order: the
    within-cluster ("intra") pairs in (i, j) order, then the
    across-cluster ("inter") pairs in (i, j) order. inter and union are
    equal-length int32 arrays of the pairs' intersection and union
    popcounts; a pair's similarity is tanimoto_values(inter, union).

    Each kind is one sweep of PAIR_BLOCK rows at a time against the
    columns right of them, each block one pair_counts query of a
    TanimotoIndex of the words and one chunk: the pairs whose labels
    agree, or differ. So no n x n matrix and no array of all pairs is
    held, whatever the cluster sizes. The length check runs at call
    time; the chunks are computed as they are read."""
    if len(assignment.labels) != len(words):
        raise FilterError("assignment does not match the fingerprint list")
    return _pair_count_chunks(np.asarray(assignment.labels, dtype=np.intp), words)


def _pair_count_chunks(labels: np.ndarray, words: np.ndarray):
    index = TanimotoIndex(words)
    n = len(words)
    for kind, kept in zip(HISTOGRAM_KINDS, (np.equal, np.not_equal)):
        for start in range(0, n, PAIR_BLOCK):
            stop = min(start + PAIR_BLOCK, n)
            inter, union = index.pair_counts(words[start:stop], start + 1)
            rows = np.arange(start, stop)[:, None]
            columns = np.arange(start + 1, n)
            pairs = (columns > rows) & kept(labels[columns], labels[rows])
            yield kind, inter[pairs], union[pairs]


def select_representatives(assignment: ClusterAssignment, words: np.ndarray):
    """Per cluster: members ranked by distance to the medoid, medoid
    first. Input for the human picking one molecule per cluster. Each
    row is counted against its own medoid's row only: n pairs, not k x n."""
    labels = np.asarray(assignment.labels)
    medoid_rows = words[np.asarray(assignment.medoids)[labels]]
    inter = popcounts(words & medoid_rows)
    union = popcounts(words) + popcounts(medoid_rows) - inter
    distances = _distances(tanimoto_values(inter, union))
    ranked = []
    for cluster, medoid in enumerate(assignment.medoids):
        # members ascend, so the stable sort breaks distance ties by index
        members = np.flatnonzero(labels == cluster)
        order = np.argsort(distances[members], kind="stable")
        ranked.append((medoid, tuple(members[order].tolist())))
    return tuple(ranked)


def novelty(words: np.ndarray, references: np.ndarray) -> tuple[float, ...]:
    """Per packed row, the maximum Tanimoto similarity to any reference row."""
    if len(references) == 0:
        raise FilterError("reference set is empty")
    best = TanimotoIndex(references).similarity(words).max(axis=1)
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


def _pair_keys(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """One integer per distinct (inter, union), inter <= union:
    union * (union + 1) / 2 + inter, dense from (0, 0) at key 0. A union
    is at most FP_BITS, so every key fits int32."""
    return (union * (union + 1) >> 1) + inter


def _key_values(keys: np.ndarray) -> np.ndarray:
    """The similarity of each _pair_keys key. The union is the largest u
    with u * (u + 1) / 2 <= key, (isqrt(8 key + 1) - 1) // 2; the float
    square root's floor is isqrt's while 8 key + 1 stays far below 2**52."""
    union = (np.sqrt(8 * keys + 1).astype(np.int64) - 1) >> 1
    return tanimoto_values(keys - (union * (union + 1) >> 1), union)


def write_similarity_histogram(chunks, path) -> dict[str, np.ndarray]:
    """One `kind similarity` row per pair of the (kind, inter, union)
    chunks, in the order given, the similarity written with '.6g'.
    Returns per kind the counts over HISTOGRAM_BINS, summed across the
    chunks.

    No float is sorted or formatted per pair. Each pair is keyed by
    _pair_keys into a per-kind table that grows to the largest key seen:
    a key's line is formatted the first time it occurs, and the table
    counts the key's pairs. A chunk is written HISTOGRAM_CHUNK pairs at a
    time, as one join of the lines its keys pick. The binned counts are
    one histogram of the distinct keys' similarities, weighted by their
    pair counts: the same floats the pairs have, so the same bins.
    """
    totals = {kind: np.zeros(0, dtype=np.int64) for kind in HISTOGRAM_KINDS}
    lines = {kind: np.empty(0, dtype=object) for kind in HISTOGRAM_KINDS}
    with open(path, "wb") as handle:
        handle.write(b"kind\tsimilarity\n")
        for kind, inter, union in chunks:
            keys = _pair_keys(np.asarray(inter, np.int32), np.asarray(union, np.int32))
            seen = np.bincount(keys)
            grow = len(seen) - len(totals[kind])
            if grow > 0:
                totals[kind] = np.concatenate([totals[kind], np.zeros(grow, np.int64)])
                lines[kind] = np.concatenate([lines[kind], np.empty(grow, object)])
            total, line = totals[kind][: len(seen)], lines[kind]
            new = np.flatnonzero((seen > 0) & (total == 0))
            if len(new):
                for key, value in zip(new.tolist(), _key_values(new).tolist()):
                    line[key] = f"{kind}\t{format(value, '.6g')}\n".encode()
            total += seen
            for start in range(0, len(keys), HISTOGRAM_CHUNK):
                handle.write(b"".join(line.take(keys[start : start + HISTOGRAM_CHUNK]).tolist()))
    counts = {}
    for kind, total in totals.items():
        keys = np.flatnonzero(total)
        counts[kind] = np.histogram(_key_values(keys), HISTOGRAM_BINS, weights=total[keys])[0]
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
