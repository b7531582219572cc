"""Output checks for the benchmark workloads.

Each check compares a program output with a value computed apart from
the program, or tests a property the method must have. A check returns
the set of failed items (rollouts, input molecules or CSV rows); ALL
marks a failure that cannot be pinned to single items.

Independent pieces: union-find sp2 sizes, packed-bit Tanimoto in numpy,
a numpy forward pass over the checkpoint arrays, the CV split and the
ROC AUC. Parsing and fingerprinting use the program's functions; the
canonical-SMILES check exercises those through random atom orders.
"""

from __future__ import annotations

import csv
import random

import numpy as np

from fluorgen.fingerprints import FP_BITS, morgan_fingerprint
from fluorgen.generator import parse_route, replay_route
from fluorgen.molgraph import Atom, Bond, Hybridization, MolecularGraph, perceive_hybridization
from fluorgen.smiles import parse_smiles, write_canonical_smiles

ALL = "all"
SP2_TARGET = 12
TOL = 2e-5  # outputs carry 6 significant digits


def read_tsv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle, delimiter="\t"))


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# independent computations


def sp2_oracle(graph: MolecularGraph) -> int:
    """Largest sp2-connected cluster by union-find."""
    graph = perceive_hybridization(graph)
    sp2 = [atom.hybridization is Hybridization.SP2 for atom in graph.atoms]
    parent = list(range(len(graph)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for bond in graph.bonds:
        if sp2[bond.a1] and sp2[bond.a2]:
            parent[find(bond.a1)] = find(bond.a2)
    sizes: dict[int, int] = {}
    for i, flag in enumerate(sp2):
        if flag:
            root = find(i)
            sizes[root] = sizes.get(root, 0) + 1
    return max(sizes.values(), default=0)


def permuted(graph: MolecularGraph, rng: random.Random) -> MolecularGraph:
    """The same molecule with its atoms in a random order."""
    order = list(range(len(graph)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    atoms = tuple(
        Atom(
            index=new,
            element=graph.atoms[old].element,
            aromatic=graph.atoms[old].aromatic,
            formal_charge=graph.atoms[old].formal_charge,
            explicit_h=graph.atoms[old].explicit_h,
        )
        for new, old in enumerate(order)
    )
    bonds = [Bond(new_index[b.a1], new_index[b.a2], b.order) for b in graph.bonds]
    rng.shuffle(bonds)
    return MolecularGraph(atoms, tuple(bonds))


def packed(fingerprints) -> np.ndarray:
    """(n, 32) uint64 rows of 2048-bit fingerprints."""
    nbytes = FP_BITS // 8
    raw = b"".join(fp.bits.to_bytes(nbytes, "little") for fp in fingerprints)
    return np.frombuffer(raw, dtype="<u8").reshape(len(fingerprints), nbytes // 8)


def tanimoto_matrix(a: np.ndarray, b: np.ndarray, block: int = 32) -> np.ndarray:
    out = np.empty((len(a), len(b)))
    for start in range(0, len(a), block):
        rows = a[start : start + block, None, :]
        inter = np.bitwise_count(rows & b[None, :, :]).sum(axis=2)
        union = np.bitwise_count(rows | b[None, :, :]).sum(axis=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[start : start + block] = np.where(union == 0, 1.0, inter / union)
    return out


def feature_matrix(fingerprints, solvents) -> np.ndarray:
    bits = np.unpackbits(packed(fingerprints).view(np.uint8), axis=1, bitorder="little")
    return np.hstack([bits.astype(np.float64), np.asarray(solvents, dtype=np.float64)])


def forward(weights, features: np.ndarray) -> np.ndarray:
    """Checkpoint prediction from the saved arrays alone."""
    x = features.copy()
    x[:, -4:] = (x[:, -4:] - weights["norm_mean"]) / weights["norm_std"]
    hidden = np.maximum(np.einsum("hi,ni->nh", weights["w1"], x) + weights["b1"], 0.0)
    out = hidden @ weights["w2"] + float(weights["b2"])
    if str(weights["head"]) == "sigmoid":
        return 1.0 / (1.0 + np.exp(-out))
    return out


def load_weights(path: str) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def roc_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def cv_test_blocks(n: int, folds: int, seed: int) -> list[list[int]]:
    """Test index block of each fold: one seeded shuffle, then contiguous
    blocks, the first n % folds of them one longer."""
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    base, extra = divmod(n, folds)
    blocks, start = [], 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        blocks.append(indices[start : start + size])
        start += size
    return blocks


# ---------------------------------------------------------------------------
# generate


def check_generate(out_dir: str, n_rollouts: int, library, templates, seed: int) -> dict:
    molecules = read_tsv(f"{out_dir}/molecules.tsv")
    log = read_tsv(f"{out_dir}/run_log.tsv")
    usage = read_tsv(f"{out_dir}/reaction_usage.tsv")
    rng = random.Random(seed)
    failures = {
        "unique_smiles": set(),
        "canonical_invariance": set(),
        "route_replay": set(),
        "sp2_oracle": set(),
        "combined_score": set(),
        "run_log_counts": set(),
    }
    seen: dict[str, int] = {}
    log_weights = {
        int(row["rollout"]): [float(row[k]) for k in ("w_plqy", "w_abs", "w_em", "w_sp2")]
        for row in log
    }
    for row in molecules:
        rollout = int(row["rollout"])
        smiles = row["smiles"]
        if smiles in seen:
            failures["unique_smiles"].update((rollout, seen[smiles]))
        seen[smiles] = rollout
        graph = parse_smiles(smiles)
        rewrites = [write_canonical_smiles(graph)]
        rewrites += [write_canonical_smiles(permuted(graph, rng)) for _ in range(2)]
        if any(text != smiles for text in rewrites):
            failures["canonical_invariance"].add(rollout)
        try:
            replayed = replay_route(parse_route(row["route"]), library, templates)
        except ValueError:
            replayed = None
        if replayed != smiles:
            failures["route_replay"].add(rollout)
        expected_sp2 = min(sp2_oracle(graph) / SP2_TARGET, 1.0)
        if not close(float(row["m_sp2"]), expected_sp2):
            failures["sp2_oracle"].add(rollout)
        weights = log_weights.get(rollout - 1, [0.25] * 4)  # uniform before rollout 0
        scores = [float(row[k]) for k in ("m_plqy", "m_abs", "m_em", "m_sp2")]
        if not close(float(row["p"]), sum(w * m for w, m in zip(weights, scores))):
            failures["combined_score"].add(rollout)

    statuses = [row["status"] for row in log]
    template_counts: dict[str, int] = {}
    for row in molecules:
        for step in parse_route(row["route"]):
            template_counts[step.template_id] = template_counts.get(step.template_id, 0) + 1
    counts_ok = (
        len(log) == n_rollouts
        and [int(row["rollout"]) for row in log] == list(range(n_rollouts))
        and statuses.count("ok") == len(molecules)
        and statuses.count("ok") + statuses.count("duplicate") + statuses.count("dead")
        == n_rollouts
        and {row["template"]: int(row["count"]) for row in usage} == template_counts
    )
    if not counts_ok:
        failures["run_log_counts"] = ALL
    return failures


# ---------------------------------------------------------------------------
# filter


def check_filter(out_dir: str, inputs, references, checkpoints: dict, solvent,
                 thresholds) -> dict:
    """inputs and references: SMILES in file order; checkpoints: task ->
    weights; thresholds: the program's FilterThresholds."""
    failures = {
        "stage_counts": set(),
        "nearest_medoid": set(),
        "medoid_optimal": set(),
        "histogram_pairs": set(),
        "novelty_max": set(),
    }
    report = read_tsv(f"{out_dir}/filter_report.tsv")
    survivors = [row["smiles"] for row in read_tsv(f"{out_dir}/survivors.tsv")]
    fps = [morgan_fingerprint(parse_smiles(s)) for s in inputs]
    features = feature_matrix(fps, [solvent] * len(inputs))
    plqy = forward(checkpoints["plqy_class"], features)
    absorption = forward(checkpoints["abs_reg"], features)
    emission = forward(checkpoints["em_reg"], features)
    low, high = thresholds.window_min_nm, thresholds.window_max_nm
    # A value within 1e-9 of a threshold may fall either way under a
    # different summation order; such a molecule is not held against
    # the program.
    fate: list[int | None] = []  # stage a molecule fails, 4 for survivors
    for i, smiles in enumerate(inputs):
        margins = [
            sp2_oracle(parse_smiles(smiles)) - thresholds.sp2_min + 0.5,
            plqy[i] - thresholds.plqy_min,
            min(absorption[i] - low, high - absorption[i]),
            min(emission[i] - low, high - emission[i]),
        ]
        stage = 4
        for position, margin in enumerate(margins):
            if abs(margin) <= 1e-9:
                stage = None
                break
            if margin < 0:
                stage = position
                break
        fate.append(stage)
    survivor_set = set(survivors)
    for i, smiles in enumerate(inputs):
        if fate[i] is not None and (fate[i] == 4) != (smiles in survivor_set):
            failures["stage_counts"].add(i)
    if None not in fate:
        remaining = len(inputs)
        expected = []
        for stage in range(4):
            remaining -= fate.count(stage)
            expected.append(remaining)
        reported = [int(row["remaining"]) for row in report[1:]]
        if reported != expected or int(report[0]["remaining"]) != len(inputs):
            failures["stage_counts"] = ALL
    index_of = {smiles: i for i, smiles in enumerate(inputs)}
    if any(s not in index_of for s in survivors):
        failures["stage_counts"] = ALL
        return failures
    items = [index_of[s] for s in survivors]
    if not survivors:
        return failures

    rows = read_tsv(f"{out_dir}/clusters.tsv")
    labels = np.array([int(row["cluster"]) for row in rows])
    medoid_flags = [row["is_medoid"] == "1" for row in rows]
    if [row["molecule"] for row in rows] != survivors:
        failures["nearest_medoid"] = ALL
        return failures
    k = int(labels.max()) + 1
    medoids = [None] * k
    for index, (label, flag) in enumerate(zip(labels, medoid_flags)):
        if flag:
            if medoids[label] is not None:
                failures["nearest_medoid"] = ALL
            medoids[label] = index
    if any(m is None for m in medoids):
        failures["nearest_medoid"] = ALL
        return failures
    words = packed([fps[i] for i in items])
    distances = 1.0 - tanimoto_matrix(words, words)
    np.fill_diagonal(distances, 0.0)
    to_medoids = distances[:, medoids]
    own = to_medoids[np.arange(len(items)), labels]
    for index in np.flatnonzero(own > to_medoids.min(axis=1) + 1e-12):
        failures["nearest_medoid"].add(items[index])
    for cluster, medoid in enumerate(medoids):
        members = np.flatnonzero(labels == cluster)
        within = distances[np.ix_(members, members)].sum(axis=1)
        if within[list(members).index(medoid)] > within.min() + 1e-9:
            failures["medoid_optimal"].update(items[m] for m in members)

    n = len(items)
    intra_count = 0
    intra_sum = 0.0
    for cluster in range(k):
        members = np.flatnonzero(labels == cluster)
        size = len(members)
        intra_count += size * (size - 1) // 2
        intra_sum += (size * size - distances[np.ix_(members, members)].sum() - size) / 2.0
    inter_sum = (n * n - distances.sum() - n) / 2.0 - intra_sum
    got = {"intra": [0, 0.0], "inter": [0, 0.0]}
    with open(f"{out_dir}/similarity_histogram.tsv", encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            kind, _, value = line.rstrip("\n").partition("\t")
            got[kind][0] += 1
            got[kind][1] += float(value)
    pairs_ok = (
        got["intra"][0] + got["inter"][0] == n * (n - 1) // 2
        and got["intra"][0] == intra_count
        and abs(got["intra"][1] - intra_sum) <= 1e-5 * max(1, intra_count)
        and abs(got["inter"][1] - inter_sum) <= 1e-5 * max(1, n * n)
    )
    if not pairs_ok:
        failures["histogram_pairs"] = ALL

    novelty_rows = read_tsv(f"{out_dir}/novelty.tsv")
    reference_words = packed([morgan_fingerprint(parse_smiles(s)) for s in references])
    best = tanimoto_matrix(words, reference_words).max(axis=1)
    if [row["smiles"] for row in novelty_rows] != survivors:
        failures["novelty_max"] = ALL
        return failures
    for position, row in enumerate(novelty_rows):
        value = float(row["max_similarity"])
        if not close(value, float(best[position])) or row["novel"] != ("1" if value < 0.5 else "0"):
            failures["novelty_max"].add(items[position])
    return failures


# ---------------------------------------------------------------------------
# train


def _fold_metrics(path: str) -> list[float]:
    values = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            key, _, value = line.rstrip("\n").partition("\t")
            if key.isdigit():
                values.append(float(value))
    return values


def check_train(out_dir: str, checkpoint_dir: str, records, manifest: dict,
                folds: int, split_seed: int) -> dict:
    """records: the IngestResult records the program produced."""
    failures = {
        "rejected_rows": set(),
        "dedup_records": set(),
        "checkpoint_metric": set(),
        "plqy_auc": set(),
    }
    rejected_lines = set()
    with open(f"{out_dir}/rejected_rows.txt", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("line "):
                rejected_lines.add(int(line[5:].split(":", 1)[0]))
    planted = set(manifest["bad_lines"])
    # CSV line n is data row n - 2 (line 1 is the header)
    failures["rejected_rows"].update(line - 2 for line in rejected_lines ^ planted)

    def signature(groups: dict) -> tuple:
        return tuple(sorted(
            (tuple(solvent), tuple(None if v is None else round(v, 6) for v in values))
            for solvent, values in groups.items()
        ))

    expected: dict[tuple, list[int]] = {}
    for molecule in manifest["molecules"]:
        groups = {tuple(s): v for s, v in molecule["groups"]}
        expected.setdefault(signature(groups), []).extend(molecule["rows"])
    found: dict[str, dict] = {}
    for record in records:
        solvent = record.solvent.as_tuple() if record.solvent is not None else None
        found.setdefault(record.smiles, {})[solvent] = (
            record.plqy, record.absorption_nm, record.emission_nm)
    found_signatures: dict[tuple, int] = {}
    for groups in found.values():
        key = signature(groups)
        found_signatures[key] = found_signatures.get(key, 0) + 1
    for key, rows in expected.items():
        if found_signatures.get(key, 0) != 1:
            failures["dedup_records"].update(rows)
    if len(found) != len(manifest["molecules"]):
        failures["dedup_records"] = ALL

    tasks = (("plqy_class", 0), ("abs_reg", 1), ("em_reg", 2))
    for task, column in tasks:
        usable = [
            r for r in records
            if r.solvent is not None
            and (r.plqy, r.absorption_nm, r.emission_nm)[column] is not None
        ]
        values = np.array([(r.plqy, r.absorption_nm, r.emission_nm)[column] for r in usable])
        labels = (values > 0.5).astype(float) if column == 0 else values
        fps = [morgan_fingerprint(parse_smiles(r.smiles)) for r in usable]
        features = feature_matrix(fps, [r.solvent.as_tuple() for r in usable])
        reported = _fold_metrics(f"{out_dir}/cv_{task}.txt")
        if len(reported) != folds:
            failures["checkpoint_metric"] = ALL
            continue
        best = int(np.argmax(reported)) if column == 0 else int(np.argmin(reported))
        test = cv_test_blocks(len(usable), folds, split_seed)[best]
        predictions = forward(load_weights(f"{checkpoint_dir}/{task}.npz"), features[test])
        if column == 0:
            metric = roc_auc(predictions, labels[test])
        else:
            metric = float(np.mean(np.abs(predictions - labels[test])))
        if not close(metric, reported[best]):
            failures["checkpoint_metric"] = ALL
        if column == 0 and not float(np.mean(reported)) >= 0.75:
            failures["plqy_auc"] = ALL
    return failures


def count_failed(failures: dict, n_items: int) -> int:
    failed: set = set()
    for items in failures.values():
        if items == ALL:
            return n_items
        failed |= items
    return len(failed)


def failing_checks(failures: dict) -> list[str]:
    return [name for name, items in failures.items() if items]
