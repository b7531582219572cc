"""Show that every output check catches a corrupted output.

    python3 perfbench/selfcheck.py [--seed 1] [workload ...]

Run from the repository root. For each workload it runs one operation, checks
the clean output (every check must pass), then applies one corruption per
check to a copy of the output and confirms that the check it targets
reports a failure. Exits 1 if a clean output fails or a corruption goes
unnoticed.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import shutil
import sys
import tempfile

import run  # sets the thread and environment settings before numpy loads


def _rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        return [row for row in reader]


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write("\t".join(row) + "\n")


def _edit(path, change):
    rows = _rows(path)
    change(rows)
    _write_rows(path, rows)


def _lines(path, change):
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    change(lines)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


# ---------------------------------------------------------------------------
# generate: molecules.tsv columns smiles route m_plqy m_abs m_em m_sp2 p rollout


def _non_canonical(d, _result):
    import checks
    from inputs import random_order_smiles

    def change(rows):
        graph = checks.parse_smiles(rows[1][0])
        rng = random.Random(0)
        for _ in range(20):
            text = random_order_smiles(graph, rng)
            if text != rows[1][0]:
                rows[1][0] = text
                return

    _edit(f"{d}/molecules.tsv", change)


def _swap_routes(d, _result):
    def change(rows):
        rows[1][1], rows[2][1] = rows[2][1], rows[1][1]

    _edit(f"{d}/molecules.tsv", change)


def _shift_column(column, delta):
    def corrupt(d, _result):
        def change(rows):
            value = float(rows[1][column])
            rows[1][column] = format(value - delta if value >= delta else value + delta, ".6g")

        _edit(f"{d}/molecules.tsv", change)

    corrupt.__name__ = f"shift_column_{column}"
    return corrupt


def _duplicate_molecule(d, _result):
    _edit(f"{d}/molecules.tsv", lambda rows: rows.append(list(rows[1])))


def _drop_log_row(d, _result):
    _lines(f"{d}/run_log.tsv", lambda lines: lines.pop())


GENERATE = {
    "unique_smiles": _duplicate_molecule,
    "canonical_invariance": _non_canonical,
    "route_replay": _swap_routes,
    "sp2_oracle": _shift_column(5, 0.25),
    "combined_score": _shift_column(6, 0.1),
    "run_log_counts": _drop_log_row,
}


# ---------------------------------------------------------------------------
# filter


def _report_count(d, _result):
    def change(rows):
        rows[2][1] = str(int(rows[2][1]) - 1)

    _edit(f"{d}/filter_report.tsv", change)


def _cluster_table(d):
    import checks

    rows = _rows(f"{d}/clusters.tsv")
    labels = [int(row[1]) for row in rows[1:]]
    medoids = {}
    for index, row in enumerate(rows[1:]):
        if row[2] == "1":
            medoids[int(row[1])] = index
    fps = [checks.morgan_fingerprint(checks.parse_smiles(row[0])) for row in rows[1:]]
    words = checks.packed(fps)
    distances = 1.0 - checks.tanimoto_matrix(words, words)
    return rows, labels, medoids, distances


def _move_to_far_cluster(d, _result):
    rows, labels, medoids, distances = _cluster_table(d)
    index = next(i for i in range(len(labels)) if i not in medoids.values())
    far = max(medoids, key=lambda c: distances[index, medoids[c]])
    rows[index + 1][1] = str(far)
    _write_rows(f"{d}/clusters.tsv", rows)


def _worse_medoid(d, _result):
    rows, labels, medoids, distances = _cluster_table(d)
    for cluster, medoid in medoids.items():
        members = [i for i, label in enumerate(labels) if label == cluster]
        if len(members) < 3:
            continue
        within = {i: distances[i, members].sum() for i in members}
        worst = max(members, key=within.get)
        if within[worst] > within[medoid] + 1e-6:
            rows[medoid + 1][2] = "0"
            rows[worst + 1][2] = "1"
            _write_rows(f"{d}/clusters.tsv", rows)
            return


def _drop_pair(d, _result):
    _lines(f"{d}/similarity_histogram.tsv", lambda lines: lines.pop())


def _novelty_value(d, _result):
    def change(rows):
        value = float(rows[1][1])
        rows[1][1] = format(value - 0.05 if value > 0.5 else value + 0.05, ".6g")

    _edit(f"{d}/novelty.tsv", change)


FILTER = {
    "stage_counts": _report_count,
    "nearest_medoid": _move_to_far_cluster,
    "medoid_optimal": _worse_medoid,
    "histogram_pairs": _drop_pair,
    "novelty_max": _novelty_value,
}


# ---------------------------------------------------------------------------
# train


def _unreport_rejection(d, _result):
    _lines(f"{d}/rejected_rows.txt", lambda lines: lines.pop(0))


def _drop_record(d, result):
    result["records"] = result["records"][1:]


def _best_fold_metric(d, _result):
    def change(lines):
        values = [(i, float(line.split("\t")[1])) for i, line in enumerate(lines)
                  if line.split("\t")[0].isdigit()]
        i, value = min(values, key=lambda item: item[1])
        fold = lines[i].split("\t")[0]
        lines[i] = f"{fold}\t{value * 0.9:.6g}\n"

    _lines(f"{d}/cv_abs_reg.txt", change)


def _chance_auc(d, _result):
    def change(lines):
        for i, line in enumerate(lines):
            fold = line.split("\t")[0]
            if fold.isdigit():
                lines[i] = f"{fold}\t0.5\n"

    _lines(f"{d}/cv_plqy_class.txt", change)


TRAIN = {
    "rejected_rows": _unreport_rejection,
    "dedup_records": _drop_record,
    "checkpoint_metric": _best_fold_metric,
    "plqy_auc": _chance_auc,
}

CORRUPTIONS = {"generate": GENERATE, "filter": FILTER, "train": TRAIN}


def selfcheck(name: str, seed: int, work: str) -> bool:
    import checks

    checkpoints, seeded = run.ensure_inputs(name, seed)
    workload = run.WORKLOADS[name](seed, checkpoints, seeded)
    clean_dir = os.path.join(work, f"{name}-clean")
    op = workload.ops[0]
    result = run.run_op(workload, op, clean_dir, None)
    if not result["ok"]:
        print(f"{name}: the operation itself failed")
        return False
    ok = True
    clean = checks.failing_checks(workload.check(clean_dir, op, result))
    print(f"{name}: clean output, failing checks: {clean or 'none'}")
    ok &= not clean
    for check, corrupt in CORRUPTIONS[name].items():
        copy = os.path.join(work, f"{name}-{check}")
        shutil.copytree(clean_dir, copy)
        corrupted = dict(result)
        corrupt(copy, corrupted)
        failures = workload.check(copy, op, corrupted)
        caught = bool(failures[check])
        ok &= caught
        others = [c for c in checks.failing_checks(failures) if c != check]
        print(f"{name}: {corrupt.__name__.strip('_')} -> {check} "
              f"{'caught' if caught else 'MISSED'}; also failing: {others or 'none'}")
        shutil.rmtree(copy)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="corrupted-output check of the benchmark")
    parser.add_argument("workloads", nargs="*", default=sorted(CORRUPTIONS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    missing = [p for p in run.REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"selfcheck: run from the repository root; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    os.makedirs(os.path.join(run.CACHE, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(run.CACHE, "work"))
    try:
        results = [selfcheck(name, args.seed, work) for name in args.workloads]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
