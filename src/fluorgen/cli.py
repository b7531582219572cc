"""Command-line pipeline: train scorers, generate candidates, filter and
compare them. All outputs are plain delimited text."""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
import traceback

import numpy as np
from scipy import stats as scipy_stats

from fluorgen.config import ConfigError, RunConfig, load_config, render_config
from fluorgen.dataset import (
    DatasetError,
    Task,
    curate_task,
    ingest_chemfluor,
    record_fingerprints,
    write_rejection_report,
)
from fluorgen.filters import (
    FilterError,
    UnparsableSmiles,
    cluster_similarity_histogram,
    cluster_tanimoto,
    is_novel,
    novelty,
    parse_molecule,
    run_filters,
    select_representatives,
    write_binned_histogram,
    write_cluster_assignment,
    write_filter_report,
    write_similarity_histogram,
)
from fluorgen.fingerprints import morgan_fingerprints, pack
from fluorgen.generator import (
    GeneratorError,
    generate,
    uniform_baseline,
    write_molecules,
    write_reaction_usage,
    write_run_log,
)
from fluorgen.molgraph import MoleculeError, sp2_network_size
from fluorgen.reactions import (
    CompatibilityIndex,
    ReactionFormatError,
    ingest_building_blocks,
    ingest_reaction_templates,
)
from fluorgen.scorers import (
    PropertyScorer,
    ScorerError,
    ScorerKind,
    ScoreStack,
    load_model,
    run_cv,
    save_model,
    score_rows,
)
from fluorgen.smiles import SmilesError

INPUT_ERRORS = (
    ConfigError,
    DatasetError,
    ScorerError,
    GeneratorError,
    FilterError,
    ReactionFormatError,
    SmilesError,
    MoleculeError,
    OSError,
)

TASKS = (Task.PLQY_CLASS, Task.ABS_REG, Task.EM_REG)

CHECKPOINT_KINDS = {
    Task.PLQY_CLASS: ScorerKind.PLQY_PROB,
    Task.ABS_REG: ScorerKind.ABS_NM,
    Task.EM_REG: ScorerKind.EM_NM,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluorgen",
        description="Synthesis-aware generation of fluorophore candidates.",
    )
    parser.add_argument("--config", help="INI config file; defaults apply without it")
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective configuration and exit",
    )
    subparsers = parser.add_subparsers(dest="command")
    train = subparsers.add_parser(
        "train", help="cross-validate and checkpoint the property scorers"
    )
    train.add_argument(
        "--column",
        action="append",
        default=[],
        metavar="LOGICAL=HEADER",
        help="map a dataset column, e.g. --column smiles=Structure",
    )
    subparsers.add_parser("generate", help="run the rollout engine")
    subparsers.add_parser("filter", help="filter, cluster, and rate novelty")
    subparsers.add_parser(
        "stats", help="compare generated molecules against a baseline sample"
    )
    return parser


def _ensure_exists(path: str, hint: str) -> None:
    if not os.path.exists(path):
        raise ConfigError(f"missing {hint}: {path}")


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _progress(stream):
    def callback(done, total):
        step = max(1, total // 20)
        if done % step == 0:
            print(f"rollout {done}/{total}", file=stream)

    return callback


def _parse_column_map(pairs) -> dict[str, str] | None:
    if not pairs:
        return None
    mapping = {}
    for pair in pairs:
        logical, separator, header = pair.partition("=")
        if not separator or not logical or not header:
            raise ConfigError(f"bad --column value {pair!r}; expected LOGICAL=HEADER")
        mapping[logical] = header
    return mapping


def _checkpoint_path(config: RunConfig, task: Task) -> str:
    return os.path.join(config.paths.checkpoint_dir, f"{task.value}.npz")


def _load_scorers(config: RunConfig) -> dict:
    scorers = {ScorerKind.SP2_SIZE: PropertyScorer(ScorerKind.SP2_SIZE)}
    for task, kind in CHECKPOINT_KINDS.items():
        path = _checkpoint_path(config, task)
        if not os.path.exists(path):
            raise ConfigError(f"missing checkpoint {path}; run 'fluorgen train' first")
        scorers[kind] = PropertyScorer(kind, load_model(path))
    return scorers


def _read_molecule_smiles(path: str) -> tuple[list[str], list[int]]:
    """The smiles column and each row's 1-based line in the file."""
    _ensure_exists(path, "generated-molecules file")
    smiles_list = []
    lines = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle, delimiter="\t")
        if reader.fieldnames is None or "smiles" not in reader.fieldnames:
            raise ConfigError(f"{path}: expected a tab-delimited file with a smiles column")
        for row in reader:
            smiles_list.append(row["smiles"])
            lines.append(reader.line_num)
    return smiles_list, lines


def _read_reference_smiles(path: str) -> tuple[list[str], list[int]]:
    """One SMILES per non-blank, non-comment line, and its 1-based line."""
    _ensure_exists(path, "novelty reference file")
    smiles_list = []
    lines = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                smiles_list.append(line)
                lines.append(number)
    return smiles_list, lines


@contextlib.contextmanager
def _naming_bad_rows(path: str, smiles_list, lines):
    """Report a SMILES that does not parse with its file and the line of
    its first occurrence."""
    try:
        yield
    except UnparsableSmiles as exc:
        line = lines[smiles_list.index(exc.smiles)]
        raise ConfigError(f"{path}, line {line}: {exc}") from None


def cmd_train(config: RunConfig, column_map) -> int:
    _ensure_exists(config.paths.dataset, "dataset file")
    _ensure_dir(config.paths.output_dir)
    _ensure_dir(config.paths.checkpoint_dir)
    result = ingest_chemfluor(config.paths.dataset, column_map=column_map)
    write_rejection_report(
        result.rejected, os.path.join(config.paths.output_dir, "rejected_rows.txt")
    )
    fingerprints = record_fingerprints(result.records)
    for task in TASKS:
        try:
            dataset = curate_task(result.records, task, fingerprints)
            report, models = run_cv(
                dataset,
                config.train,
                folds=config.cv.folds,
                split_seed=config.cv.split_seed,
            )
        except (DatasetError, ScorerError) as exc:
            raise type(exc)(f"{task.value}: {exc}") from exc
        report.write(os.path.join(config.paths.output_dir, f"cv_{task.value}.txt"))
        metrics = report.fold_metrics
        best = (
            max(range(len(metrics)), key=lambda i: metrics[i])
            if report.metric_name == "roc_auc"
            else min(range(len(metrics)), key=lambda i: metrics[i])
        )
        save_model(models[best], _checkpoint_path(config, task))
        print(f"{task.value}: {report.summary()} (fold {best} checkpointed)", file=sys.stderr)
    return 0


def cmd_generate(config: RunConfig) -> int:
    _ensure_exists(config.paths.blocks, "building-block file")
    _ensure_exists(config.paths.reactions, "reaction-template file")
    _ensure_dir(config.paths.output_dir)
    scorers = _load_scorers(config)
    library = ingest_building_blocks(config.paths.blocks)
    templates = ingest_reaction_templates(config.paths.reactions)
    # one compatibility table serves the run and the baseline
    index = CompatibilityIndex(library, tuple(templates))
    result = generate(
        config.generation,
        library,
        templates,
        scorers,
        config.solvent,
        progress=_progress(sys.stderr),
        index=index,
    )
    out = config.paths.output_dir
    write_molecules(result.molecules, os.path.join(out, "molecules.tsv"))
    write_run_log(result.log, os.path.join(out, "run_log.tsv"))
    write_reaction_usage(result.reaction_usage, os.path.join(out, "reaction_usage.tsv"))
    print(
        f"generated {len(result.molecules)} unique molecules "
        f"({result.duplicates} duplicates, {result.dead_ends} dead ends)",
        file=sys.stderr,
    )
    if config.baseline.samples > 0:
        baseline = uniform_baseline(
            library,
            templates,
            config.baseline.samples,
            config.baseline.seed,
            scorers,
            config.solvent,
            index,
        )
        write_molecules(baseline, os.path.join(out, "baseline.tsv"))
        print(f"baseline sample of {len(baseline)} molecules written", file=sys.stderr)
    return 0


def cmd_filter(config: RunConfig) -> int:
    out = config.paths.output_dir
    molecules_path = os.path.join(out, "molecules.tsv")
    smiles_list, lines = _read_molecule_smiles(molecules_path)
    _ensure_dir(out)
    if not smiles_list:
        # the stages never run, so no checkpoints are needed
        print("warning: no molecules to filter", file=sys.stderr)
        _, report, _ = run_filters([], {}, config.solvent, config.thresholds)
        write_filter_report(report, os.path.join(out, "filter_report.tsv"))
        return 0
    scorers = _load_scorers(config)
    with _naming_bad_rows(molecules_path, smiles_list, lines):
        survivors, report, fingerprints = run_filters(
            smiles_list, scorers, config.solvent, config.thresholds
        )
    write_filter_report(report, os.path.join(out, "filter_report.tsv"))
    with open(os.path.join(out, "survivors.tsv"), "w", encoding="utf-8") as handle:
        handle.write("smiles\n")
        for smiles in survivors:
            handle.write(smiles + "\n")
    print(f"{len(survivors)} of {len(smiles_list)} molecules survive", file=sys.stderr)
    if not survivors:
        return 0

    k = min(config.clustering.clusters, len(survivors))
    if k < config.clustering.clusters:
        print(
            f"warning: clamping cluster count to {k} survivors", file=sys.stderr
        )
    assignment = cluster_tanimoto(fingerprints, k=k, seed=config.clustering.cluster_seed)
    write_cluster_assignment(
        assignment, survivors, os.path.join(out, "clusters.tsv")
    )
    # the pair similarities are streamed: written and binned a chunk at a time
    counts = write_similarity_histogram(
        cluster_similarity_histogram(assignment, fingerprints),
        os.path.join(out, "similarity_histogram.tsv"),
    )
    write_binned_histogram(counts, os.path.join(out, "similarity_histogram_binned.tsv"))
    ranked = select_representatives(assignment, fingerprints)
    with open(os.path.join(out, "representatives.tsv"), "w", encoding="utf-8") as handle:
        handle.write("cluster\trank\tsmiles\tis_medoid\n")
        for cluster, (medoid, members) in enumerate(ranked):
            for rank, index in enumerate(members):
                flag = 1 if index == medoid else 0
                handle.write(f"{cluster}\t{rank}\t{survivors[index]}\t{flag}\n")

    if config.clustering.novelty_references:
        references_path = config.clustering.novelty_references
        references, reference_lines = _read_reference_smiles(references_path)
        if not references:
            raise ConfigError(f"novelty reference file {references_path} is empty")
        with _naming_bad_rows(references_path, references, reference_lines):
            reference_fps = morgan_fingerprints(map(parse_molecule, references))
        scores = novelty(fingerprints, reference_fps)
        with open(os.path.join(out, "novelty.tsv"), "w", encoding="utf-8") as handle:
            handle.write("smiles\tmax_similarity\tnovel\n")
            for smiles, score in zip(survivors, scores):
                handle.write(
                    f"{smiles}\t{format(score, '.6g')}\t{1 if is_novel(score) else 0}\n"
                )
        novel_count = sum(1 for score in scores if is_novel(score))
        print(f"{novel_count} of {len(survivors)} survivors are novel", file=sys.stderr)
    return 0


STAT_METRICS = ("plqy_probability", "sp2_size", "absorption_nm", "emission_nm")


def _metric_values(smiles_list, scorers, solvent):
    graphs = [parse_molecule(s) for s in smiles_list]
    kinds = (ScorerKind.PLQY_PROB, ScorerKind.ABS_NM, ScorerKind.EM_NM)
    stack = ScoreStack([scorers[k].model for k in kinds])
    outputs = score_rows(stack, pack(morgan_fingerprints(graphs)), solvent)
    plqy, absorption, emission = outputs.T.tolist()
    return {
        "plqy_probability": plqy,
        "sp2_size": [float(sp2_network_size(g)) for g in graphs],
        "absorption_nm": absorption,
        "emission_nm": emission,
    }


def cmd_stats(config: RunConfig) -> int:
    out = config.paths.output_dir
    generated_path = os.path.join(out, "molecules.tsv")
    baseline_path = os.path.join(out, "baseline.tsv")
    generated, generated_lines = _read_molecule_smiles(generated_path)
    baseline, baseline_lines = _read_molecule_smiles(baseline_path)
    if not generated or not baseline:
        raise ConfigError("stats needs non-empty molecules.tsv and baseline.tsv")
    scorers = _load_scorers(config)
    with _naming_bad_rows(generated_path, generated, generated_lines):
        generated_values = _metric_values(generated, scorers, config.solvent)
    with _naming_bad_rows(baseline_path, baseline, baseline_lines):
        baseline_values = _metric_values(baseline, scorers, config.solvent)
    with open(os.path.join(out, "stats_histogram.tsv"), "w", encoding="utf-8") as handle:
        handle.write("set\tmetric\tvalue\n")
        for name in STAT_METRICS:
            for value in generated_values[name]:
                handle.write(f"generated\t{name}\t{format(value, '.6g')}\n")
            for value in baseline_values[name]:
                handle.write(f"baseline\t{name}\t{format(value, '.6g')}\n")
    with open(os.path.join(out, "stats_summary.tsv"), "w", encoding="utf-8") as handle:
        handle.write("metric\tmean_generated\tmean_baseline\tshift\tp_value\n")
        for name in STAT_METRICS:
            gen = np.asarray(generated_values[name])
            base = np.asarray(baseline_values[name])
            shift = float(gen.mean() - base.mean())
            if np.all(gen == gen[0]) and np.all(base == base[0]) and gen[0] == base[0]:
                p_value = 1.0  # degenerate: identical constant samples
            else:
                p_value = float(
                    scipy_stats.mannwhitneyu(gen, base, alternative="greater").pvalue
                )
            handle.write(
                f"{name}\t{format(gen.mean(), '.6g')}\t{format(base.mean(), '.6g')}\t"
                f"{format(shift, '.6g')}\t{format(p_value, '.6g')}\n"
            )
    print("stats written", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.print_config:
            print(render_config(config), end="")
            return 0
        if args.command == "train":
            return cmd_train(config, _parse_column_map(args.column))
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "filter":
            return cmd_filter(config)
        if args.command == "stats":
            return cmd_stats(config)
        parser.print_usage(sys.stderr)
        print("error: a command is required (or --print-config)", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
