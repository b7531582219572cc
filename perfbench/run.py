"""fluorgen benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src. The
workload's inputs are made from --seed by perfbench/inputs.py in a child
process and cached under perfbench/.cache. The run then drives
``fluorgen.cli.main`` with an INI config, one command at a time (a
closed loop), in whole rounds until --seconds have passed, checks every
distinct output, and prints one JSON object as the last line of stdout.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics
(see perfbench/README.md).
"""

from __future__ import annotations

import os

# One BLAS thread: the run stays within the machine's cores, and BLAS
# worker threads cannot spin against the interpreter thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The program lets this variable override output_dir; rounds set their own.
os.environ.pop("FLUORGEN_OUTPUT_DIR", None)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(HERE, ".cache")
REQUIRED = ("src/fluorgen/cli.py", "data/building_blocks.tsv", "data/reactions.txt")

WATER = (0.681, 0.997, 1.062, 0.025)
# Rollout cost follows the trajectory: across generation seeds 1-8, runs of
# 24 rollouts went at 9.2-14.4 rollouts/s. So every run of generate makes
# the same trajectories, this fixed panel, whatever --seed says.
GENERATE_PANEL = (1, 2, 3, 4)
GENERATE_ROLLOUTS = 24
# patience = epochs: early stopping never cuts a fold short, so every seed
# trains the same number of epochs
TRAIN_CONFIG = {"folds": 3, "epochs": 20, "hidden_dim": 64, "patience": 20, "batch_size": 32}


def _write_ini(path: str, sections: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for section, keys in sections.items():
            handle.write(f"[{section}]\n")
            for key, value in keys.items():
                handle.write(f"{key} = {value}\n")
            handle.write("\n")


def _digest(directory: str, extra: str) -> str:
    h = hashlib.sha256(extra.encode())
    for base, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            if name.endswith(".ini"):
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


class Boundary:
    """Time at which set-up ended inside cli.main, marked by wrapping the
    one call that separates set-up from the timed phase."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.time = None
        self.covered = 0.0
        self.calls = {}
        self.result = None

    def mark(self) -> None:
        self.time = time.perf_counter()
        if self.tracer:
            self.covered = self.tracer.covered
            self.calls = dict(self.tracer.calls)


def _wrap_attribute(owner, name: str, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    return lambda: setattr(owner, name, original)


def _count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


# ---------------------------------------------------------------------------
# workloads
#
# A workload is a list of operations, each one cli.main call. A round runs
# every operation once, in order.


class Generate:
    """fluorgen generate: the rollout loop on the shipped library with the
    proxy scorers, acceptance-style controller settings."""

    command = "generate"
    ops = GENERATE_PANEL

    def __init__(self, seed: int, checkpoints: str, _inputs):
        self.seed = seed
        self.checkpoints = checkpoints
        self._library = None

    def items(self, _op) -> int:
        return GENERATE_ROLLOUTS

    def prepare(self, op_dir: str, op) -> str:
        ini = os.path.join(op_dir, "run.ini")
        _write_ini(ini, {
            "paths": {
                "blocks": os.path.join(ROOT, "data/building_blocks.tsv"),
                "reactions": os.path.join(ROOT, "data/reactions.txt"),
                "checkpoint_dir": self.checkpoints,
                "output_dir": op_dir,
            },
            "generate": {
                "n_rollouts": GENERATE_ROLLOUTS,
                "seed": op,
                "eta": 0.05,
                "tau_init": 0.5,
                "max_steps": 3,
            },
        })
        return ini

    def patch(self, boundary: Boundary):
        from fluorgen import generator

        def make(original):
            def run(self_, *args, **kwargs):
                boundary.mark()
                return original(self_, *args, **kwargs)
            return run

        return _wrap_attribute(generator.Generator, "run", make)

    def pairs(self, op_dir: str) -> int:
        n = _count_lines(os.path.join(op_dir, "molecules.tsv")) - 1
        return n * (n - 1) // 2

    def check(self, op_dir: str, op, _result) -> dict:
        import checks
        from fluorgen.reactions import ingest_building_blocks, ingest_reaction_templates

        if self._library is None:
            self._library = (
                ingest_building_blocks(os.path.join(ROOT, "data/building_blocks.tsv")),
                ingest_reaction_templates(os.path.join(ROOT, "data/reactions.txt")),
            )
        return checks.check_generate(
            op_dir, GENERATE_ROLLOUTS, *self._library, seed=self.seed * 1000 + op)


class Filter:
    """fluorgen filter: four property stages, k-medoids over Tanimoto
    distance, the similarity histogram and novelty."""

    command = "filter"
    ops = (None,)
    clusters = 100

    def __init__(self, _seed, checkpoints: str, inputs: str):
        self.checkpoints = checkpoints
        self.inputs = inputs
        with open(os.path.join(inputs, "molecules.tsv"), encoding="utf-8") as handle:
            self.molecules = handle.read().split()[1:]

    def items(self, _op) -> int:
        return len(self.molecules)

    def prepare(self, op_dir: str, _op) -> str:
        shutil.copy(os.path.join(self.inputs, "molecules.tsv"), op_dir)
        ini = os.path.join(op_dir, "run.ini")
        _write_ini(ini, {
            "paths": {"checkpoint_dir": self.checkpoints, "output_dir": op_dir},
            "filters": {
                "clusters": self.clusters,
                "novelty_references": os.path.join(self.inputs, "references.smi"),
            },
        })
        return ini

    def patch(self, boundary: Boundary):
        from fluorgen import cli

        def make(original):
            def run_filters(*args, **kwargs):
                boundary.mark()
                return original(*args, **kwargs)
            return run_filters

        return _wrap_attribute(cli, "run_filters", make)

    def pairs(self, op_dir: str) -> int:
        n = _count_lines(os.path.join(op_dir, "survivors.tsv")) - 1
        return n * (n - 1) // 2

    def check(self, op_dir: str, _op, _result) -> dict:
        import checks
        from fluorgen.filters import FilterThresholds

        with open(os.path.join(self.inputs, "references.smi"), encoding="utf-8") as handle:
            references = [line.strip() for line in handle if not line.startswith("#")]
        weights = {
            task: checks.load_weights(os.path.join(self.checkpoints, f"{task}.npz"))
            for task in ("plqy_class", "abs_reg", "em_reg")
        }
        return checks.check_filter(
            op_dir, self.molecules, references, weights, WATER, FilterThresholds()
        )


class Train:
    """fluorgen train: ChemFluor-format ingest, task curation and a small
    cross-validation per task."""

    command = "train"
    ops = (None,)

    def __init__(self, _seed, _checkpoints, inputs: str):
        self.inputs = inputs
        with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as handle:
            self.manifest = json.load(handle)

    def items(self, _op) -> int:
        return self.manifest["rows"]

    def prepare(self, op_dir: str, _op) -> str:
        ini = os.path.join(op_dir, "run.ini")
        _write_ini(ini, {
            "paths": {
                "dataset": os.path.join(self.inputs, "chemfluor.csv"),
                "checkpoint_dir": os.path.join(op_dir, "checkpoints"),
                "output_dir": op_dir,
            },
            "train": TRAIN_CONFIG,
        })
        return ini

    def patch(self, boundary: Boundary):
        from fluorgen import cli

        def make(original):
            def ingest_chemfluor(*args, **kwargs):
                result = original(*args, **kwargs)
                boundary.mark()
                boundary.result = result
                return result
            return ingest_chemfluor

        return _wrap_attribute(cli, "ingest_chemfluor", make)

    def pairs(self, _op_dir) -> int:
        return 0

    def check(self, op_dir: str, _op, result) -> dict:
        import checks

        return checks.check_train(
            op_dir,
            os.path.join(op_dir, "checkpoints"),
            result["records"],
            self.manifest,
            folds=TRAIN_CONFIG["folds"],
            split_seed=0,
        )


WORKLOADS = {"generate": Generate, "filter": Filter, "train": Train}


# ---------------------------------------------------------------------------
# operations and rounds


def run_op(workload, op, op_dir: str, tracer) -> dict:
    """One cli.main call; returns its set-up and timed-phase seconds."""
    from fluorgen import cli

    os.makedirs(op_dir)
    ini = workload.prepare(op_dir, op)
    boundary = Boundary(tracer)
    gc.collect()
    if tracer:
        tracer.install()
    restore = workload.patch(boundary)
    messages = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(messages):
            code = cli.main(["--config", ini, workload.command])
    finally:
        end = time.perf_counter()
        restore()
        if tracer:
            tracer.remove()
    result = {"op": op, "dir": op_dir, "items": workload.items(op), "ok": False,
              "setup": end - start, "timed": end - start, "covered": 0.0, "timed_calls": {},
              "records": None}
    if code != 0 or boundary.time is None:
        print(messages.getvalue(), file=sys.stderr)
        return result
    result.update(
        ok=True,
        setup=boundary.time - start,
        timed=end - boundary.time,
        covered=tracer.covered - boundary.covered if tracer else 0.0,
        timed_calls={name: tracer.calls[name] - boundary.calls[name] for name in boundary.calls},
        records=getattr(boundary.result, "records", None),
    )
    return result


def run_round(workload, round_dir: str, tracer) -> list[dict]:
    return [
        run_op(workload, op, os.path.join(round_dir, f"op-{index}"), tracer)
        for index, op in enumerate(workload.ops)
    ]


def ensure_inputs(workload: str, seed: int) -> tuple[str, str | None]:
    import inputs

    checkpoints, seeded = inputs.cache_dirs(CACHE, workload, seed)
    needed = [seeded] if workload == "train" else [checkpoints, seeded]
    if all(path is None or os.path.isdir(path) for path in needed):
        return checkpoints, seeded
    # a child process, so building never counts toward this process's
    # time or peak memory
    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--cache", CACHE],
        check=True, stdout=sys.stderr, timeout=800,
    )
    return checkpoints, seeded


def per_layer(tracer, rounds: list, traced: list, pairs: int) -> dict:
    """Per traced round: calls, total and self seconds of every layer, the
    work ratios, the share of the timed phase inside listed layers, and
    the tracing overhead against the untraced rounds."""
    n = sum(traced)
    items = sum(op["items"] for op in rounds[0])
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count")
        metrics[f"{name}.total_s"] = (tracer.total[name] / n, "s")
        metrics[f"{name}.self_s"] = (tracer.self_time[name] / n, "s")
    c = tracer.counters
    calls = tracer.calls

    def ratio(a, b):
        return a / b if b else 0.0

    def timed(ops):
        return sum(op["timed"] for op in ops)

    products = c["apply_reaction.products"]
    traced_rounds = [r for r, flag in zip(rounds, traced) if flag]
    plain_rounds = [r for r, flag in zip(rounds, traced) if not flag]

    def timed_calls(name):
        # calls in the timed phase only, so set-up work is not spread over items
        return sum(op["timed_calls"].get(name, 0) for r in traced_rounds for op in r)

    metrics.update({
        "fingerprints.morgan_fingerprint.per_item":
            (ratio(timed_calls("fingerprints.morgan_fingerprint"), n * items), "calls/item"),
        "smiles.parse_smiles.per_item":
            (ratio(timed_calls("smiles.parse_smiles"), n * items), "calls/item"),
        "scorers.forward_batch.rows_per_call":
            (ratio(c["forward_batch.rows"], calls["scorers.forward_batch"]), "rows/call"),
        "reactions.apply_reaction.kept_frac":
            (ratio(products, products + c["apply_reaction.skipped"]), "frac"),
        "generator.train_value_model.kept_frac":
            (ratio(c["train_value_model.kept"], calls["generator.train_value_model"]), "frac"),
        "filters.cluster_tanimoto.iterations":
            (ratio(c["cluster_tanimoto.iterations"], calls["filters.cluster_tanimoto"]), "count"),
        "fingerprints.tanimoto.per_pair":
            (ratio(calls["fingerprints.tanimoto"], n * pairs), "calls/pair"),
        "trace.layer_share":
            (ratio(sum(op["covered"] for r in traced_rounds for op in r),
                   sum(op["timed"] for r in traced_rounds for op in r)), "frac"),
        "trace.overhead":
            (statistics.median(timed(r) for r in traced_rounds)
             / statistics.median(timed(r) for r in plain_rounds) - 1.0, "frac"),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="fluorgen benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still removes its work directory and its input builder
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    checkpoints, seeded = ensure_inputs(args.workload, args.seed)

    import checks
    import fluorgen.cli  # noqa: F401  (import cost stays out of the rounds)
    from tracing import Tracer

    workload = WORKLOADS[args.workload](args.seed, checkpoints, seeded)
    os.makedirs(os.path.join(CACHE, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(CACHE, "work"))
    tracer = Tracer() if args.trace else None
    try:
        rounds: list[list[dict]] = []
        traced: list[bool] = []
        kept: dict[str, str] = {}  # output digest -> directory holding it
        # Whole rounds until the time is up. A traced run alternates
        # untraced and traced rounds and needs one of each.
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline or len(rounds) < 1 + args.trace:
            flag = bool(args.trace) and len(rounds) % 2 == 1
            ops = run_round(workload, os.path.join(work, f"round-{len(rounds)}"),
                            tracer if flag else None)
            for op in ops:
                if op["ok"]:
                    # train's check also reads the ingest records, so they
                    # count toward what makes two outputs the same
                    op["digest"] = _digest(op["dir"], repr(op["records"]))
                    kept.setdefault(op["digest"], op["dir"])
            rounds.append(ops)
            traced.append(flag)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Checks run after the measured rounds, never under the tracer.
        # Outputs identical to one already checked share its verdict.
        verdicts: dict[str, dict] = {}
        failed = 0
        for op in (op for ops in rounds for op in ops):
            if not op["ok"]:
                failed += op["items"]
                continue
            key = op["digest"]
            if key not in verdicts:
                verdicts[key] = workload.check(kept[key], op["op"], op)
            failed += checks.count_failed(verdicts[key], op["items"])
        failing = sorted({name for v in verdicts.values() for name in checks.failing_checks(v)})

        def rate(ops):
            return sum(op["items"] for op in ops) / sum(op["timed"] for op in ops)

        attempted = sum(op["items"] for ops in rounds for op in ops)
        print(
            f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} items, "
            f"{len(verdicts)} distinct outputs checked, failing checks: {failing or 'none'}\n"
            f"  per-round items/s: {[round(rate(ops), 3) for ops in rounds]}\n"
            f"  set-up s: {[round(op['setup'], 4) for ops in rounds for op in ops]}",
            file=sys.stderr,
        )
        if failed == attempted:
            print("perfbench: every operation failed", file=sys.stderr)
            return 1

        if args.trace:
            pairs = sum(workload.pairs(op["dir"]) for op in rounds[0])
            os.makedirs(os.path.join(CACHE, "traces"), exist_ok=True)
            tracer.write_spans(
                os.path.join(CACHE, "traces", f"{args.workload}-seed{args.seed}.npz"))
            metrics = per_layer(tracer, rounds, traced, pairs)
        else:
            metrics = {
                "items_per_s": (statistics.median(rate(ops) for ops in rounds), "1/s"),
                "setup_s": (statistics.median(op["setup"] for ops in rounds for op in ops), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
