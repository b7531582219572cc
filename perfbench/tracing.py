"""Per-layer tracing from outside the program.

The tracer wraps the public functions the benchmark watches. A wrapper
replaces the function object under every name that holds it in a
``fluorgen.*`` module namespace, so calls between modules (and calls by
global name inside the defining module) go through it. Nothing under
``src/`` changes, and the wrappers are removed when tracing stops.

Each call records a span (name, start, end, parent). Per name the tracer
keeps the call count, total time and self time (total minus the time of
its child spans) as it goes, and stores spans in memory up to a cap; the
benchmark writes them out when the run ends. A few wrappers also look at
arguments or results to count useful work against attempts.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, function) pairs whose calls become spans.
LAYERS = (
    ("smiles", "parse_smiles"),
    ("smiles", "write_canonical_smiles"),
    ("fingerprints", "morgan_fingerprint"),
    ("fingerprints", "build_feature_vector"),
    ("fingerprints", "tanimoto"),
    ("generator", "node_features"),
    ("generator", "train_value_model"),
    ("scorers", "forward_batch"),
    ("scorers", "score_property"),
    ("scorers", "loss_and_grads"),
    ("scorers", "mlp_train"),
    ("reactions", "apply_reaction"),
    ("patterns", "has_match"),
    ("patterns", "match_pattern"),
    ("molgraph", "sp2_network_size"),
    ("filters", "run_filters"),
    ("filters", "distance_matrix"),
    ("filters", "cluster_tanimoto"),
    ("filters", "cluster_similarity_histogram"),
    ("filters", "select_representatives"),
    ("filters", "novelty"),
    ("filters", "write_similarity_histogram"),
    ("dataset", "ingest_chemfluor"),
    ("dataset", "curate_task"),
)

SPAN_CAP = 200_000


class Tracer:
    """Span recorder; ``install`` patches the program, ``remove`` restores it."""

    def __init__(self):
        self.names = [f"{module}.{function}" for module, function in LAYERS]
        self.calls = {name: 0 for name in self.names}
        self.total = {name: 0.0 for name in self.names}
        self.self_time = {name: 0.0 for name in self.names}
        # extra counters filled by the argument/result hooks
        self.counters = {
            "forward_batch.rows": 0,
            "apply_reaction.products": 0,
            "apply_reaction.skipped": 0,
            "train_value_model.kept": 0,
            "cluster_tanimoto.iterations": 0,
        }
        self.covered = 0.0  # time inside outermost spans
        self.spans: list[tuple[int, int, float, float]] = []  # name id, parent, start, end
        self.dropped = 0
        self._stack: list[list] = []  # [name id, start, child time, span index]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name.startswith("fluorgen.") and module is not None
        }
        for name_id, (module_name, function_name) in enumerate(LAYERS):
            original = getattr(modules[f"fluorgen.{module_name}"], function_name)
            wrapper = self._wrap(name_id, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name_id: int, original):
        name = self.names[name_id]
        hook = _HOOKS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = hook.before(self, args) if hook else None
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                self.dropped += 1
            frame = [name_id, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[1]
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                    parent = stack[-1][3]
                else:
                    self.covered += elapsed
                    parent = -1
                if index >= 0:
                    spans[index] = (name_id, parent, frame[1], end)
            if hook:
                hook.after(self, args, result, before)
            return result

        return wrapper

    def write_spans(self, path: str) -> None:
        spans = [span for span in self.spans if span is not None]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array([s[0] for s in spans], dtype=np.int32),
            parent=np.array([s[1] for s in spans], dtype=np.int64),
            start=np.array([s[2] for s in spans]),
            end=np.array([s[3] for s in spans]),
            dropped=np.int64(self.dropped),
        )


class _Hook:
    def before(self, tracer, args):
        return None

    def after(self, tracer, args, result, before):
        pass


class _ForwardRows(_Hook):
    def before(self, tracer, args):
        tracer.counters["forward_batch.rows"] += int(np.shape(args[1])[0])


class _ReactionOutcome(_Hook):
    def after(self, tracer, args, result, before):
        tracer.counters["apply_reaction.products"] += len(result.products)
        tracer.counters["apply_reaction.skipped"] += result.skipped


class _ValueUpdateKept(_Hook):
    # An update is kept when any weight differs afterwards; a reverted one
    # restores the saved copies.
    def before(self, tracer, args):
        model = args[0]
        return (model.b1.copy(), model.w2.copy(), float(model.b2))

    def after(self, tracer, args, result, before):
        model = args[0]
        b1, w2, b2 = before
        if not (np.array_equal(model.b1, b1) and np.array_equal(model.w2, w2) and model.b2 == b2):
            tracer.counters["train_value_model.kept"] += 1


class _ClusterIterations(_Hook):
    def after(self, tracer, args, result, before):
        tracer.counters["cluster_tanimoto.iterations"] += len(result.objective_trace)


_HOOKS = {
    "scorers.forward_batch": _ForwardRows(),
    "reactions.apply_reaction": _ReactionOutcome(),
    "generator.train_value_model": _ValueUpdateKept(),
    "filters.cluster_tanimoto": _ClusterIterations(),
}
