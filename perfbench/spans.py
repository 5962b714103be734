"""Spans and counters recorded from outside the program.

``install`` wraps public functions of ``isolect``'s modules at every place
their name is bound (the defining module, modules that imported the name,
the package namespace), and patches methods on their class.  Each wrapped
call records one span: name, start, end, parent span and op id.  Spans stay
in memory until ``write_jsonl``.

A few very hot methods get a counting wrapper instead of a span, because a
span per call would cost more than the call; their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute path).  Methods are patched on the class.
SPANS = {
    "cli.main": ("isolect.cli", "main"),
    "cli.read_matrix_csv": ("isolect.cli", "read_matrix_csv"),
    "cli.build_report": ("isolect.cli", "build_report"),
    "cli.render_dot": ("isolect.cli", "render_dot"),
    "chronometry.matrix_to_distances": ("isolect.chronometry", "matrix_to_distances"),
    "model.matrix_init": [
        ("isolect.model", "CoincidenceMatrix.__post_init__"),
        ("isolect.model", "DistanceMatrix.__post_init__"),
    ],
    "model.Dendrogram.init": ("isolect.model", "Dendrogram.__post_init__"),
    "model.restore_distance_matrix": ("isolect.model", "restore_distance_matrix"),
    "model.Dendrogram.lca_junction": ("isolect.model", "Dendrogram.lca_junction"),
    "model.Dendrogram.anchor_tables": ("isolect.model", "Dendrogram.anchor_tables"),
    "model.leaf_distance": ("isolect.model", "leaf_distance"),
    "model.serialize": ("isolect.model", "serialize"),
    "model.deserialize": ("isolect.model", "deserialize"),
    "builder.build": ("isolect.builder", "build"),
    "builder.initial_state": ("isolect.builder", "initial_state"),
    "builder.min_link": ("isolect.builder", "min_link"),
    "builder.lateral_offset": ("isolect.builder", "lateral_offset"),
    "builder.reduce": ("isolect.builder", "reduce"),
    "builder.resolve_last_link": ("isolect.builder", "resolve_last_link"),
    "refinement.iterate_build": ("isolect.refinement", "iterate_build"),
    "refinement.evaluate": ("isolect.refinement", "evaluate"),
    "refinement.perturb": ("isolect.refinement", "perturb"),
    "merger.shared_consistency": ("isolect.merger", "shared_consistency"),
    "merger.merge": ("isolect.merger", "merge"),
    "merger.segment_graph": ("isolect.merger", "segment_graph"),
    "merger.predict_missing": ("isolect.merger", "predict_missing"),
    "merger.chain_widths": ("isolect.merger", "chain_widths"),
    "merger.serialize_graph": ("isolect.merger", "serialize_graph"),
}

# Counted, not spanned: millions of calls per op on the merge workload.
COUNTERS = {
    "model.Dendrogram.members": ("isolect.model", "Dendrogram.members"),
    "merger.SegmentGraph.graph": ("isolect.merger", "SegmentGraph.graph"),
}


def _clamp_count(dendrogram) -> int:
    from isolect.model import CLAMP_FLAGS

    return sum(f in CLAMP_FLAGS for jn in dendrogram.junctions for f in jn.flags)


# Span name -> [(counter name, value computed from (args, result))].  These
# are work counts measured where the work happens.
OBSERVERS = {
    "builder.min_link": [
        ("builder.min_link.pairs_scanned",
         lambda args, res: len(args[0].clusters) * (len(args[0].clusters) - 1) // 2),
    ],
    "builder.resolve_last_link": [
        ("builder.resolve_last_link.attempted", lambda args, res: 1),
        ("builder.resolve_last_link.resolved", lambda args, res: int(res.resolved)),
    ],
    "builder.build": [("builder.clamp_flags", lambda args, res: _clamp_count(res))],
    "refinement.iterate_build": [
        ("refinement.iterate_build.passes", lambda args, res: len(res.passes)),
    ],
    "refinement.perturb": [("refinement.perturb.rebuilds", lambda args, res: len(res.rows))],
    "merger.shared_consistency": [
        ("merger.shared_consistency.rows", lambda args, res: len(res.rows)),
    ],
    "merger.predict_missing": [("merger.predict_missing.pairs", lambda args, res: len(res))],
    "chronometry.matrix_to_distances": [
        ("chronometry.matrix_to_distances.cells",
         lambda args, res: len(res.languages) * (len(res.languages) - 1) // 2),
    ],
}


class Recorder:
    """In-memory spans ``(name, start_ns, end_ns, parent, op)`` and per-op counts."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.current = -1
        self.op = -1

    def span_wrapper(self, name: str, fn):
        spans, counts = self.spans, self.counts
        observers = OBSERVERS.get(name, ())
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.current = parent
                spans[idx] = (name, start, end, parent, self.op)
            for counter, observe in observers:
                counts[self.op, counter] += observe(args, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self.op, key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def extend(self, records, counts) -> None:
        """Adopt spans and counts recorded by a child process for the current op."""
        base = len(self.spans)
        for rec in records:
            parent = rec["parent"] + base if rec["parent"] >= 0 else -1
            self.spans.append((rec["name"], rec["start_ns"], rec["end_ns"], parent, self.op))
        for key, value in counts.items():
            self.counts[self.op, key] += value

    def records(self):
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            yield {"span": idx, "parent": parent, "op": op, "name": name,
                   "start_ns": start, "end_ns": end}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder) -> None:
    """Wrap every traced function wherever ``isolect`` binds it."""
    importlib.import_module("isolect.cli")  # loads every module of the package
    modules = [m for n, m in sys.modules.items() if n == "isolect" or n.startswith("isolect.")]
    targets = [(name, spec, recorder.span_wrapper) for name, spec in SPANS.items()]
    targets += [(name, spec, recorder.count_wrapper) for name, spec in COUNTERS.items()]
    for name, specs, make in targets:
        for module_name, path in specs if isinstance(specs, list) else [specs]:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            wrapped = make(name, original)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def self_times(recorder: Recorder) -> dict[tuple[int, str], tuple[int, float]]:
    """Per (op, span name): number of calls and summed self time in seconds."""
    child_ns = defaultdict(int)
    for name, start, end, parent, op in recorder.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
    for idx, (name, start, end, parent, op) in enumerate(recorder.spans):
        cell = out[op, name]
        cell[0] += 1
        cell[1] += (end - start - child_ns[idx]) / 1e9
    return {key: (calls, self_s) for key, (calls, self_s) in out.items()}


def per_layer(recorder: Recorder, ops: list[int]) -> dict[str, float]:
    """Aggregate a traced phase into ``<layer>.<function>.<stat>`` values.

    ``self_s`` is the median, over the ops in which the function ran, of its
    summed self time in that op.  ``calls`` and the work counts are totals
    divided by the number of ops; ``passes`` and ``rebuilds`` are per call.
    """
    n_ops = len(ops)
    table = self_times(recorder)
    out: dict[str, float] = {}

    def total(key: str) -> float:
        return sum(v for (op, k), v in recorder.counts.items() if k == key)

    def total_self(name: str) -> float:
        return sum(table.get((op, name), (0, 0.0))[1] for op in ops)

    def calls(name: str) -> int:
        return sum(table.get((op, name), (0, 0.0))[0] for op in ops)

    for name in SPANS:
        per_op = [table[op, name][1] for op in ops if (op, name) in table]
        out[name + ".self_s"] = statistics.median(per_op) if per_op else 0.0
        out[name + ".calls"] = calls(name) / n_ops
    for name in COUNTERS:
        out[name + ".calls"] = total(name + ".calls") / n_ops

    pairs = total("builder.min_link.pairs_scanned")
    out["builder.min_link.pairs_scanned"] = pairs / n_ops
    min_link_s = total_self("builder.min_link")
    out["builder.min_link.pairs_per_s"] = pairs / min_link_s if min_link_s else 0.0
    attempted = total("builder.resolve_last_link.attempted")
    out["builder.resolve_last_link.resolved_ratio"] = (
        total("builder.resolve_last_link.resolved") / attempted if attempted else 0.0
    )
    out["builder.clamp_flags"] = total("builder.clamp_flags") / n_ops
    for name, stat in (("refinement.iterate_build", "passes"),
                       ("refinement.perturb", "rebuilds")):
        n = calls(name)
        out[f"{name}.{stat}"] = total(f"{name}.{stat}") / n if n else 0.0
    out["merger.shared_consistency.rows"] = total("merger.shared_consistency.rows") / n_ops
    out["merger.predict_missing.pairs"] = total("merger.predict_missing.pairs") / n_ops
    cells = total("chronometry.matrix_to_distances.cells")
    conv_s = total_self("chronometry.matrix_to_distances")
    out["chronometry.matrix_to_distances.cells_per_s"] = cells / conv_s if conv_s else 0.0
    return out


def fired(recorder: Recorder) -> set[str]:
    """Names of spans and counters that recorded at least one call."""
    names = {span[0] for span in recorder.spans}
    names.update(key[: -len(".calls")] for (_, key), value in recorder.counts.items()
                 if key.endswith(".calls") and value)
    return names
