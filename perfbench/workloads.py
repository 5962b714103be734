"""The four benchmark workloads.

Each workload is a closed loop with one client that repeats a fixed cycle of
``isolect`` commands.  One op is one command.  Inputs come from the seed
only; the program receives the CSV/JSON files written here.

numpy and the modules that need it are imported inside the in-process
workloads' methods.  A child process's peak RSS counts the pages of the
process that spawned it, so ``cli-bundled``'s parent stays small.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
GOLDENS = Path(__file__).with_name("goldens.json")


class CheckFailed(Exception):
    """An op's output differs from what the planted input or golden says."""


@dataclass(frozen=True)
class Op:
    """One command.  ``artifacts`` are digested: paths under the work dir, or "stdout"."""

    label: str
    argv: list[str]
    artifacts: tuple[str, ...] = ()
    check: Callable[[str], None] | None = None  # receives the op's stdout


def digest(work: Path, artifact: str, stdout: str) -> str:
    data = stdout.encode() if artifact == "stdout" else (work / artifact).read_bytes()
    if artifact.endswith("merged.json"):
        # merge() lists grafted nodes in set order, which follows the
        # interpreter's string hash seed; compare the content, not that order.
        doc = json.loads(data)
        doc["languages"].sort(key=lambda entry: entry["name"])
        doc["nodes"].sort(key=lambda node: node["id"])
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    size = ""  # the input size ops_per_s is stated at
    in_process = True
    # Span names that must record at least one call in a traced run.
    expected: frozenset = frozenset()

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed

    def prepare(self) -> None:
        """Write the seeded inputs (not part of set-up time)."""

    def setup_argvs(self) -> list[list[str]]:
        """Commands the program runs during set-up, before the first op."""
        return []

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def goldens(self) -> dict | None:
        """Expected artifact digests per op label, when they apply to this run."""
        return None

    def verify(self, op: Op, stdout: str) -> None:
        golden = self.goldens()
        if golden is not None:
            for artifact, expected in golden[op.label].items():
                if digest(self.work, artifact, stdout) != expected:
                    raise CheckFailed(f"{op.label}: {artifact} differs from the golden digest")
        if op.check is not None:
            op.check(stdout)


def _load_goldens(name: str) -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)[name]


# Shared sets of spans that any build / tree query must produce.
_BUILD = {
    "cli.main", "cli.read_matrix_csv", "cli.build_report", "cli.render_dot",
    "model.matrix_init", "model.Dendrogram.init", "model.serialize",
    "model.Dendrogram.members", "builder.build", "builder.initial_state",
    "builder.min_link", "builder.lateral_offset", "builder.reduce",
    "builder.resolve_last_link", "merger.segment_graph", "merger.chain_widths",
    "merger.SegmentGraph.graph",
}
_MERGE = {
    "cli.main", "model.deserialize", "model.Dendrogram.init", "model.Dendrogram.members",
    "model.Dendrogram.lca_junction", "model.Dendrogram.anchor_tables",
    "model.leaf_distance", "merger.shared_consistency", "merger.merge",
    "merger.segment_graph", "merger.SegmentGraph.graph", "merger.predict_missing",
    "merger.serialize_graph",
}
_REFINE = {
    "chronometry.matrix_to_distances", "model.restore_distance_matrix",
    "model.deserialize", "refinement.iterate_build", "refinement.evaluate",
    "refinement.perturb", "model.Dendrogram.lca_junction",
}


class CliBundled(Workload):
    """The README's paper-mode commands on ``data/*.csv``, one fresh process each."""

    name = "cli-bundled"
    size = "9 commands on the bundled k = 4, 4 and 15 tables"
    in_process = False
    expected = frozenset(_BUILD | _MERGE | _REFINE)

    def cycle(self) -> list[Op]:
        data = self.root / "data"
        a, b, bs = (str(data / f) for f in ("salish_a.csv", "salish_b.csv", "baltoslavic.csv"))
        w = self.work
        built = ("dendrogram.json", "report.txt", "tree.dot")
        return [
            Op("convert", ["convert", "--input", a, "--direction", "to-svodesh",
                           "--mode", "paper", "--output", str(w / "salish_a_svodesh.csv")],
               ("salish_a_svodesh.csv",)),
            Op("build-a", ["build", "--input", a, "--mode", "paper", "--outdir", str(w / "out_a")],
               tuple(f"out_a/{f}" for f in built)),
            Op("build-b", ["build", "--input", b, "--mode", "paper", "--outdir", str(w / "out_b")],
               tuple(f"out_b/{f}" for f in built)),
            Op("build-iterate", ["build", "--input", bs, "--mode", "paper", "--weights",
                                 "iterate", "--outdir", str(w / "out_bs")],
               tuple(f"out_bs/{f}" for f in built)),
            Op("evaluate", ["evaluate", "--tree", str(w / "out_a" / "dendrogram.json"),
                            "--input", a, "--output", str(w / "evaluation.csv")],
               ("evaluation.csv",)),
            Op("merge", ["merge", "--a", str(w / "out_a" / "dendrogram.json"),
                         "--b", str(w / "out_b" / "dendrogram.json"),
                         "--outdir", str(w / "merged")],
               ("merged/merged.json", "merged/predictions.csv")),
            Op("perturb", ["perturb", "--input", a, "--pair", "1:4", "--delta", "4",
                           "--delta", "-4", "--track", "1:2", "--mode", "paper"],
               ("stdout",)),
            Op("time", ["time", "--coincidence", "74", "--t1", "20", "--mode", "paper"],
               ("stdout",)),
            Op("render", ["render", "--tree", str(w / "out_a" / "dendrogram.json"),
                          "--format", "dot"], ("stdout",)),
        ]

    def goldens(self):
        return _load_goldens(self.name)


class BuildPlanted(Workload):
    """Precise distance-matrix builds of a planted caterpillar."""

    name = "build-planted"
    K = 160
    size = f"one precise build of a k = {K} distance matrix"
    expected = frozenset(_BUILD)

    def prepare(self):
        import numpy as np

        import planted

        self.planted = planted.caterpillar(np.random.default_rng(self.seed), self.K)
        planted.write_matrix_csv(self.work / "caterpillar.csv", self.planted.labels,
                                 self.planted.distances, integer=False)

    def cycle(self):
        return [Op("build", ["build", "--input", str(self.work / "caterpillar.csv"),
                             "--kind", "distance", "--mode", "precise",
                             "--outdir", str(self.work / "out")],
                   check=lambda stdout: self._check_tree())]

    def _check_tree(self):
        import numpy as np

        import oracle

        labels, dist = oracle.leaf_distances((self.work / "out" / "dendrogram.json").read_text())
        if labels != self.planted.labels:
            raise CheckFailed("dendrogram.json lists other languages")
        truth = self.planted.distances
        worst = float(np.max(np.abs(dist - truth) / np.maximum(truth, 1.0)))
        if worst > 1e-6:
            raise CheckFailed(f"tree distances miss the planted ones by {worst:.3g} relative")


class IteratePaper(Workload):
    """Paper-mode iterate / evaluate / perturb on noisy integer-percent chain trees."""

    name = "iterate-paper"
    K = 96
    size = f"iterate, evaluate, perturb (2 deltas) at k = {K}"
    expected = frozenset(_BUILD | _REFINE)

    def prepare(self):
        import numpy as np

        import planted

        rng = np.random.default_rng(self.seed)
        tree = planted.chain_tree(rng, self.K)
        percent = planted.noisy_percent(rng, tree.distances)
        planted.write_matrix_csv(self.work / "coincidences.csv", tree.labels, percent,
                                 integer=True)
        # A pair well inside (0, 100] so both deltas stay valid.
        candidates = np.argwhere(np.triu((percent >= 20) & (percent <= 80), 1))
        i, j = candidates[rng.integers(len(candidates))]
        self.pair = f"{tree.labels[i]}:{tree.labels[j]}"

    def cycle(self):
        w = self.work
        inp = str(w / "coincidences.csv")
        tree = str(w / "out" / "dendrogram.json")
        return [
            Op("build-iterate", ["build", "--input", inp, "--mode", "paper", "--weights",
                                 "iterate", "--outdir", str(w / "out")],
               ("out/dendrogram.json", "out/report.txt", "out/tree.dot")),
            Op("evaluate", ["evaluate", "--tree", tree, "--input", inp,
                            "--output", str(w / "evaluation.csv")],
               ("evaluation.csv",), check=lambda stdout: self._check_restored()),
            Op("perturb", ["perturb", "--input", inp, "--pair", self.pair,
                           "--delta", "3", "--delta", "-3", "--mode", "paper"],
               ("stdout",), check=self._check_perturb),
        ]

    def goldens(self):
        return _load_goldens(self.name) if self.seed == DEFAULT_SEED else None

    def _check_restored(self):
        import oracle

        labels, dist = oracle.leaf_distances((self.work / "out" / "dendrogram.json").read_text())
        index = {lab: i for i, lab in enumerate(labels)}
        rows = 0
        with open(self.work / "evaluation.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                want = int(round(dist[index[row["language_a"]], index[row["language_b"]]]))
                if int(row["restored"]) != want:
                    raise CheckFailed(
                        f"restored {row['language_a']}-{row['language_b']} is "
                        f"{row['restored']}, the tree's path sum is {want}")
                rows += 1
        if rows != self.K * (self.K - 1) // 2:
            raise CheckFailed(f"evaluation.csv has {rows} pairs")

    def _check_perturb(self, stdout: str):
        rows = [line for line in stdout.splitlines()[2:] if line.strip()]
        if len(rows) != 3:
            raise CheckFailed(f"perturb printed {len(rows)} rows, expected 3")


class MergeOverlap(Workload):
    """Precise merge of two builds of one caterpillar, eight leaves relabelled in B."""

    name = "merge-overlap"
    K = 32
    RELABELLED = 8
    size = f"merge of two k = {K} trees sharing {K - RELABELLED} leaves"
    expected = frozenset(_MERGE)

    def prepare(self):
        import numpy as np

        import planted

        self.pair = planted.merge_pair(np.random.default_rng(self.seed), self.K, self.RELABELLED)
        dist = self.pair.planted.distances
        planted.write_matrix_csv(self.work / "a.csv", self.pair.planted.labels, dist, integer=False)
        planted.write_matrix_csv(self.work / "b.csv", self.pair.labels_b(), dist, integer=False)

    def setup_argvs(self):
        return [["build", "--input", str(self.work / f"{s}.csv"), "--kind", "distance",
                 "--mode", "precise", "--outdir", str(self.work / s)] for s in "ab"]

    def cycle(self):
        w = self.work
        return [Op("merge", ["merge", "--a", str(w / "a" / "dendrogram.json"),
                             "--b", str(w / "b" / "dendrogram.json"),
                             "--outdir", str(w / "merged")],
                   check=lambda stdout: self._check_predictions())]

    def _check_predictions(self):
        truth = self.pair.planted.distances
        seen = 0
        with open(self.work / "merged" / "predictions.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                i, j = int(row["language_a"][1:]), int(row["language_b"][1:])
                if i == j:
                    continue  # twins sit 2x their pendant length apart in the graph
                # precise-mode CSVs print two decimals
                if abs(float(row["svodesh"]) - truth[i, j]) > 0.005 + 1e-9 * truth[i, j]:
                    raise CheckFailed(
                        f"predicted {row['language_a']}-{row['language_b']} "
                        f"{row['svodesh']}, planted {truth[i, j]:.4f}")
                seen += 1
        if seen != self.RELABELLED * (self.RELABELLED - 1):
            raise CheckFailed(f"predictions.csv has {seen} cross pairs")


WORKLOADS = {w.name: w for w in (CliBundled, BuildPlanted, IteratePaper, MergeOverlap)}
