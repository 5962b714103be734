"""Per-layer timings at k = 16, 32, ..., 512, written to ``bench/BENCH_<commit>.json``.

Usage, from the root of a source checkout::

    python3 tools/layers.py [--max-k 512] [--repeat 7] [--outdir bench]

``isolect`` is imported from the checkout's ``src/``.  Each layer is timed
in this process, and the minimum of ``--repeat`` runs is kept: the host's
noise only ever adds time.  Other tenants of a shared host can still slow
a whole layer's runs for minutes, so ``perfbench/kernel.py``'s
``reference_kernel`` is timed just before and just after each layer's
runs, and the minimum is also written scaled by ``REF_S`` over the mean of
those two kernel times: seconds at reference speed, which two files taken
minutes apart can compare.  Inputs are seeded chain trees from
``perfbench/planted.py``, the generator of the benchmark's iterate-paper
workload:

- ``matrix_to_distances.whole``: paper mode on integer percents with
  log-normal noise, the workload's table kind;
- ``matrix_to_distances.distinct``: precise mode on the tree's exact
  coincidences, all distinct floats;
- ``chain_widths`` (on the tree's segment graph), ``format_column``
  (paper mode, the restored upper triangle) and ``render_newick_lossy`` on
  the paper-mode build of the whole table;
- ``restore_distance_matrix``, as ``evaluate`` calls it, and
  ``meeting_junction.first``, the one query ``perturb`` asks of each
  rebuild, each on a fresh ``Dendrogram`` over that build's junctions, so
  what a tree caches is built inside the timing;
- ``shared_consistency``, the merge check, on two fresh ``Dendrogram`` objects
  over that build, every leaf shared, so both trees' meeting and anchor
  tables are built inside the timing;
- ``lca_junction.table``, one leaf-pair query, as ``leaf_distance`` asks
  it, on a tree whose k x k meeting table ``meeting_junctions`` has built,
  as ``shared_consistency`` does before its per-pair distances;
- ``deserialize`` and ``deserialize_graph``, reading the text of that
  build's ``dendrogram.json`` and of its segment graph, as ``evaluate``,
  ``merge`` and ``render`` read their inputs.

The file records the commit (``git rev-parse --short HEAD``, with
``dirty`` set when ``src/`` differs from it), the Python and numpy
versions, ``REF_S``, the seconds per layer and size, raw (``seconds``) and
at reference speed (``scaled``), and each layer's log-log slope of the raw
seconds over the sizes measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import planted  # noqa: E402
from isolect import builder, chronometry, cli, merger, model  # noqa: E402
from kernel import REF_S, reference_kernel  # noqa: E402

SEED = 0


def best_of(repeat: int, fn, make=tuple) -> tuple[float, float]:
    """The shortest of ``repeat`` wall times of ``fn(*make())``, ``make`` and
    a garbage collection untimed before each run, raw and scaled to the
    reference kernel's speed around the runs."""
    before = reference_kernel()
    best = float("inf")
    for _ in range(repeat):
        args = make()
        gc.collect()  # the set-up's garbage is not the layer's to collect
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, best * REF_S / ((before + reference_kernel()) / 2)


def layer_times(k: int, repeat: int) -> dict[str, tuple[float, float]]:
    """Seconds per call of each layer at size ``k``, raw and scaled."""
    rng = np.random.default_rng(SEED)
    tree = planted.chain_tree(rng, k)
    languages = model.LanguageSet(tree.labels)
    whole = model.CoincidenceMatrix(languages, planted.noisy_percent(rng, tree.distances))
    distinct = model.CoincidenceMatrix(languages, 100.0 * np.exp(-tree.distances / 100.0))
    built = builder.build(chronometry.matrix_to_distances(whole, "paper"), mode="paper")
    graph = merger.segment_graph(built)
    upper = model.restore_distance_matrix(built).values[np.triu_indices(k, 1)]
    a, b = tree.labels[0], tree.labels[-1]
    tree_text, graph_text = model.serialize(built), merger.serialize_graph(graph)

    def fresh(n=1):
        """``n`` fresh copies of the build: a tree caches what it derives."""
        return tuple(model.Dendrogram(languages, built.junctions, mode="paper")
                     for _ in range(n))

    tabled = model.Dendrogram(languages, built.junctions, mode="paper")
    tabled.meeting_junctions(tree.labels)  # the batch query fills the k x k table
    return {
        "matrix_to_distances.whole":
            best_of(repeat, lambda: chronometry.matrix_to_distances(whole, "paper")),
        "matrix_to_distances.distinct":
            best_of(repeat, lambda: chronometry.matrix_to_distances(distinct, "precise")),
        "restore_distance_matrix": best_of(repeat, model.restore_distance_matrix, fresh),
        "meeting_junction.first":
            best_of(repeat, lambda tree: tree.meeting_junction(a, b), fresh),
        "shared_consistency": best_of(repeat, merger.shared_consistency, lambda: fresh(2)),
        "chain_widths": best_of(repeat, lambda: merger.chain_widths(graph)),
        "format_column": best_of(repeat, lambda: list(cli.format_column(upper, "paper"))),
        "render_newick_lossy": best_of(repeat, lambda: cli.render_newick_lossy(built, "paper")),
        "lca_junction.table": best_of(repeat, lambda: tabled.lca_junction(0, k - 1)),
        "deserialize": best_of(repeat, lambda: model.deserialize(tree_text)),
        "deserialize_graph": best_of(repeat, lambda: merger.deserialize_graph(graph_text)),
    }


def git(*args: str) -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def slope(sizes: list[int], seconds: list[float]) -> float | None:
    """Least-squares slope of log(seconds) against log(k); None for one size."""
    if len(sizes) < 2:
        return None
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-k", type=int, default=512)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--outdir", type=Path, default=ROOT / "bench")
    args = parser.parse_args(argv)
    if args.max_k < 16 or args.repeat < 1:
        parser.error("--max-k must be >= 16 and --repeat >= 1")
    sizes = [16]
    while sizes[-1] * 2 <= args.max_k:
        sizes.append(sizes[-1] * 2)
    seconds: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for k in sizes:
        for name, (raw, at_ref) in layer_times(k, args.repeat).items():
            seconds.setdefault(name, []).append(raw)
            scaled.setdefault(name, []).append(at_ref)
        print(f"k = {k}: done", file=sys.stderr)
    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    doc = {
        "commit": commit,
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "repeat": args.repeat,
        "sizes": sizes,
        "ref_s": REF_S,
        "seconds": {name: dict(zip(map(str, sizes), values))
                    for name, values in seconds.items()},
        "scaled": {name: dict(zip(map(str, sizes), values))
                   for name, values in scaled.items()},
        "slope": {name: slope(sizes, values) for name, values in seconds.items()},
    }
    args.outdir.mkdir(parents=True, exist_ok=True)
    path = args.outdir / f"BENCH_{commit}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
