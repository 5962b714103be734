"""Per-layer timings at k = 16, 32, ..., 512, written to ``bench/BENCH_<commit>.json``.

Usage, from the root of a source checkout::

    python3 tools/layers.py [--max-k 512] [--repeat 7] [--outdir bench]
    python3 tools/layers.py --against REV [--max-k 512] [--repeat 7] [--outdir bench]

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
  coincidences, all distinct floats, which no benchmark workload sends: the
  one per-distinct-value conversion path on its worst input;
- ``build.paper``: the paper-mode build of the whole table's distances, as
  each pass of ``build --weights iterate`` runs it;
- ``build.precise_caterpillar``: the precise build of a planted caterpillar's
  distances, build-planted's input kind;
- ``build.min_link``, ``build.lateral_offset`` and ``build.reduce``: the
  summed time of one builder kernel over one ``build.paper`` build.  A
  timing wrapper stands in for the kernel in ``builder`` during that build,
  which calls its kernels by module name, so every call is counted,
  the final-link cross-check's ``lateral_offset`` included;
- ``read_matrix_csv.precise``: reading the caterpillar's distances from
  the CSV file build-planted writes (``repr`` of each float, "-" on the
  diagonal); ``read_matrix_csv.paper``: reading the whole table's integer
  percents, the iterate-paper workload's file;
- ``render_dot``: the dot text of the caterpillar's precise build, as
  ``build`` writes ``tree.dot``;
- ``chain_widths`` (on the tree's segment graph), ``format_column``
  (paper mode, the restored upper triangle) and ``render_newick_lossy`` on
  the paper-mode build of the whole table;
- ``evaluation_csv``: the text of ``evaluation.csv`` for that build against
  the whole table, as ``evaluate`` writes it: ``format_column`` of the three
  number columns and the CSV writer (planted labels need no quoting);
- ``dendrogram_init``: a fresh ``Dendrogram`` over that build's junctions,
  the one walk that checks them and records each node's parent, carrier
  and anchor depth and each junction's gains, as every build and
  ``deserialize`` pay it;
- ``restore_distance_matrix``, as ``evaluate`` calls it, and
  ``meeting_junction.first``, the one query ``perturb`` asks of each
  rebuild, each timed together with the construction of a fresh
  ``Dendrogram`` over that build's junctions, so what a tree records or
  caches is built inside the timing: work moved between construction and
  the query does not read as a gain;
- ``shared_consistency``, the merge check, on two fresh ``Dendrogram`` objects
  over that build, every leaf shared, so both trees' meeting and anchor
  tables are built inside the timing;
- ``lca_junction.table``, one leaf-pair query, as ``leaf_distance`` asks
  it, on a tree whose k x k meeting table ``meeting_junctions`` has built,
  as ``shared_consistency`` does before its per-pair distances;
- ``deserialize`` and ``deserialize_graph``, reading the text of that
  build's ``dendrogram.json`` and of its segment graph, as ``evaluate``,
  ``merge`` and ``render`` read their inputs;
- ``segment_graph``, ``merge`` and ``predict_missing`` on the precise
  builds of ``planted.merge_pair(rng, k, k // 4)``'s two studies, the
  merge-overlap workload's input kind, each on fresh ``Dendrogram`` objects
  over those builds: the flattening of study A, the merge of B onto A, and
  the predictions for the merged graph's cross pairs, the merge untimed.

One layer has no size: ``import``, a fresh interpreter's ``import isolect``
after ``import numpy, networkx``, as every CLI process pays it.  The child
(``python -I``, with the tree under test first on its path) times the
import itself, so interpreter start-up is left out.

The file records the commit (``git rev-parse --short HEAD``, with
``dirty`` set when ``src/`` differs from it), the Python and numpy
versions, ``REF_S``, the seconds per layer and size, raw (``seconds``) and
at reference speed (``scaled``), each layer's log-log slope of the raw
seconds over the sizes measured, and the ``import`` layer's raw and scaled
seconds.

``--against REV`` compares the checkout with another commit in one
process, where runs a minute apart on a shared host would not compare.
``git archive REV src/isolect`` is unpacked into a temporary directory and
imported as a second package, ``isolect_base`` (``isolect`` imports only
relatively); both trees are byte-compiled first, so neither side pays for
compiling at import.  Each layer's runs alternate between the two sides,
and which side goes first alternates from run to run.  Besides one file per
side (the checkout's, named with ``-dirty`` when its ``src/`` differs
from HEAD, and ``BENCH_<REV>.json``, or ``BENCH_<REV>-base.json`` when the
two names would be one), ``AB_<REV>_<commit>.json`` holds each
layer's per-run ratios, checkout over ``REV``, as their median and
quartiles per size (for ``import``, one set): below 1 means the checkout
is faster.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import gc
import importlib
import importlib.util
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import planted  # noqa: E402
from kernel import REF_S, reference_kernel  # noqa: E402

SEED = 0
KERNELS = ("min_link", "lateral_offset", "reduce")  # builder kernels timed in a build
BASE = "isolect_base"  # the package name of the tree ``--against`` unpacks
HEADER = ["language_a", "language_b", "measured", "restored", "residual"]
IMPORT = ("import sys, time; import numpy, networkx; sys.path.insert(0, sys.argv[1]); "
          "start = time.perf_counter(); import isolect; print(time.perf_counter() - start)")


def layers(pkg, k: int, work: Path) -> dict:
    """Each layer at size ``k`` on the package ``pkg``, as a call that runs
    it once and returns its seconds; input files are written under ``work``."""
    builder, chronometry, cli, merger, model, refinement = (
        importlib.import_module(f"{pkg.__name__}.{name}")
        for name in ("builder", "chronometry", "cli", "merger", "model", "refinement"))
    rng = np.random.default_rng(SEED)
    tree = planted.chain_tree(rng, k)
    languages = model.LanguageSet(tree.labels)
    whole = model.CoincidenceMatrix(languages, planted.noisy_percent(rng, tree.distances))
    distinct = model.CoincidenceMatrix(languages, 100.0 * np.exp(-tree.distances / 100.0))
    measured = chronometry.matrix_to_distances(whole, "paper")
    caterpillar = planted.caterpillar(np.random.default_rng(SEED), k)
    cat_dist = model.DistanceMatrix(model.LanguageSet(caterpillar.labels), caterpillar.distances)
    cat_csv, percent_csv = work / f"caterpillar_{k}.csv", work / f"percent_{k}.csv"
    planted.write_matrix_csv(cat_csv, caterpillar.labels, caterpillar.distances, integer=False)
    planted.write_matrix_csv(percent_csv, tree.labels, whole.values, integer=True)
    cat_graph = merger.segment_graph(builder.build(cat_dist, mode="precise"))
    built = builder.build(measured, mode="paper")
    graph = merger.segment_graph(built)
    report = refinement.evaluate(built, measured)
    rows, cols = np.triu_indices(k, 1)
    upper = report.restored.values[rows, cols]
    a, b = tree.labels[0], tree.labels[-1]
    tree_text, graph_text = model.serialize(built), merger.serialize_graph(graph)
    pair = planted.merge_pair(np.random.default_rng(SEED), k, k // 4)
    studies = [builder.build(model.DistanceMatrix(model.LanguageSet(labels),
                                                  pair.planted.distances), mode="precise")
               for labels in (pair.planted.labels, pair.labels_b())]

    def fresh(n=1):
        """``n`` fresh copies of the build: a tree caches what it derives."""
        return tuple(model.Dendrogram(languages, built.junctions, mode="paper")
                     for _ in range(n))

    def evaluation_csv():
        return cli._csv_text(HEADER, zip(
            map(tree.labels.__getitem__, rows.tolist()),
            map(tree.labels.__getitem__, cols.tolist()),
            cli.format_column(measured.values[rows, cols], "paper"),
            cli.format_column(upper, "paper"),
            cli.format_column(report.residuals[rows, cols], "paper"),
        ))

    def fresh_studies():
        """Fresh copies of the merge pair's two builds."""
        return tuple(model.Dendrogram(t.languages, t.junctions, mode="precise")
                     for t in studies)

    def merged():
        graph = merger.merge(*fresh_studies())
        return graph, merger.cross_pairs(graph)

    tabled = model.Dendrogram(languages, built.junctions, mode="paper")
    tabled.meeting_junctions(tree.labels)  # the batch query fills the k x k table
    once = tuple
    calls = {
        "matrix_to_distances.whole":
            (lambda: chronometry.matrix_to_distances(whole, "paper"), once),
        "matrix_to_distances.distinct":
            (lambda: chronometry.matrix_to_distances(distinct, "precise"), once),
        "build.paper": (lambda: builder.build(measured, mode="paper"), once),
        "build.precise_caterpillar": (lambda: builder.build(cat_dist, mode="precise"), once),
        "dendrogram_init": (fresh, once),
        "restore_distance_matrix": (lambda: model.restore_distance_matrix(*fresh()), once),
        "meeting_junction.first": (lambda: fresh()[0].meeting_junction(a, b), once),
        "shared_consistency": (merger.shared_consistency, lambda: fresh(2)),
        "read_matrix_csv.precise": (lambda: cli.read_matrix_csv(cat_csv, "distance"), once),
        "read_matrix_csv.paper": (lambda: cli.read_matrix_csv(percent_csv, "coincidence"), once),
        "render_dot": (lambda: cli.render_dot(cat_graph, "precise"), once),
        "chain_widths": (lambda: merger.chain_widths(graph), once),
        "format_column": (lambda: list(cli.format_column(upper, "paper")), once),
        "evaluation_csv": (evaluation_csv, once),
        "render_newick_lossy": (lambda: cli.render_newick_lossy(built, "paper"), once),
        "lca_junction.table": (lambda: tabled.lca_junction(0, k - 1), once),
        "deserialize": (lambda: model.deserialize(tree_text), once),
        "deserialize_graph": (lambda: merger.deserialize_graph(graph_text), once),
        "segment_graph": (merger.segment_graph, lambda: fresh_studies()[:1]),
        "merge": (merger.merge, fresh_studies),
        "predict_missing": (merger.predict_missing, merged),
    }
    timings = {name: functools.partial(timed, *call) for name, call in calls.items()}
    for kernel in KERNELS:
        timings[f"build.{kernel}"] = functools.partial(
            kernel_seconds, builder, kernel, lambda: builder.build(measured, mode="paper"))
    return timings


def timed(fn, make) -> float:
    """Wall time of ``fn(*make())``, ``make`` and a garbage collection untimed."""
    args = make()
    gc.collect()  # the set-up's garbage is not the layer's to collect
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def kernel_seconds(builder, kernel: str, run) -> float:
    """Summed wall time of ``builder.<kernel>``'s calls during ``run()``,
    a garbage collection untimed."""
    inner, spent = getattr(builder, kernel), []

    def timed_kernel(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - start)

    gc.collect()
    setattr(builder, kernel, timed_kernel)
    try:
        run()
    finally:
        setattr(builder, kernel, inner)
    return sum(spent)


def import_seconds(src: Path) -> float:
    """A fresh interpreter's ``import isolect`` from ``src``, numpy and
    networkx imported first, as the child times it."""
    return float(subprocess.run([sys.executable, "-I", "-c", IMPORT, str(src)],
                                capture_output=True, text=True, check=True).stdout)


def run_layers(sides: list[dict], repeat: int) -> list[dict[str, tuple[float, list[float]]]]:
    """Each layer's ``repeat`` run times on every side (each side maps a
    layer's name to a call that times one run), with the reference kernel's
    mean time around the layer's runs.  The sides' runs of one layer
    alternate, and the side that goes first rotates from run to run."""
    times: list[dict] = [{} for _ in sides]
    for name in sides[0]:
        before = reference_kernel()
        runs: list[list[float]] = [[] for _ in sides]
        for r in range(repeat):
            for s in range(len(sides)):
                side = (r + s) % len(sides)
                runs[side].append(sides[side][name]())
        kernel = (before + reference_kernel()) / 2
        for out, found in zip(times, runs):
            out[name] = (kernel, found)
    return times


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


def import_tree(path: Path, name: str):
    """The ``isolect`` source tree at ``path``, byte-compiled, imported as ``name``."""
    compileall.compile_dir(str(path), quiet=1)
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def unpack(rev: str, into: Path) -> tuple[str, Path]:
    """``src/isolect`` at commit ``rev`` unpacked under ``into``, and the
    commit's short hash."""
    commit = git("rev-parse", "--short", f"{rev}^{{commit}}")
    if not commit:
        raise SystemExit(f"--against {rev}: not a commit of {ROOT}")
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=zip", commit, "src/isolect"],
        capture_output=True, check=True).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as files:
        files.extractall(into)
    return commit, into / "src" / "isolect"


def document(commit: str, dirty: bool, sizes, repeat: int, runs: dict,
             imported: tuple[float, list[float]]) -> dict:
    """The BENCH file of one side's ``runs`` (per layer and size, the
    reference kernel's time and the run times) and ``import`` runs."""
    kernel, found = imported
    seconds = {name: [min(by_k[k][1]) for k in sizes] for name, by_k in runs.items()}
    scaled = {name: [min(by_k[k][1]) * REF_S / by_k[k][0] for k in sizes]
              for name, by_k in runs.items()}
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "repeat": repeat,
        "sizes": sizes,
        "ref_s": REF_S,
        "seconds": {name: dict(zip(map(str, sizes), values))
                    for name, values in seconds.items()},
        "scaled": {name: dict(zip(map(str, sizes), values))
                   for name, values in scaled.items()},
        "slope": {name: slope(sizes, values) for name, values in seconds.items()},
        "import": {"seconds": min(found), "scaled": min(found) * REF_S / kernel},
    }


def write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(path)


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles; one value is all three."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-k", type=int, default=512)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--outdir", type=Path, default=ROOT / "bench")
    parser.add_argument("--against", metavar="REV",
                        help="also time src/isolect at commit REV, interleaved")
    args = parser.parse_args(argv)
    if args.max_k < 16 or args.repeat < 1:
        parser.error("--max-k must be >= 16 and --repeat >= 1")
    sizes = [16]
    while sizes[-1] * 2 <= args.max_k:
        sizes.append(sizes[-1] * 2)
    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    dirty = bool(git("status", "--porcelain", "--", "src"))
    with tempfile.TemporaryDirectory() as tmp:
        trees = [SRC / "isolect"]
        if args.against:
            base, path = unpack(args.against, Path(tmp))
            trees.append(path)
        packages = [import_tree(tree, name) for tree, name in zip(trees, ("isolect", BASE))]
        imports = [side["import"] for side in run_layers(
            [{"import": functools.partial(import_seconds, tree.parent)} for tree in trees],
            args.repeat)]
        runs: list[dict[str, dict[int, tuple[float, list[float]]]]] = [{} for _ in packages]
        for k in sizes:
            sides = [layers(p, k, Path(tmp)) for p in packages]
            for side, found in zip(runs, run_layers(sides, args.repeat)):
                for name, value in found.items():
                    side.setdefault(name, {})[k] = value
            print(f"k = {k}: done", file=sys.stderr)
    args.outdir.mkdir(parents=True, exist_ok=True)
    head = f"{commit}-dirty" if dirty and args.against else commit
    write(args.outdir / f"BENCH_{head}.json",
          document(commit, dirty, sizes, args.repeat, runs[0], imports[0]))
    if not args.against:
        return 0
    write(args.outdir / f"BENCH_{base}{'-base' * (base == head)}.json",
          document(base, False, sizes, args.repeat, runs[1], imports[1]))
    ratios = {
        name: {str(k): quartiles([h / b for h, b in zip(by_k[k][1], runs[1][name][k][1])])
               for k in sizes}
        for name, by_k in runs[0].items()
    }
    write(args.outdir / f"AB_{base}_{head}.json", {
        "base": base, "head": commit, "dirty": dirty, "python": platform.python_version(),
        "numpy": np.__version__, "seed": SEED, "repeat": args.repeat, "sizes": sizes,
        "ratio": ratios,
        "import": quartiles([h / b for h, b in zip(imports[0][1], imports[1][1])]),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
