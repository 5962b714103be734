"""Self-tests of the benchmark's generators, oracle, checks and output.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import planted  # noqa: E402
import workloads  # noqa: E402


def quiet_main(argv) -> int:
    from isolect import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_oracle_reproduces_salish_a_restored(tmp_path):
    assert quiet_main(["build", "--input", str(ROOT / "data" / "salish_a.csv"),
                       "--mode", "paper", "--outdir", str(tmp_path)]) == 0
    labels, dist = oracle.leaf_distances((tmp_path / "dendrogram.json").read_text())
    with open(ROOT / "tests" / "data" / "salish_a_restored.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0][1:]) == labels
    expected = np.array([[0.0 if c == "-" else float(c) for c in row[1:]] for row in rows[1:]])
    assert np.array_equal(dist, expected)


@pytest.mark.parametrize("seed", range(4))
def test_caterpillar_matches_the_test_suite_oracle(seed):
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from oracles import sample_caterpillar
    finally:
        sys.path.remove(str(ROOT / "tests"))
    ours = planted.caterpillar(np.random.default_rng(seed), 12)
    theirs = sample_caterpillar(np.random.default_rng(seed), 12)
    assert np.allclose(ours.distances, theirs.distance_matrix(), rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(3))
def test_relabelled_merge_passes(tmp_path, seed):
    workload = workloads.MergeOverlap(ROOT, tmp_path, seed)
    workload.prepare()
    for argv in workload.setup_argvs():
        assert quiet_main(argv) == 0
    (op,) = workload.cycle()
    assert quiet_main(op.argv) == 0
    workload.verify(op, "")


def test_merge_check_catches_a_wrong_prediction(tmp_path):
    workload = workloads.MergeOverlap(ROOT, tmp_path, 0)
    workload.prepare()
    for argv in workload.setup_argvs():
        quiet_main(argv)
    (op,) = workload.cycle()
    quiet_main(op.argv)
    path = tmp_path / "merged" / "predictions.csv"
    lines = path.read_text().splitlines()
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[0][1:] != cells[1][1:]:
            cells[2] = f"{float(cells[2]) + 0.01:.2f}"
            lines[n] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed):
        workload.verify(op, "")


def test_install_rebinds_every_name():
    """Run in a fresh interpreter: installing wrappers patches isolect globally."""
    script = """
import importlib, sys
sys.path[:0] = sys.argv[1:]
import spans
importlib.import_module("isolect.cli")
targets = []
for specs in [*spans.SPANS.values(), *spans.COUNTERS.values()]:
    for module_name, path in specs if isinstance(specs, list) else [specs]:
        owner, attr = spans._resolve(module_name, path)
        targets.append((path, owner, attr, owner.__dict__[attr]))
spans.install(spans.Recorder())
modules = [m for n, m in sys.modules.items() if n == "isolect" or n.startswith("isolect.")]
for path, owner, attr, original in targets:
    assert owner.__dict__[attr] is not original, path
    assert not any(v is original for m in modules for v in vars(m).values()), path
from isolect import merger, model, refinement
assert refinement.restore_distance_matrix is model.restore_distance_matrix
assert merger.leaf_distance is model.leaf_distance
assert model.leaf_distance.__wrapped__.__module__ == "isolect.model"
"""
    subprocess.run([sys.executable, "-c", script, str(ROOT / "src"), str(HERE)], check=True)


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, section):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_bench("merge-overlap", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in bench[section]]
    for m in bench[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
