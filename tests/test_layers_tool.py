import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
TOOL = ROOT / "tools" / "layers.py"
LAYERS = {"matrix_to_distances.whole", "matrix_to_distances.distinct", "build.paper",
          "build.precise_caterpillar", "restore_distance_matrix", "meeting_junction.first",
          "shared_consistency", "chain_widths", "format_column", "evaluation_csv",
          "render_newick_lossy", "lca_junction.table", "deserialize", "deserialize_graph",
          "build.min_link", "build.lateral_offset", "build.reduce", "segment_graph", "merge",
          "predict_missing", "read_matrix_csv.precise", "read_matrix_csv.paper", "render_dot",
          "dendrogram_init"}
KEYS = {"commit", "dirty", "python", "numpy", "seed", "repeat", "sizes", "ref_s", "seconds",
        "scaled", "slope", "import"}


def run_tool(*args):
    done = subprocess.run([sys.executable, str(TOOL), "--max-k", "16", *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def check_bench_file(doc, repeat):
    assert set(doc) == KEYS
    assert doc["sizes"] == [16] and doc["repeat"] == repeat and doc["ref_s"] > 0
    assert set(doc["seconds"]) == set(doc["scaled"]) == set(doc["slope"]) == LAYERS
    for name in LAYERS:
        assert set(doc["seconds"][name]) == set(doc["scaled"][name]) == {"16"}
        assert doc["seconds"][name]["16"] > 0 and doc["scaled"][name]["16"] > 0
        assert doc["slope"][name] is None  # one size: no slope
    assert set(doc["import"]) == {"seconds", "scaled"}
    assert doc["import"]["seconds"] > 0 and doc["import"]["scaled"] > 0


def test_layers_writes_a_bench_file_at_k16(tmp_path):
    printed = run_tool("--repeat", "1", "--outdir", str(tmp_path))
    written = list(tmp_path.glob("BENCH_*.json"))
    assert [str(p) for p in written] == printed
    doc = json.loads(written[0].read_text())
    assert written[0].name == f"BENCH_{doc['commit']}.json"
    check_bench_file(doc, 1)


def test_against_head_writes_both_sides_and_finite_ratios(tmp_path):
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("not a git checkout: --against has no commit to read")
    base = head.stdout.strip()
    printed = run_tool("--repeat", "3", "--against", "HEAD", "--outdir", str(tmp_path))
    assert sorted(printed) == sorted(str(p) for p in tmp_path.iterdir())
    docs = {Path(p).name: json.loads(Path(p).read_text()) for p in printed}
    (ab_name, ab), = ((name, doc) for name, doc in docs.items() if name.startswith("AB_"))
    head = f"{ab['head']}{'-dirty' * ab['dirty']}"
    sides = {name: doc for name, doc in docs.items() if name.startswith("BENCH_")}
    assert set(sides) == {f"BENCH_{head}.json", f"BENCH_{base}{'-base' * (base == head)}.json"}
    for doc in sides.values():
        check_bench_file(doc, 3)
    assert ab_name == f"AB_{base}_{head}.json"
    assert ab["base"] == base and ab["sizes"] == [16] and ab["repeat"] == 3
    assert set(ab["ratio"]) == LAYERS
    for cell in [ab["ratio"][name]["16"] for name in LAYERS] + [ab["import"]]:
        assert set(cell) == {"median", "q1", "q3"}
        assert all(math.isfinite(v) and v > 0 for v in cell.values())
        assert cell["q1"] <= cell["median"] <= cell["q3"]


def test_import_layer_times_the_given_tree(tmp_path):
    """The child imports ``isolect`` from the tree it is given and times that
    import alone: a tree whose import sleeps 0.3 s reads at least that."""
    package = tmp_path / "src" / "isolect"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("import time\ntime.sleep(0.3)\n")
    code = (f"import sys; from pathlib import Path; sys.path.insert(0, {str(TOOL.parent)!r}); "
            "import layers; print(layers.import_seconds(Path(sys.argv[1])))")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert 0.3 <= float(done.stdout) < 3
