import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "layers.py"


def test_layers_writes_a_bench_file_at_k16(tmp_path):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--max-k", "16", "--repeat", "1", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    written = list(tmp_path.glob("BENCH_*.json"))
    assert [str(p) for p in written] == done.stdout.split()
    doc = json.loads(written[0].read_text())
    assert written[0].name == f"BENCH_{doc['commit']}.json"
    assert set(doc) == {"commit", "dirty", "python", "numpy", "seed", "repeat", "sizes",
                        "ref_s", "seconds", "scaled", "slope"}
    assert doc["sizes"] == [16] and doc["repeat"] == 1 and doc["ref_s"] > 0
    layers = {"matrix_to_distances.whole", "matrix_to_distances.distinct",
              "restore_distance_matrix", "meeting_junction.first", "shared_consistency",
              "chain_widths", "format_column", "render_newick_lossy", "lca_junction.table",
              "deserialize", "deserialize_graph"}
    assert set(doc["seconds"]) == set(doc["scaled"]) == set(doc["slope"]) == layers
    for name in layers:
        assert set(doc["seconds"][name]) == set(doc["scaled"][name]) == {"16"}
        assert doc["seconds"][name]["16"] > 0 and doc["scaled"][name]["16"] > 0
        assert doc["slope"][name] is None  # one size: no slope
