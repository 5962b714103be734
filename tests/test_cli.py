import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isolect import cli, model
from isolect.cli import main

DATA = Path(__file__).parent / "data"
BUNDLED = Path(__file__).parent.parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_golden_to_svodesh(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--input", str(BUNDLED / "salish_a.csv"),
            "--direction", "to-svodesh", "--mode", "paper",
        )
        assert code == 0
        assert out == (DATA / "salish_a_distances.csv").read_text()

    def test_golden_second_group(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--input", str(BUNDLED / "salish_b.csv"),
            "--direction", "to-svodesh", "--mode", "paper",
        )
        assert code == 0
        assert out == (DATA / "salish_b_distances.csv").read_text()

    def test_golden_to_coincidence(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--input", str(DATA / "salish_a_restored.csv"),
            "--direction", "to-coincidence", "--mode", "paper",
        )
        assert code == 0
        assert out == (DATA / "salish_a_restored_coincidence.csv").read_text()

    def test_full_coincidence_round_trip(self, capsys, tmp_path):
        src = tmp_path / "all.csv"
        src.write_text(",a,b\na,-,100\nb,100,-\n")
        code, out, _ = run(
            capsys, "convert", "--input", str(src),
            "--direction", "to-svodesh", "--mode", "paper",
        )
        assert code == 0
        assert out == ",a,b\na,-,0\nb,0,-\n"

    def test_absent_cells_preserved(self, capsys, tmp_path):
        src = tmp_path / "gap.csv"
        src.write_text(",a,b,c\na,-,50,\nb,50,-,40\nc,,40,-\n")
        code, out, _ = run(
            capsys, "convert", "--input", str(src),
            "--direction", "to-svodesh", "--mode", "paper",
        )
        assert code == 0
        assert out == ",a,b,c\na,-,69,\nb,69,-,92\nc,,92,-\n"

    def test_asymmetric_input_names_cell(self, capsys, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text(",a,b\na,-,50\nb,51,-\n")
        code, _, err = run(
            capsys, "convert", "--input", str(src),
            "--direction", "to-svodesh", "--mode", "paper",
        )
        assert code == 1
        assert "asymmetric" in err and "(a, b)" in err

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "convert", "--input", "nowhere.csv",
            "--direction", "to-svodesh",
        )
        assert code == 1

    def test_output_file_written(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "convert", "--input", str(BUNDLED / "salish_a.csv"),
            "--direction", "to-svodesh", "--mode", "paper",
            "--output", str(out_path),
        )
        assert code == 0 and out == ""
        assert out_path.read_text() == (DATA / "salish_a_distances.csv").read_text()


class TestBuild:
    def test_artifacts_and_report(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path),
        )
        assert code == 0
        for name in ("dendrogram.json", "report.txt", "tree.dot"):
            assert (tmp_path / name).exists()
        report = (tmp_path / "report.txt").read_text()
        assert "depth 19: chain width 70" in report
        assert "depth 14: chain extension 34" in report
        tree = model.deserialize((tmp_path / "dendrogram.json").read_text())
        assert [(j.depth, j.lateral) for j in tree.junctions] == [
            (14, 34), (19, 34), (19, 36)
        ]

    def test_ambiguous_root_reported(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "build", "--input", str(BUNDLED / "salish_b.csv"),
            "--mode", "paper", "--outdir", str(tmp_path),
        )
        assert code == 0
        report = (tmp_path / "report.txt").read_text()
        assert "UNRESOLVED total 85" in report
        assert "unresolved links:" in report

    def test_iterated_weights_name_group_anchors(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "build", "--input", str(BUNDLED / "baltoslavic.csv"),
            "--mode", "paper", "--weights", "iterate", "--outdir", str(tmp_path),
        )
        assert code == 0
        report = (tmp_path / "report.txt").read_text()
        assert "anchor on Lithuanian" in report
        assert "anchor on Slovak" in report
        assert "anchor on Belarusian" in report
        assert "iterated build: 3 passes" in report

    def test_absent_entries_exit_one_with_merge_hint(self, capsys, tmp_path):
        src = tmp_path / "gap.csv"
        src.write_text(",a,b,c\na,-,50,\nb,50,-,40\nc,,40,-\n")
        code, _, err = run(
            capsys, "build", "--input", str(src), "--mode", "paper",
            "--outdir", str(tmp_path),
        )
        assert code == 1
        assert "merge" in err

    def test_strict_escalates_clamp_flags(self, capsys, tmp_path):
        src = tmp_path / "clamped.csv"
        src.write_text(",a,b,c\na,-,77,68\nb,77,-,50\nc,68,50,-\n")
        code, out, err = run(
            capsys, "build", "--input", str(src), "--mode", "paper",
            "--outdir", str(tmp_path), "--strict",
        )
        assert code == 3
        assert "infeasible" in err
        code, _, _ = run(
            capsys, "build", "--input", str(src), "--mode", "paper",
            "--outdir", str(tmp_path),
        )
        assert code == 0

    def test_distance_kind_input(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "build", "--input", str(DATA / "salish_a_distances.csv"),
            "--kind", "distance", "--mode", "paper", "--outdir", str(tmp_path),
        )
        assert code == 0
        tree = model.deserialize((tmp_path / "dendrogram.json").read_text())
        assert [(j.depth, j.lateral) for j in tree.junctions] == [
            (14, 34), (19, 34), (19, 36)
        ]

    def test_weights_file(self, capsys, tmp_path):
        weights = tmp_path / "w.csv"
        # A row for a language outside the matrix is allowed and unused.
        weights.write_text("1,2\n2,2\n3,2\n4,2\nLushootseed,7\n")
        code, _, _ = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--weights", str(weights),
            "--outdir", str(tmp_path),
        )
        assert code == 0
        tree = model.deserialize((tmp_path / "dendrogram.json").read_text())
        # Constant weights reproduce the unit-weight tree.
        assert [(j.depth, j.lateral) for j in tree.junctions] == [
            (14, 34), (19, 34), (19, 36)
        ]

    def test_non_numeric_weight_located(self, capsys, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("1,2\n2,heavy\n3,2\n4,2\n")
        code, _, err = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--weights", str(weights), "--outdir", str(tmp_path),
        )
        assert code == 1
        assert err.splitlines() == [
            f"error: weight 'heavy' is not a number (at {weights}:2)"
        ]

    @pytest.mark.parametrize("text, message", [
        ("1,2\n2,2\n3,nan\n4,2\n", "weight 'nan' must be finite and > 0 (at {}:3)"),
        ("1,2\n2,-3\n3,2\n4,2\n", "weight '-3' must be finite and > 0 (at {}:2)"),
        ("1,2\n2,2\n3,2\n4,2\n2,5\n", "language '2' is given twice (at {}:5)"),
    ], ids=["nan", "negative", "twice"])
    def test_bad_weight_row_located(self, capsys, tmp_path, text, message):
        weights = tmp_path / "w.csv"
        weights.write_text(text)
        code, out, err = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--weights", str(weights), "--outdir", str(tmp_path),
        )
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: " + message.format(weights)]

    def test_non_utf8_matrix_located(self, capsys, tmp_path):
        src = tmp_path / "latin1.csv"
        src.write_bytes(",a,b\na,-,50\nb,50,-\n".encode() + "\xe9\n".encode("latin-1"))
        code, _, err = run(
            capsys, "build", "--input", str(src), "--outdir", str(tmp_path),
        )
        assert code == 1
        assert err.splitlines() == [
            f"error: file is not UTF-8 text (at {src}:4)"
        ]

    def test_bad_cell_located_by_file_line_after_blank_lines(self, capsys, tmp_path):
        src = tmp_path / "blank.csv"
        src.write_text(",a,b,c\n\n\na,-,50,40\nb,50,-,x\nc,40,x,-\n")
        code, _, err = run(
            capsys, "build", "--input", str(src), "--outdir", str(tmp_path),
        )
        assert code == 1
        assert err.splitlines() == [
            f"error: cell 'x' is not a number (at {src}:5 column c)"
        ]

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_located(self, capsys, tmp_path, cell):
        src = tmp_path / "nonfinite.csv"
        # Absent pairs come first in the file and stay absent.
        src.write_text(f",a,b,c\na,-,NA,40\nb,NA,-,{cell}\nc,40,{cell},-\n")
        code, _, err = run(
            capsys, "build", "--input", str(src), "--outdir", str(tmp_path),
        )
        assert code == 1
        assert err.splitlines() == [
            f"error: cell {cell!r} is not a finite number (at {src}:3 column c)"
        ]

    def test_deterministic_artifacts(self, capsys, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            code, _, _ = run(
                capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
                "--mode", "paper", "--outdir", str(d),
            )
            assert code == 0
        for name in ("dendrogram.json", "report.txt", "tree.dot"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_env_mode_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SVODESH_MODE", "precise")
        code, _, _ = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--outdir", str(tmp_path),
        )
        assert code == 0
        tree = model.deserialize((tmp_path / "dendrogram.json").read_text())
        assert tree.mode == "precise"


def test_schema_example_is_what_build_writes(capsys, tmp_path):
    schema = (Path(__file__).parents[1] / "docs" / "schema.md").read_text()
    section = schema.split('## Dendrogram documents (`kind: "dendrogram"`)')[1]
    example = section.split("```json\n")[1].split("```\n")[0]
    run(capsys, "build", "--input", str(BUNDLED / "salish_b.csv"), "--mode", "paper",
        "--outdir", str(tmp_path))
    assert (tmp_path / "dendrogram.json").read_text() == example


class TestEvaluate:
    def test_residuals_against_measured(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path),
        )
        assert code == 0
        out_csv = tmp_path / "evaluation.csv"
        code, out, _ = run(
            capsys, "evaluate", "--tree", str(tmp_path / "dendrogram.json"),
            "--input", str(DATA / "salish_a_distances.csv"),
            "--kind", "distance", "--output", str(out_csv),
        )
        assert code == 0
        assert "max |residual|: 3" in out
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "language_a,language_b,measured,restored,residual"
        assert "1,4,139,142,3" in rows

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_measured_distance_located(self, capsys, tmp_path, cell):
        # A NaN cell is no absent pair: it must not drop out of the evaluation.
        code, _, _ = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path),
        )
        assert code == 0
        lines = (DATA / "salish_a_distances.csv").read_text().splitlines()
        lines[2] = lines[2].replace("108", cell)
        src = tmp_path / "measured.csv"
        src.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "evaluate", "--tree", str(tmp_path / "dendrogram.json"),
            "--input", str(src), "--kind", "distance",
            "--output", str(tmp_path / "evaluation.csv"),
        )
        assert code == 1
        assert err.splitlines() == [
            f"error: cell {cell!r} is not a finite number (at {src}:3 column 4)"
        ]
        assert not (tmp_path / "evaluation.csv").exists()

    def _evaluate_edited(self, capsys, tmp_path, edit):
        run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path))
        path = tmp_path / "dendrogram.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return run(capsys, "evaluate", "--tree", str(path),
                   "--input", str(BUNDLED / "salish_a.csv"),
                   "--output", str(tmp_path / "evaluation.csv"))

    @pytest.mark.parametrize("weights, message", [
        ("1234", "weights must be a list of numbers (at weights)"),
        ([True, "2", 3, 4], "weight must be a finite number (at weights[0])"),
        ([1, "2", 3, 4], "weight must be a finite number (at weights[1])"),
        ([1, 2, 3, 10**400], "weight must be a finite number (at weights[3])"),
    ])
    def test_weights_must_be_a_list_of_numbers(self, capsys, tmp_path, weights, message):
        # "1234" must not load as one weight per character.
        code, out, err = self._evaluate_edited(
            capsys, tmp_path, lambda doc: doc.update(weights=weights))
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_huge_lateral_names_the_language(self, capsys, tmp_path):
        # The residual variances overflow: no numpy warning, one located line.
        def edit(doc):
            doc["junctions"][0]["lateral"] = 1e308

        code, out, err = self._evaluate_edited(capsys, tmp_path, edit)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: dispersions must be finite and >= 0 (language 1: inf)"
        ]
        assert not (tmp_path / "evaluation.csv").exists()

    def test_perfect_tree_zero_dispersions(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path),
        )
        code, out, _ = run(
            capsys, "evaluate", "--tree", str(tmp_path / "dendrogram.json"),
            "--input", str(DATA / "salish_a_restored.csv"),
            "--kind", "distance", "--output", str(tmp_path / "e.csv"),
        )
        assert code == 0
        assert "max |residual|: 0" in out
        assert "dispersion 0.0" in out

    def test_fifteen_language_dispersion_ranking(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "build", "--input", str(BUNDLED / "baltoslavic.csv"),
            "--mode", "paper", "--weights", "iterate", "--outdir", str(tmp_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "evaluate", "--tree", str(tmp_path / "dendrogram.json"),
            "--input", str(BUNDLED / "baltoslavic.csv"),
            "--output", str(tmp_path / "e.csv"),
        )
        assert code == 0
        ranked = [
            line.split(":")[0].strip()
            for line in out.splitlines()
            if ": dispersion" in line
        ]
        assert len(ranked) == 15
        lowest = set(ranked[:4])
        assert len(lowest & {"Slovak", "Bulgarian", "Lower-Sorbian",
                             "Belarusian"}) >= 3
        highest = set(ranked[-3:])
        assert len(highest & {"Latvian", "Slovenian", "Serbian"}) >= 2

    def test_language_mismatch_exit_one(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path),
        )
        code, _, err = run(
            capsys, "evaluate", "--tree", str(tmp_path / "dendrogram.json"),
            "--input", str(BUNDLED / "salish_b.csv"),
            "--output", str(tmp_path / "e.csv"),
        )
        assert code == 1


class TestMerge:
    def _build_both(self, capsys, tmp_path, mode="paper"):
        run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", mode, "--outdir", str(tmp_path / "a"))
        run(capsys, "build", "--input", str(BUNDLED / "salish_b.csv"),
            "--mode", mode, "--outdir", str(tmp_path / "b"))

    def test_predictions_csv(self, capsys, tmp_path):
        self._build_both(capsys, tmp_path)
        code, out, _ = run(
            capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
            "--b", str(tmp_path / "b" / "dendrogram.json"),
            "--outdir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "language_a,language_b,svodesh,coincidence,below_threshold"
        assert "3,5,199,14,yes" in lines
        assert "3,6,203,13,yes" in lines
        assert "4,5,233,10,yes" in lines
        assert "4,6,237,9,yes" in lines
        assert (tmp_path / "merged.json").exists()

    def test_identical_trees_empty_predictions(self, capsys, tmp_path):
        self._build_both(capsys, tmp_path)
        code, out, _ = run(
            capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
            "--b", str(tmp_path / "a" / "dendrogram.json"),
            "--outdir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert len(lines) == 1  # header only

    def test_merged_graph_independent_of_hash_seed(self, capsys, tmp_path):
        self._build_both(capsys, tmp_path)
        outputs = []
        for seed in ("0", "1"):  # two seeds that once ordered nodes differently
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(cli.__file__).parents[1]))
            outdir = tmp_path / f"seed{seed}"
            subprocess.run(
                [sys.executable, "-m", "isolect", "merge",
                 "--a", str(tmp_path / "a" / "dendrogram.json"),
                 "--b", str(tmp_path / "b" / "dendrogram.json"),
                 "--outdir", str(outdir)],
                env=env, check=True, capture_output=True,
            )
            outputs.append((outdir / "merged.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_consistency_failure_exit_two(self, capsys, tmp_path):
        self._build_both(capsys, tmp_path)
        nudged = tmp_path / "nudged.csv"
        text = (BUNDLED / "salish_a.csv").read_text()
        nudged.write_text(text.replace("25", "29"))
        run(capsys, "build", "--input", str(nudged), "--mode", "paper",
            "--outdir", str(tmp_path / "p"))
        code, out, _ = run(
            capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
            "--b", str(tmp_path / "p" / "dendrogram.json"),
            "--outdir", str(tmp_path),
        )
        assert code == 2
        assert "deviation" in out

    @pytest.mark.parametrize("other, expected_code", [("b", 0), ("p", 2)])
    def test_shared_structure_checked_once(
        self, capsys, tmp_path, monkeypatch, other, expected_code
    ):
        self._build_both(capsys, tmp_path)
        nudged = tmp_path / "nudged.csv"
        nudged.write_text((BUNDLED / "salish_a.csv").read_text().replace("25", "29"))
        run(capsys, "build", "--input", str(nudged), "--mode", "paper",
            "--outdir", str(tmp_path / "p"))
        check = cli.merger.shared_consistency
        reports = []

        def counted(*args, **kwargs):
            reports.append(check(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli.merger, "shared_consistency", counted)
        code, out, _ = run(
            capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
            "--b", str(tmp_path / other / "dendrogram.json"),
            "--outdir", str(tmp_path / "merged"),
        )
        assert code == expected_code
        assert len(reports) == 1
        # The deviations printed are the ones the merge decided on.
        assert f"max {reports[0].max_deviation}):" in out

    @pytest.mark.parametrize("other, expected_code, golden", [
        ("b", 0, "merge_salish_stdout.txt"),
        ("p", 2, "merge_rejected_stdout.txt"),
    ])
    def test_stdout_matches_golden(self, capsys, tmp_path, other, expected_code, golden):
        self._build_both(capsys, tmp_path)
        nudged = tmp_path / "nudged.csv"
        nudged.write_text((BUNDLED / "salish_a.csv").read_text().replace("25", "29"))
        run(capsys, "build", "--input", str(nudged), "--mode", "paper",
            "--outdir", str(tmp_path / "p"))
        code, out, _ = run(
            capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
            "--b", str(tmp_path / other / "dendrogram.json"),
            "--outdir", str(tmp_path / "merged"),
        )
        assert code == expected_code
        assert out.replace(str(tmp_path), "<tmp>") == (DATA / golden).read_text()

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    @pytest.mark.parametrize("odd", [(), (math.inf,), (math.nan, -math.inf)])
    def test_deviation_table_cells_are_format_number(self, capsys, mode, odd):
        # Halves round to even, -0.4 prints as 0; inf or nan anywhere leaves
        # every other cell as format_number writes it.
        values = [0.5, 1.5, 2.5, -0.4, -0.0, 12.345, 1e20, 1e308, *odd]
        rows = tuple(("depth", ("a", "b"), v, values[i - 1], abs(v))
                     for i, v in enumerate(values))
        cli._print_consistency(cli.merger.ConsistencyReport(("a", "b"), rows, 3.0), mode)
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines == [
            f"  depth    a-b: {cli.format_number(va, mode)} vs "
            f"{cli.format_number(vb, mode)} (deviation {cli.format_number(dev, mode)})"
            for _, _, va, vb, dev in rows]

    def test_precise_stdout_matches_golden(self, capsys, tmp_path):
        # The deviation table and the prediction lines at two decimals.
        self._build_both(capsys, tmp_path, mode="precise")
        code, out, _ = run(
            capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
            "--b", str(tmp_path / "b" / "dendrogram.json"),
            "--outdir", str(tmp_path / "merged"),
        )
        assert code == 0
        assert out.replace(str(tmp_path), "<tmp>") == (
            DATA / "merge_precise_stdout.txt").read_text()


class TestPerturb:
    def test_three_distinct_geometries(self, capsys):
        code, out, _ = run(
            capsys, "perturb", "--input", str(BUNDLED / "salish_a.csv"),
            "--pair", "1:4", "--delta", "4", "--delta", "-4",
            "--track", "1:2", "--mode", "paper",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and l[0] in "+-0 "]
        assert any("19" in l and "36" in l for l in lines)
        assert any("22" in l and "29" in l for l in lines)
        assert any("14" in l and "45" in l for l in lines)

    def test_zero_delta_repeats_baseline(self, capsys):
        code, out, _ = run(
            capsys, "perturb", "--input", str(BUNDLED / "salish_a.csv"),
            "--pair", "1:4", "--delta", "0", "--track", "1:2",
            "--mode", "paper",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith((" ", "+", "-"))]
        data = {tuple(l.split()[1:4]) for l in rows if l.split()}
        assert len(data) == 1

    def test_out_of_range_exit_one(self, capsys):
        code, _, err = run(
            capsys, "perturb", "--input", str(BUNDLED / "salish_a.csv"),
            "--pair", "3:4", "--delta", "60", "--mode", "paper",
        )
        assert code == 1


class TestTime:
    def test_identical_lists(self, capsys):
        code, out, _ = run(capsys, "time", "--coincidence", "100", "--mode", "paper")
        assert code == 0 and out.strip() == "0"

    def test_synchronous_pair(self, capsys):
        code, out, _ = run(capsys, "time", "--coincidence", "50",
                           "--mode", "precise")
        assert code == 0
        assert float(out) == pytest.approx(69.3147 / 2, abs=0.01)

    def test_attested_language(self, capsys):
        code, out, _ = run(
            capsys, "time", "--coincidence", "74", "--t1", "20",
            "--mode", "precise",
        )
        assert code == 0 and out.strip() == "25.06"

    @pytest.mark.parametrize("depths, mode, message", [
        (["--t1", "nan"], "paper", "attestation depths must be finite and >= 0"),
        (["--t1", "inf"], "paper", "attestation depths must be finite and >= 0"),
        (["--t2", "nan"], "precise", "attestation depths must be finite and >= 0"),
        (["--t1", "1e308", "--t2", "1e308"], "precise",
         "divergence time is not finite (got inf)"),
    ], ids=["t1-nan", "t1-inf", "t2-nan", "sum-overflows"])
    def test_non_finite_depth_or_time(self, capsys, depths, mode, message):
        code, out, err = run(capsys, "time", "--coincidence", "74", *depths,
                             "--mode", mode)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {message}"]


class TestRender:
    def test_dot_edge_labels(self, capsys, tmp_path):
        run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path))
        code, out, _ = run(
            capsys, "render", "--tree", str(tmp_path / "dendrogram.json"),
            "--format", "dot",
        )
        assert code == 0
        labels = sorted(
            int(part.split('"')[1])
            for part in out.splitlines()
            if "label=" in part and "--" in part
            for part in [part.split("label=")[1]]
        )
        assert labels == [5, 14, 14, 19, 19, 34, 34, 36]
        assert "shape=diamond" in out

    def test_unresolved_link_dashed(self, capsys, tmp_path):
        run(capsys, "build", "--input", str(BUNDLED / "salish_b.csv"),
            "--mode", "paper", "--outdir", str(tmp_path))
        code, out, _ = run(
            capsys, "render", "--tree", str(tmp_path / "dendrogram.json"),
            "--format", "dot",
        )
        assert code == 0
        assert "style=dashed" in out

    @pytest.mark.parametrize("field, value", [
        ("depth", math.nan), ("depth", "abc"), ("lateral", math.inf),
    ])
    def test_non_finite_or_non_numeric_number(self, capsys, tmp_path, field, value):
        run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path))
        path = tmp_path / "dendrogram.json"
        doc = json.loads(path.read_text())
        doc["junctions"][0][field] = value
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "text")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: {field} must be a finite number (at junctions[0].{field})"
        ]

    def test_reversed_depth_range_located(self, capsys, tmp_path):
        run(capsys, "build", "--input", str(BUNDLED / "salish_b.csv"),
            "--mode", "paper", "--outdir", str(tmp_path))
        path = tmp_path / "dendrogram.json"
        doc = json.loads(path.read_text())
        doc["junctions"][2]["status"].update(depth_min=90, depth_max=10)
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "text")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: unresolved junction requires a depth range min <= max (at junctions[2])"
        ]

    def test_single_leaf_document(self, capsys, tmp_path):
        doc = {
            "format": "isolect-dendrogram", "version": 1, "kind": "dendrogram",
            "mode": "paper",
            "languages": [{"name": "only", "depth": 0}],
            "weights": None,
            "junctions": [],
        }
        path = tmp_path / "single.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "render", "--tree", str(path), "--format", "dot")
        assert code == 0
        assert '"only"' in out and "--" not in out

    def test_newick_lossy_warns_and_preserves_paths(self, capsys, tmp_path):
        run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path))
        code, out, err = run(
            capsys, "render", "--tree", str(tmp_path / "dendrogram.json"),
            "--format", "newick-lossy",
        )
        assert code == 0
        assert "warning" in err
        assert out.strip() == "((2:19,(3:14,4:48):39):0,1:55);"

    def test_newick_of_unresolved_tree_preserves_paths(self, capsys, tmp_path):
        run(capsys, "build", "--input", str(BUNDLED / "salish_b.csv"),
            "--mode", "paper", "--outdir", str(tmp_path))
        code, out, _ = run(
            capsys, "render", "--tree", str(tmp_path / "dendrogram.json"),
            "--format", "newick-lossy",
        )
        assert code == 0
        # ((5:25,6:29):M,(1:19,2:54):N) with M + N == the unresolved total.
        import re

        tree = model.deserialize((tmp_path / "dendrogram.json").read_text())
        total = tree.junctions[-1].total_length
        stem_lengths = [int(m) for m in re.findall(r"\):(\d+)", out)]
        assert sum(stem_lengths) == total

    @pytest.mark.parametrize("top", ["[1]", "3", "null", '"graph"'])
    def test_non_object_document(self, capsys, tmp_path, top):
        path = tmp_path / "tree.json"
        path.write_text(top)
        code, out, err = run(capsys, "render", "--tree", str(path))
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: document must be a JSON object (at $)"]

    @staticmethod
    def _merged_doc(capsys, tmp_path) -> dict:
        for name in ("a", "b"):
            run(capsys, "build", "--input", str(BUNDLED / f"salish_{name}.csv"),
                "--mode", "paper", "--outdir", str(tmp_path / name))
        run(capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
            "--b", str(tmp_path / "b" / "dendrogram.json"), "--outdir", str(tmp_path))
        return json.loads((tmp_path / "merged.json").read_text())

    @pytest.mark.parametrize("leaf", [7, ["1"], {"name": "1"}, True])
    def test_non_string_leaf(self, capsys, tmp_path, leaf):
        doc = self._merged_doc(capsys, tmp_path)
        doc["nodes"][2]["leaf"] = leaf
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "dot")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: leaf must be a string or null (at nodes[2].leaf)"
        ]

    @pytest.mark.parametrize("leaves, message", [
        ("xyz", "leaves_b must be a list of leaf names (at leaves_b)"),
        (["1", "x"], "unknown leaf 'x' (at leaves_b[1])"),
        (["1", 5], "unknown leaf 5 (at leaves_b[1])"),
        (["1", "j0"], "unknown leaf 'j0' (at leaves_b[1])"),
    ])
    def test_leaves_must_name_leaf_nodes(self, capsys, tmp_path, leaves, message):
        # "xyz" must not load as one leaf per character.
        doc = self._merged_doc(capsys, tmp_path)
        doc["leaves_b"] = leaves
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "text")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("where, field, value", [
        ("nodes", "depth", 10**400), ("nodes", "depth", "3"), ("nodes", "depth", False),
        ("edges", "length", -(10**400)), ("edges", "length", True),
        ("edges", "length", "5"),
    ], ids=["depth-huge", "depth-string", "depth-bool", "length-huge", "length-bool",
            "length-string"])
    def test_graph_numbers_must_be_json_numbers(self, capsys, tmp_path, where, field,
                                                value):
        doc = self._merged_doc(capsys, tmp_path)
        doc[where][1][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "dot")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: {field} must be a finite number (at {where}[1].{field})"
        ]

    @pytest.mark.parametrize("document, edit, message", [
        ("tree", lambda d: d["languages"][0].update(name=None),
         "name must be a string (at languages[0].name)"),
        ("tree", lambda d: d["languages"][3].update(name=4),
         "name must be a string (at languages[3].name)"),
        ("tree", lambda d: d["junctions"][2].update(flags=[3, None]),
         "flag must be a string (at junctions[2].flags[0])"),
        ("merged", lambda d: d["nodes"][0].update(id=1),
         "id must be a string (at nodes[0].id)"),
        ("merged", lambda d: d["edges"][0].update(a=1),
         "a must be a string (at edges[0].a)"),
        ("merged", lambda d: d["edges"][0].update(kind="sideways"),
         "kind must be one of vertical, lateral, unresolved (at edges[0].kind)"),
        ("merged", lambda d: d["edges"][0].update(provenance=None),
         "provenance must be one of shared, A, B (at edges[0].provenance)"),
    ], ids=["name-null", "name-number", "flags", "id", "edge-end", "kind",
            "provenance"])
    def test_text_fields_must_be_json_strings(self, capsys, tmp_path, document, edit,
                                               message):
        if document == "merged":
            doc = self._merged_doc(capsys, tmp_path)
        else:
            run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
                "--mode", "paper", "--outdir", str(tmp_path))
            doc = json.loads((tmp_path / "dendrogram.json").read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "text")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("end", ["a", "b"])
    def test_edge_to_undeclared_node(self, capsys, tmp_path, end):
        # One more edge to a fresh id still makes a tree, so only the
        # declaration check catches it.
        doc = self._merged_doc(capsys, tmp_path)
        edge = {"a": "1", "b": "1", "length": 5, "kind": "vertical",
                "provenance": "A", end: "ghost"}
        doc["edges"].append(edge)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "text")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: edge names undeclared node 'ghost' "
            f"(at edges[{len(doc['edges']) - 1}].{end})"
        ]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_repeated_edge_located(self, capsys, tmp_path, reverse):
        # nx.Graph collapses a repeat, so the tree check alone let it load.
        doc = self._merged_doc(capsys, tmp_path)
        edge = doc["edges"][0]  # 3-j0, length 14
        a, b = (edge["b"], edge["a"]) if reverse else (edge["a"], edge["b"])
        doc["edges"].append(dict(edge, a=a, b=b, length=999))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "dot")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: edge {a!r}-{b!r} is listed twice (at edges[{len(doc['edges']) - 1}])"
        ]

    def test_render_merged_graph(self, capsys, tmp_path):
        run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path / "a"))
        run(capsys, "build", "--input", str(BUNDLED / "salish_b.csv"),
            "--mode", "paper", "--outdir", str(tmp_path / "b"))
        run(capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
            "--b", str(tmp_path / "b" / "dendrogram.json"),
            "--outdir", str(tmp_path))
        code, out, _ = run(
            capsys, "render", "--tree", str(tmp_path / "merged.json"),
            "--format", "text",
        )
        assert code == 0
        assert "unresolved" in out and "85" in out


class TestParser:
    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build"])  # missing --input
        assert exc.value.code == 1

    def test_unknown_mode_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("SVODESH_MODE", "sloppy")
        code, _, err = run(
            capsys, "time", "--coincidence", "50",
        )
        assert code == 1
        assert "SVODESH_MODE" in err


    @pytest.mark.parametrize("command, option", [
        ("build", "--resolve-tolerance"), ("merge", "--tolerance"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_a_finite_number_above_zero(self, capsys, tmp_path,
                                                          command, option, value):
        for name in ("a", "b"):
            run(capsys, "build", "--input", str(BUNDLED / f"salish_{name}.csv"),
                "--mode", "paper", "--outdir", str(tmp_path / name))
        inputs = {
            "build": ["--input", str(BUNDLED / "salish_a.csv")],
            "merge": ["--a", str(tmp_path / "a" / "dendrogram.json"),
                      "--b", str(tmp_path / "b" / "dendrogram.json")],
        }[command]
        code, out, err = run(capsys, command, *inputs, f"{option}={value}",
                             "--outdir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {option} must be a finite number > 0"]
        assert not (tmp_path / "out").exists()


class TestBackToBackCalls:
    """``main`` reuses one parser per process; no call may see another's arguments."""

    def test_parser_is_built_once(self):
        assert cli.make_parser() is cli.make_parser()

    def test_repeated_option_lists_start_empty(self, capsys, monkeypatch):
        seen = []
        perturb = cli.refinement.perturb

        def spy(matrix, pair, deltas, **kwargs):
            seen.append(list(deltas))
            return perturb(matrix, pair, deltas, **kwargs)

        monkeypatch.setattr(cli.refinement, "perturb", spy)
        base = ["perturb", "--input", str(BUNDLED / "salish_a.csv"), "--pair", "1:4",
                "--mode", "paper"]
        for extra in (["--delta", "3"], [], ["--delta", "-2", "--delta", "1"]):
            assert run(capsys, *base, *extra)[0] == 0
        assert seen == [[3.0], [], [-2.0, 1.0]]

    def test_good_call_after_a_bad_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["time", "--coincidence", "many"])
        assert exc.value.code == 1
        capsys.readouterr()
        assert run(capsys, "time", "--coincidence", "74", "--t1", "20",
                   "--mode", "paper") == (0, "25\n", "")

    def test_mode_from_environment_read_per_call(self, capsys, monkeypatch):
        argv = ("time", "--coincidence", "74", "--t1", "20")
        monkeypatch.setenv("SVODESH_MODE", "paper")
        assert run(capsys, *argv)[1] == "25\n"
        monkeypatch.setenv("SVODESH_MODE", "precise")
        assert run(capsys, *argv)[1] == "25.06\n"
