import codecs
import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import SALISH_A, SALISH_B, cyclic_graph_text
from isolect import chronometry, cli, merger, model
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

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    @pytest.mark.parametrize("distance", ["600", "1000"])
    def test_sub_half_percent_coincidence_reads_back(self, capsys, tmp_path, mode, distance):
        # 600 and 1000 svodesh are 0.248 % and 0.0045 %: format_number writes
        # them as 0 in paper mode (and 1000 as 0.00 in precise mode), which
        # reads back out of (0, 100]; such a cell is written as its repr.
        src, coincidences = tmp_path / "far.csv", tmp_path / "far_c.csv"
        src.write_text(f",a,b\na,-,{distance}\nb,{distance},-\n")
        assert run(capsys, "convert", "--input", str(src), "--direction", "to-coincidence",
                   "--mode", mode, "--output", str(coincidences))[0] == 0
        exact = 100.0 * math.exp(-float(distance) / 100.0)
        cell = cli.format_number(exact, mode)
        cell = repr(exact) if float(cell) == 0 else cell
        assert coincidences.read_text() == f",a,b\na,-,{cell}\nb,{cell},-\n"
        code, out, err = run(capsys, "convert", "--input", str(coincidences),
                             "--direction", "to-svodesh", "--mode", mode)
        back = cli.format_number(chronometry.coincidence_to_svodesh(float(cell), mode), mode)
        assert mode == "precise" or back == distance
        assert (code, out, err) == (0, f",a,b\na,-,{back}\nb,{back},-\n", "")
        assert run(capsys, "build", "--input", str(coincidences), "--mode", mode,
                   "--outdir", str(tmp_path / "out"))[0] == 0

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

    def test_label_with_cr_round_trips_through_build(self, capsys, tmp_path):
        src = tmp_path / "cr.csv"
        src.write_bytes(b',a,"b\rc",c\na,-,50,40\n"b\rc",50,-,40\nc,40,40,-\n')
        out_path = tmp_path / "d.csv"
        code, _, _ = run(capsys, "convert", "--input", str(src), "--direction", "to-svodesh",
                         "--mode", "paper", "--output", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == b',a,"b\rc",c\na,-,69,92\n"b\rc",69,-,92\nc,92,92,-\n'
        code, _, err = run(capsys, "build", "--input", str(out_path), "--kind", "distance",
                           "--mode", "paper", "--outdir", str(tmp_path / "tree"))
        assert (code, err) == (0, "")
        tree = model.deserialize((tmp_path / "tree" / "dendrogram.json").read_text())
        assert tree.languages.labels == ("a", "b\rc", "c")


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

    @pytest.mark.parametrize("tolerance, status, flag", [
        ("0.001", model.UNRESOLVED, model.FLAG_UNRESOLVED_DECOMPOSITION),
        ("2.0", model.RESOLVED, model.FLAG_CROSS_CHECKED),
    ])
    def test_iterated_build_takes_the_resolve_tolerance(self, capsys, tmp_path, tolerance,
                                                         status, flag):
        code, _, _ = run(
            capsys, "build", "--input", str(BUNDLED / "baltoslavic.csv"), "--mode", "paper",
            "--weights", "iterate", "--resolve-tolerance", tolerance,
            "--outdir", str(tmp_path),
        )
        assert code == 0
        root = model.deserialize((tmp_path / "dendrogram.json").read_text()).junctions[-1]
        assert (root.status, root.flags) == (status, (flag,))

    def test_absent_entries_exit_one_with_merge_hint(self, capsys, tmp_path):
        src = tmp_path / "gap.csv"
        src.write_text(",a,b,c\na,-,50,\nb,50,-,40\nc,,40,-\n")
        for weights in ("unit", "iterate"):
            code, out, err = run(
                capsys, "build", "--input", str(src), "--mode", "paper",
                "--weights", weights, "--outdir", str(tmp_path / "out"),
            )
            assert code == 1
            assert "merge" in err and err.count("\n") == 1
            assert out == "" and not (tmp_path / "out").exists()

    def test_absent_entries_name_the_first_pair(self, capsys, tmp_path):
        src = tmp_path / "gap.csv"
        src.write_text(",a,b,c,d\na,-,50,40,30\nb,50,-,40,\nc,40,40,-,\nd,30,,,-\n")
        message = ("error: distance matrix has absent entries, the first at (b, d); build "
                   "requires a complete matrix -- reconstruct per subsystem and use merge "
                   "to combine")
        for argv in (["build", "--weights", "unit", "--outdir", str(tmp_path / "out")],
                     ["build", "--weights", "iterate", "--outdir", str(tmp_path / "out")],
                     ["perturb", "--pair", "a:b", "--delta", "1"]):
            code, out, err = run(capsys, *argv, "--input", str(src), "--mode", "paper")
            assert (code, out, err.splitlines()) == (1, "", [message])

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
        ("1,2\n2,2\n3,2\n4,2\n,7\n", "weight rows need 'language,weight' (at {}:5)"),
        ("1,2,9\n2,2\n3,2\n4,2\n", "weight rows need 'language,weight' (at {}:1)"),
    ], ids=["nan", "negative", "twice", "blank-name", "cell-after-weight"])
    def test_bad_weight_row_located(self, capsys, tmp_path, text, message):
        weights = tmp_path / "w.csv"
        weights.write_text(text)
        code, out, err = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--weights", str(weights), "--outdir", str(tmp_path),
        )
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: " + message.format(weights)]

    def test_weight_rows_of_blank_cells_are_skipped(self, capsys, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("1,2,\n\n , \n2,2, \n3,2\n4,2\n")
        code, _, err = run(
            capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--weights", str(weights), "--outdir", str(tmp_path),
        )
        assert code == 0 and err == ""

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

    def test_header_only_table_located(self, capsys, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("x\n")
        code, out, err = run(capsys, "build", "--input", str(src), "--outdir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: header row names no languages (at {src}:1)"]

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

    def test_labels_like_generated_node_ids(self, capsys, tmp_path):
        # j0-j3 sort as 1-4 do: the same build, with the anchors primed.
        src = tmp_path / "j.csv"
        src.write_text(re.sub(r"\b([1-4])\b(?=[,\n])",
                              lambda m: f"j{int(m[1]) - 1}",
                              (BUNDLED / "salish_a.csv").read_text()))
        assert src.read_text().splitlines()[0] == ",j0,j1,j2,j3"
        runs = []
        for name, path in (("base", BUNDLED / "salish_a.csv"), ("j", src)):
            code, out, err = run(capsys, "build", "--input", str(path), "--mode", "paper",
                                 "--outdir", str(tmp_path / name))
            assert (code, err) == (0, "")
            runs.append((out, model.deserialize(
                (tmp_path / name / "dendrogram.json").read_text())))
        (base_out, base), (out, tree) = runs
        assert re.sub(r"\bj([0-3])\b", lambda m: str(int(m[1]) + 1), out) == base_out
        assert tree.junctions == base.junctions
        graph, base_graph = merger.segment_graph(tree), merger.segment_graph(base)
        assert [n.id for n in graph.nodes if n.leaf] == list(tree.languages.labels)
        ids = dict(zip((n.id for n in base_graph.nodes), (n.id for n in graph.nodes)))
        assert [(ids[e.a], ids[e.b], e.length, e.kind) for e in base_graph.edges] == [
            (e.a, e.b, e.length, e.kind) for e in graph.edges]
        assert merger.deserialize_graph(merger.serialize_graph(graph)) == graph
        dot = (tmp_path / "j" / "tree.dot").read_text()
        assert '"j0" -- "j2.rise"' in dot and '"j2" -- "j0\'"' in dot

    def test_failing_graph_writes_no_file(self, capsys, tmp_path, monkeypatch):
        def refuse(dendrogram):
            raise cli.DomainError("no graph")

        monkeypatch.setattr(cli.merger, "segment_graph", refuse)
        code, out, err = run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
                             "--mode", "paper", "--outdir", str(tmp_path / "out"))
        assert (code, out, err) == (1, "", "error: no graph\n")
        assert not (tmp_path / "out").exists()

    def test_purely_vertical_tree_has_no_chain_epochs(self, capsys, tmp_path):
        src = tmp_path / "abc.csv"
        src.write_text(",a,b,c\na,-,90,90\nb,90,-,90\nc,90,90,-\n")
        code, out, _ = run(capsys, "build", "--input", str(src), "--mode", "paper",
                           "--outdir", str(tmp_path))
        assert code == 0
        assert "\nchain epochs:\n  none (purely vertical tree)\n\n" in out
        assert out == (tmp_path / "report.txt").read_text()

    def test_missing_weights_file(self, capsys, tmp_path):
        missing = tmp_path / "nosuch.csv"
        code, out, err = run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
                             "--weights", str(missing), "--outdir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: --weights must be 'unit', 'iterate', or a CSV file; {str(missing)!r} "
            f"is none of these"]
        assert not (tmp_path / "out").exists()


class TestByteOrderMark:
    """An input file that starts with a UTF-8 byte-order mark reads as the
    same file without one: the same exit code, stdout, stderr and files."""

    @pytest.fixture
    def trees(self, capsys, tmp_path):
        for name in ("salish_a", "salish_b"):
            code, _, _ = run(capsys, "build", "--input", str(BUNDLED / f"{name}.csv"),
                             "--mode", "paper", "--outdir", str(tmp_path / name))
            assert code == 0
        return tmp_path / "salish_a" / "dendrogram.json", tmp_path / "salish_b" / "dendrogram.json"

    def _same_with_and_without_mark(self, capsys, tmp_path, source, argv):
        """Run ``argv(input, outdir)`` on a plain copy of ``source`` and on a
        copy with a byte-order mark, each copy and outdir at the same path."""
        copy, outdir = tmp_path / "side" / source.name, tmp_path / "side" / "out"
        seen = []
        for prefix in (b"", codecs.BOM_UTF8):
            copy.parent.mkdir(exist_ok=True)
            copy.write_bytes(prefix + source.read_bytes())
            code, out, err = run(capsys, *argv(copy, outdir))
            files = {p.name: p.read_bytes() for p in outdir.iterdir()} if outdir.exists() else {}
            seen.append((code, out, err, files))
            for p in files:
                (outdir / p).unlink()
        assert seen[0] == seen[1]
        return seen[0]

    def test_matrix_csv(self, capsys, tmp_path):
        code, out, err, files = self._same_with_and_without_mark(
            capsys, tmp_path, BUNDLED / "salish_a.csv",
            lambda src, outdir: ("build", "--input", str(src), "--mode", "paper",
                                 "--outdir", str(outdir)))
        assert code == 0 and err == "" and "dendrogram.json" in files

    def test_weights_csv(self, capsys, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("1,2\n2,1\n3,3\n4,1\n")
        code, out, err, files = self._same_with_and_without_mark(
            capsys, tmp_path, weights,
            lambda src, outdir: ("build", "--input", str(BUNDLED / "salish_a.csv"),
                                 "--mode", "paper", "--weights", str(src),
                                 "--outdir", str(outdir)))
        assert code == 0 and err == "" and "dendrogram.json" in files

    @pytest.mark.parametrize("command", [
        lambda tree, other, outdir: ("evaluate", "--tree", str(tree), "--input",
                                     str(BUNDLED / "salish_a.csv"),
                                     "--output", str(outdir / "evaluation.csv")),
        lambda tree, other, outdir: ("merge", "--a", str(tree), "--b", str(other),
                                     "--outdir", str(outdir)),
        lambda tree, other, outdir: ("render", "--tree", str(tree), "--format", "newick-lossy"),
    ], ids=["evaluate", "merge", "render"])
    def test_dendrogram_json(self, capsys, tmp_path, trees, command):
        tree, other = trees
        (tmp_path / "side" / "out").mkdir(parents=True)
        code, out, err, _ = self._same_with_and_without_mark(
            capsys, tmp_path, tree, lambda src, outdir: command(src, other, outdir))
        assert code == 0 and out


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

    def test_two_modes_exit_one_and_write_nothing(self, capsys, tmp_path):
        run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path / "a"))
        run(capsys, "build", "--input", str(BUNDLED / "salish_b.csv"),
            "--mode", "precise", "--outdir", str(tmp_path / "b"))
        code, out, err = run(
            capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
            "--b", str(tmp_path / "b" / "dendrogram.json"),
            "--outdir", str(tmp_path / "merged"),
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == ("error: dendrograms of different modes (paper and precise)"
                       " cannot be compared\n")
        assert not (tmp_path / "merged").exists()

    def test_merged_graph_independent_of_hash_seed(self, tmp_path):
        # Builds and merge in one child per string hash seed; 0 and 1 once
        # ordered merged nodes differently.
        script = "\n".join((
            "import sys",
            "from isolect.cli import main",
            "out, a, b = sys.argv[1:]",
            "for name, table in (('a', a), ('b', b)):",
            "    if main(['build', '--input', table, '--mode', 'paper',"
            " '--outdir', f'{out}/{name}']):",
            "        sys.exit(1)",
            "sys.exit(main(['merge', '--a', f'{out}/a/dendrogram.json',"
            " '--b', f'{out}/b/dendrogram.json', '--outdir', f'{out}/merged']))",
        ))
        outputs = []
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(cli.__file__).parents[1]))
            outdir = tmp_path / f"seed{seed}"
            subprocess.run(
                [sys.executable, "-c", script, str(outdir),
                 str(BUNDLED / "salish_a.csv"), str(BUNDLED / "salish_b.csv")],
                env=env, check=True, capture_output=True,
            )
            outputs.append({str(f.relative_to(outdir)): f.read_bytes()
                            for f in outdir.rglob("*") if f.is_file()})
        assert {"a/dendrogram.json", "b/report.txt", "merged/merged.json",
                "merged/predictions.csv"} <= outputs[0].keys()
        assert outputs[0] == outputs[1] == outputs[2]

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

    def test_absent_pair_exits_one_naming_it(self, capsys, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text(",a,b,c\na,-,48,\nb,48,-,50\nc,,50,-\n", encoding="utf-8")
        code, out, err = run(capsys, "perturb", "--input", str(path), "--pair", "a:c",
                             "--delta", "5", "--mode", "paper")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: pair ('a', 'c') is absent from the matrix: nothing to perturb"]

    def test_pair_naming_one_language_twice_exits_one_before_a_build(self, capsys,
                                                                      monkeypatch):
        base = ["perturb", "--input", str(BUNDLED / "salish_a.csv"), "--mode", "paper"]
        monkeypatch.setattr(cli.refinement.builder, "build", None)  # any build fails
        for extra in (["--delta", "1"], []):
            code, out, err = run(capsys, *base, "--pair", "1:1", *extra)
            assert (code, out) == (1, "")
            assert err.splitlines() == [
                "error: pair ('1', '1') is a diagonal cell: it names one language twice"]
        monkeypatch.undo()
        # Tracking a leaf's own pair names the leaf's parent junction.
        assert run(capsys, *base, "--pair", "1:2", "--track", "3:3")[0] == 0

    @pytest.mark.parametrize("value", ["a-b", ":4", "1:", "1:2:3"])
    def test_malformed_pair_and_track(self, capsys, value):
        base = ["perturb", "--input", str(BUNDLED / "salish_a.csv"), "--mode", "paper"]
        for extra in (["--pair", value], ["--pair", "1:2", "--track", value]):
            code, out, err = run(capsys, *base, *extra, "--delta", "1")
            assert (code, out) == (1, "")
            assert err.splitlines() == [f"error: pair must look like NAME:NAME, got {value!r}"]

    def test_labels_holding_a_colon(self, capsys, tmp_path):
        # A text with more than one ':' splits where both sides are labels.
        path = tmp_path / "colons.csv"
        path.write_text(",a:b,c,d\na:b,-,48,33\nc,48,-,50\nd,33,50,-\n", encoding="utf-8")
        base = ["perturb", "--input", str(path), "--mode", "paper", "--delta", "1"]
        for extra in (["--pair", "a:b:c"], ["--pair", "c:d", "--track", "a:b:c"]):
            code, out, _ = run(capsys, *base, *extra)
            assert code == 0
            assert "a:b-c" in out.splitlines()[0]
        # Two splits that both leave labels, or none: the text is refused.
        path.write_text(",a,a:b,b:c,c\na,-,48,33,25\na:b,48,-,50,34\n"
                        "b:c,33,50,-,54\nc,25,34,54,-\n", encoding="utf-8")
        base[2] = str(path)
        for value in ("a:b:c", "a:x:c"):
            for extra in (["--pair", value], ["--pair", "a:c", "--track", value]):
                code, out, err = run(capsys, *base, *extra)
                assert (code, out) == (1, "")
                assert err.splitlines() == [
                    f"error: pair must look like NAME:NAME, got {value!r}"]


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coincidence(self, capsys, value):
        code, out, err = run(capsys, "time", f"--coincidence={value}", "--mode", "precise")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: coincidence must be a finite number (got {value})"]


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

    @pytest.mark.parametrize("index, field, value, error", [
        (0, "lateral", -4, "lateral width must be >= 0 (at junctions[0].lateral)"),
        (0, "depth", -1, "junction depth must be >= 0 (at junctions[0].depth)"),
        (1, "status", {"state": "pending"},
         "unknown junction status 'pending' (at junctions[1].status)"),
        # The root is unresolved already; the model refuses any other.
        (1, "status", {"state": "unresolved", "total_length": 54,
                       "depth_min": 0, "depth_max": 19},
         "only the root junction may be unresolved (at junctions[1].status)"),
    ], ids=["negative-lateral", "negative-depth", "unknown-state", "second-unresolved"])
    def test_junction_faults_located_by_the_model(self, capsys, tmp_path, index, field,
                                                  value, error):
        run(capsys, "build", "--input", str(BUNDLED / "salish_b.csv"),
            "--mode", "paper", "--outdir", str(tmp_path))
        path = tmp_path / "dendrogram.json"
        doc = json.loads(path.read_text())
        doc["junctions"][index][field] = value
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "text")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {error}"]

    @pytest.mark.parametrize("field, value, message", [
        ("weights", [1, 1, 1], "bad weights: one weight per language required"),
        ("weights", [1, 1, 0, 1], "bad weights: weights must be finite and > 0"),
        ("weights", [1, 1, -2, 1], "bad weights: weights must be finite and > 0"),
        ("languages", [], "languages must be a non-empty list"),
    ], ids=["weight-count", "weight-zero", "weight-negative", "no-languages"])
    def test_document_weights_and_languages(self, capsys, tmp_path, field, value, message):
        run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
            "--mode", "paper", "--outdir", str(tmp_path))
        path = tmp_path / "dendrogram.json"
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "text")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message} (at {field})"]

    def test_newick_quotes_labels(self, capsys, tmp_path):
        src = tmp_path / "q.csv"
        src.write_text(",a b,c(d)\na b,-,90\nc(d),90,-\n")
        run(capsys, "build", "--input", str(src), "--mode", "paper", "--outdir", str(tmp_path))
        code, out, _ = run(capsys, "render", "--tree", str(tmp_path / "dendrogram.json"),
                           "--format", "newick-lossy")
        assert (code, out) == (0, "('a b':6,'c(d)':5);\n")

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

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("nodes"), "missing field 'nodes' (at nodes)"),
        (lambda d: d.update(nodes=5), "nodes must be a list (at nodes)"),
        (lambda d: d.pop("edges"), "missing field 'edges' (at edges)"),
        # An object must not be read as the list of its keys.
        (lambda d: d.update(edges={"x": 1}), "edges must be a list (at edges)"),
        # A second copy of an inner node: the edge count alone does not see it.
        (lambda d: d["nodes"].append(next(n for n in d["nodes"] if n["leaf"] is None)),
         "bad segment-graph payload: segment graph node ids must be unique"),
        (lambda d: d["edges"][1].update(length=-3),
         "bad segment-graph payload: segment lengths must be finite and >= 0 (at edges[1])"),
    ], ids=["nodes-missing", "nodes-number", "edges-missing", "edges-object", "node-id-twice",
            "negative-length"])
    def test_graph_lists_located(self, capsys, tmp_path, edit, message):
        doc = self._merged_doc(capsys, tmp_path)
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "text")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_cyclic_graph_refused(self, capsys, tmp_path):
        path = tmp_path / "merged.json"
        path.write_text(cyclic_graph_text())
        code, out, err = run(capsys, "render", "--tree", str(path), "--format", "text")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: bad segment-graph payload: segment graph must be a tree"
        ]

    @pytest.mark.parametrize("document", ["tree", "merged"])
    def test_unknown_kind_refused(self, capsys, tmp_path, document):
        if document == "merged":
            doc = self._merged_doc(capsys, tmp_path)
        else:
            run(capsys, "build", "--input", str(BUNDLED / "salish_a.csv"),
                "--mode", "paper", "--outdir", str(tmp_path))
            doc = json.loads((tmp_path / "dendrogram.json").read_text())
        doc["kind"] = "xyz"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for fmt in ("dot", "text", "newick-lossy"):
            code, out, err = run(capsys, "render", "--tree", str(path), "--format", fmt)
            assert code == 1 and out == ""
            assert err.splitlines() == [
                "error: not a dendrogram document: kind='xyz' (at kind)"
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


def newick_paths(text: str, pairs=None) -> dict[tuple[str, str], tuple[float, int]]:
    """Leaf pair -> (summed branch length, branch count) of a Newick tree
    with plain labels and a length on every branch below the root, for
    every pair of leaves or only for ``pairs``.  Read without recursion."""
    assert text.endswith(";\n") and text.count("\n") == 1
    up: dict[int, int] = {}  # node -> parent, the root absent
    length: dict[int, float] = {}  # node -> its branch's length
    leaves: dict[str, int] = {}
    open_clades: list[int] = []
    node = count = 0
    for token in re.findall(r"[(),]|:[^(),]+|[^(),:]+", text[:-2]):
        if token == ")":
            node = open_clades.pop()
        elif token.startswith(":"):
            length[node] = float(token[1:])
        elif token != ",":  # a clade opens, or a leaf
            node = count = count + 1
            if open_clades:
                up[node] = open_clades[-1]
            if token == "(":
                open_clades.append(node)
            else:
                leaves[token] = node
    assert not open_clades

    def ancestry(node: int) -> list[tuple[int, float]]:
        chain = []
        while node in up:
            chain.append((node, length[node]))
            node = up[node]
        return chain

    out = {}
    for a, b in pairs or itertools.product(leaves, repeat=2):
        chain_a, chain_b = ancestry(leaves[a]), ancestry(leaves[b])
        common = {n for n, _ in chain_a} & {n for n, _ in chain_b}
        path = [x for x in chain_a + chain_b if x[0] not in common]
        out[a, b] = (sum(branch for _, branch in path), len(path))
    return out


def test_deep_caterpillar_renders_in_every_format(capsys, tmp_path):
    # Deep enough that a recursive walk from the root would exceed
    # Python's default recursion limit.
    k = 1010
    dist = oracles.sample_caterpillar(np.random.default_rng(0), k).distance_matrix()
    labels = [f"L{i:04d}" for i in range(k)]
    src = tmp_path / "caterpillar.csv"
    src.write_text("\n".join([",".join(["", *labels])] + [
        ",".join([label, *("-" if i == j else repr(d) for j, d in enumerate(row))])
        for i, (label, row) in enumerate(zip(labels, dist.tolist()))]) + "\n")
    code, _, err = run(capsys, "build", "--input", str(src), "--kind", "distance",
                       "--mode", "precise", "--outdir", str(tmp_path))
    assert code == 0, err
    tree_file = tmp_path / "dendrogram.json"
    for fmt in ("dot", "text", "newick-lossy"):
        code, out, _ = run(capsys, "render", "--tree", str(tree_file), "--format", fmt)
        assert code == 0
    restored = model.restore_distance_matrix(model.deserialize(tree_file.read_text()))
    pairs = [(labels[0], labels[1]), (labels[0], labels[-1]), (labels[1], labels[k // 2]),
             (labels[k // 2], labels[-1])]
    for (a, b), (length, branches) in newick_paths(out, pairs).items():
        assert abs(length - restored.value(a, b)) <= 0.005 * branches + 1e-9


class TestRenderForms:
    """The text and Newick renderings of the Salish trees, in both modes."""

    @pytest.fixture(params=[("a", "paper"), ("b", "paper"), ("a", "precise"),
                            ("b", "precise")], ids=lambda p: "-".join(p))
    def tree_file(self, request, capsys, tmp_path):
        group, mode = request.param
        run(capsys, "build", "--input", str(BUNDLED / f"salish_{group}.csv"),
            "--mode", mode, "--outdir", str(tmp_path))
        return tmp_path / "dendrogram.json"

    def test_text_lists_every_node_and_edge_once(self, capsys, tree_file):
        code, out, err = run(capsys, "render", "--tree", str(tree_file), "--format", "text")
        assert code == 0 and err == ""
        graph = cli.merger.segment_graph(model.deserialize(tree_file.read_text()))
        lines = out.splitlines()
        assert lines[0] == "segment graph"
        nodes = [line.split()[1] for line in lines if line.startswith("  node ")]
        assert sorted(nodes) == sorted(n.id for n in graph.nodes)
        edges = [(words[0], words[1], words[3]) for words in map(str.split, lines)
                 if len(words) == 7 and words[2] == "--"]
        assert sorted(edges) == sorted((e.kind, e.a, e.b) for e in graph.edges)

    def test_newick_path_sums_equal_restored_distances(self, capsys, tree_file):
        code, out, err = run(capsys, "render", "--tree", str(tree_file),
                             "--format", "newick-lossy")
        assert code == 0
        # The warning goes to stderr only; stdout is the one Newick line.
        assert err == ("warning: newick output folds lateral widths into far branch "
                       "lengths; chain structure is lost\n")
        assert out.count("\n") == 1 and "warning" not in out
        tree = model.deserialize(tree_file.read_text())
        restored = model.restore_distance_matrix(tree)
        half_unit = 0.5 if tree.mode == "paper" else 0.005  # of the printed digits
        paths = newick_paths(out)
        assert {a for a, _ in paths} == set(tree.languages.labels)
        for (a, b), (length, branches) in paths.items():
            assert abs(length - restored.value(a, b)) <= half_unit * branches + 1e-9


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

    @pytest.mark.parametrize("argv, message", [
        (["time", "--coincidence", "-inf"], "coincidence must be a finite number (got -inf)"),
        (["time", "--coincidence", "-nan"], "coincidence must be a finite number (got nan)"),
        (["time", "--coincidence", "74", "--t1", "-1e3"],
         "attestation depths must be finite and >= 0"),
        (["time", "--coincidence", "74", "--t2", "-.5"],
         "attestation depths must be finite and >= 0"),
        (["perturb", "--input", str(BUNDLED / "salish_a.csv"), "--pair", "1:4",
          "--delta", "-1e3"], "perturbed coincidence -975.0 for pair ('1', '4') leaves (0, 100]"),
        (["build", "--input", str(BUNDLED / "salish_a.csv"), "--resolve-tolerance", "-1e3"],
         "--resolve-tolerance must be a finite number > 0"),
        (["merge", "--a", "a.json", "--b", "b.json", "--tolerance", "-inf"],
         "--tolerance must be a finite number > 0"),
    ], ids=["coincidence-inf", "coincidence-nan", "t1-exponent", "t2-point", "delta",
            "resolve-tolerance", "merge-tolerance"])
    def test_negative_float_values_reach_the_program(self, capsys, tmp_path, argv, message):
        """A value spelled as a negative float is the option's value, as -5
        is, so the command's own check refuses it in one line."""
        code, out, err = run(capsys, *argv, *(["--outdir", str(tmp_path / "out")]
                                              if argv[0] in ("build", "merge") else []))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_options_still_parse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["time", "-h"])
        assert exc.value.code == 0 and "--coincidence COINCIDENCE" in capsys.readouterr().out
        for unknown in ("-x", "-infinite-loop", "--nan"):
            with pytest.raises(SystemExit) as exc:
                main(["time", "--coincidence", "74", unknown])
            assert exc.value.code == 1
            assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err
        code, out, _ = run(capsys, "perturb", "--input", str(BUNDLED / "salish_a.csv"),
                           "--pair", "1:4", "--delta", "-4", "--delta", "-4e0",
                           "--mode", "paper")
        assert code == 0
        assert [line.split()[:2] for line in out.splitlines()[3:]] == [["-4.0", "21"]] * 2


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


# Salish leaves renamed so that every CSV output carries labels csv.writer
# quotes (comma, double quote, CR, LF) or leaves bare (tab, non-ASCII).
ODD_LABELS = {"1": "a,b", "2": 'say "hi"', "3": "cr\rx", "4": "lf\nx", "5": "tab\tx",
              "6": "Łódź"}


class TestCsvOutputsMatchCsvWriter:
    """evaluation.csv, predictions.csv and convert's matrix are byte for byte
    what ``csv.writer`` writes for the same fields (``oracles.csv_text``)."""

    @staticmethod
    def _table(path, numbers, values, absent=()):
        """A coincidence CSV over the renamed labels, every field quoted (a
        bare CR would end the row); ``absent`` pairs left empty."""
        labels = [ODD_LABELS[n] for n in numbers]
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow([""] + labels)
            writer.writerows(
                [lab] + ["" if (i, j) in absent or (j, i) in absent else str(v)
                         for j, v in enumerate(row)]
                for i, (lab, row) in enumerate(zip(labels, values)))
        return path

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    def test_convert(self, capsys, tmp_path, mode):
        src = self._table(tmp_path / "a.csv", "1234", SALISH_A, absent={(0, 2)})
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, "convert", "--input", str(src), "--direction", "to-svodesh",
                         "--mode", mode, "--output", str(out))
        assert code == 0
        converted = cli.chronometry.matrix_to_distances(
            oracles.read_matrix_csv(src, "coincidence"), mode)
        labels = converted.languages.labels
        want = oracles.csv_text([""] + list(labels), [
            [lab] + ["-" if i == j else "" if math.isnan(v) else cli.format_number(v, mode)
                     for j, v in enumerate(converted.values[i].tolist())]
            for i, lab in enumerate(labels)])
        assert math.isnan(converted.values[0, 2])
        assert out.read_bytes().decode("utf-8") == want

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    def test_evaluation_and_predictions(self, capsys, tmp_path, mode):
        tables = {"a": self._table(tmp_path / "a.csv", "1234", SALISH_A),
                  "b": self._table(tmp_path / "b.csv", "1256", SALISH_B)}
        for name, src in tables.items():
            code, _, _ = run(capsys, "build", "--input", str(src), "--mode", mode,
                             "--outdir", str(tmp_path / name))
            assert code == 0
        trees = {name: model.deserialize((tmp_path / name / "dendrogram.json").read_text())
                 for name in tables}

        code, _, _ = run(capsys, "evaluate", "--tree", str(tmp_path / "a" / "dendrogram.json"),
                         "--input", str(tables["a"]), "--output", str(tmp_path / "eval.csv"))
        assert code == 0
        measured = cli.chronometry.matrix_to_distances(
            oracles.read_matrix_csv(tables["a"], "coincidence"), mode)
        report = cli.refinement.evaluate(trees["a"], measured)
        labels = report.languages.labels
        want = oracles.csv_text(
            ["language_a", "language_b", "measured", "restored", "residual"],
            [[labels[i], labels[j]] + [cli.format_number(v, mode) for v in (
                measured.values[measured.languages.index(labels[i]),
                                measured.languages.index(labels[j])],
                report.restored.values[i, j], report.residuals[i, j])]
             for i, j in itertools.combinations(range(len(labels)), 2)])
        text = (tmp_path / "eval.csv").read_bytes().decode("utf-8")
        assert text == want
        assert all(quoted in text for quoted in ('"a,b"', '"say ""hi"""', '"cr\rx"', '"lf\nx"'))

        code, _, _ = run(capsys, "merge", "--a", str(tmp_path / "a" / "dendrogram.json"),
                         "--b", str(tmp_path / "b" / "dendrogram.json"),
                         "--outdir", str(tmp_path / "merged"))
        assert code == 0
        graph = cli.merger.merge(trees["a"], trees["b"], tolerance=3.0)
        predictions = cli.merger.predict_missing(graph, cli.merger.cross_pairs(graph))
        want = oracles.csv_text(
            ["language_a", "language_b", "svodesh", "coincidence", "below_threshold"],
            [[*p.pair, cli.format_number(p.distance, mode), cli.format_number(p.coincidence, mode),
              "yes" if p.below_threshold else "no"] for p in predictions])
        assert len(predictions) == 4
        text = (tmp_path / "merged" / "predictions.csv").read_bytes().decode("utf-8")
        assert text == want
        assert '"lf\nx"' in text


class TestAtomicWrite:
    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        target = tmp_path / "out.txt"
        target.write_text("old\n", encoding="utf-8")
        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            cli.atomic_write(target, "new\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
        assert target.read_text(encoding="utf-8") == "old\n"


class TestOutputModes:
    """Every file the CLI writes gets the mode a plain ``open()`` gives it,
    0666 less the umask, not the 0600 of a temporary file."""

    @pytest.mark.parametrize("argv, written", [
        (["convert", "--input", "{a}", "--direction", "to-svodesh", "--output", "{tmp}/d.csv"],
         ["d.csv"]),
        (["build", "--input", "{a}", "--outdir", "{tmp}/out"],
         ["out/dendrogram.json", "out/report.txt", "out/tree.dot"]),
        (["evaluate", "--tree", "{tmp}/a/dendrogram.json", "--input", "{a}",
          "--output", "{tmp}/e.csv"], ["e.csv"]),
        (["merge", "--a", "{tmp}/a/dendrogram.json", "--b", "{tmp}/b/dendrogram.json",
          "--outdir", "{tmp}/m"], ["m/merged.json", "m/predictions.csv"]),
    ], ids=["convert", "build", "evaluate", "merge"])
    def test_written_files_follow_the_umask(self, capsys, tmp_path, argv, written):
        for name in ("a", "b"):
            assert run(capsys, "build", "--input", str(BUNDLED / f"salish_{name}.csv"),
                       "--outdir", str(tmp_path / name))[0] == 0
        argv = [arg.format(a=BUNDLED / "salish_a.csv", tmp=tmp_path) for arg in argv]
        umask = os.umask(0o027)
        try:
            code, _, _ = run(capsys, *argv)
        finally:
            os.umask(umask)
        assert code == 0
        for name in written:
            assert oct((tmp_path / name).stat().st_mode & 0o777) == oct(0o640), name
