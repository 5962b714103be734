"""The CSV readers: equal to the plain csv.reader-and-float reader, and fuzzed."""

import contextlib
import csv
import importlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from isolect import cli
from isolect.errors import ParseError

BUNDLED = Path(__file__).parent.parent / "data"
DATA = Path(__file__).parent / "data"

SPACES = ("", " ", "  ", "\t", "\xa0", "\u3000")
ABSENT = ("", "-", "NA", "na", "n/a")
BAD = ("nan", "inf", "-inf", "1e400", "abc", "1__0", "_1", "0x10", "-5", "0", "101",
       "1 0", "١٢")
LABELS = ("a", "B", "L01", "x y", "a,b", 'q"t', "two\nlines", " pad ", "é", "")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def _spell(rnd, value: int) -> str:
    """One of several spellings of an integer, with surrounding spaces."""
    digits = str(value)
    text = rnd.choice((
        digits, f"{value}.0", f"{value / 10}e1", f"{value * 10}e-1", f"+{value}",
        f"{value:.3f}", f"{digits[0]}_{digits[1:]}" if len(digits) > 1 else digits,
    ))
    return rnd.choice(SPACES) + text + rnd.choice(SPACES)


@st.composite
def matrix_csvs(draw) -> str:
    """A labeled matrix CSV written by csv.writer; about half of them are valid.

    In about half of them every lower cell is spelled exactly as its mirror
    above the diagonal, bad and absent cells included, which the reader
    copies instead of parsing; elsewhere each cell is spelled on its own.
    """
    rnd = draw(st.randoms(use_true_random=True))
    k = draw(st.integers(1, 12))
    mirrored = rnd.random() < 0.5
    labels = [rnd.choice(LABELS) if rnd.random() < 0.1 else f"L{i}" for i in range(k)]
    base = {(i, j): rnd.randint(1, 100) for i in range(k) for j in range(i + 1, k)}
    rows = [[rnd.choice(("", " "))] + labels]
    upper = {}  # (i, j) -> the spelling of cell (i, j), before a row loses a cell
    for i in range(k):
        row = [rnd.choice(SPACES) + (labels[i] if rnd.random() > 0.01 else "other")]
        for j in range(k):
            if i == j:
                diagonal = rnd.choice(ABSENT if rnd.random() < 0.9 else ("100", "0", "5"))
                row.append(rnd.choice(SPACES) + diagonal + rnd.choice(SPACES))
            elif mirrored and j < i:
                row.append(upper[j, i])
            else:
                if rnd.random() < 0.01:
                    row.append(rnd.choice(ABSENT + BAD))
                else:
                    row.append(_spell(rnd, base[min(i, j), max(i, j)]))
                upper[i, j] = row[-1]
        if rnd.random() < 0.01:
            del row[rnd.randint(0, k)]
        rows.append(row)
    eol = rnd.choice(("\n", "\r\n", "\r"))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=eol,
                        quoting=rnd.choice((csv.QUOTE_MINIMAL, csv.QUOTE_ALL)))
    for row in rows:
        writer.writerow(row)
        if rnd.random() < 0.1:
            out.write(rnd.choice(("", " ", ",,", " , ")) + eol)
    text = out.getvalue()
    return text.rstrip("\r\n") if rnd.random() < 0.5 else text


def _outcome(read, path, kind):
    try:
        matrix = read(path, kind)
    except ParseError as exc:
        return "error", str(exc), exc.location
    return type(matrix).__name__, matrix.languages.labels, matrix.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=matrix_csvs(), kind=st.sampled_from(("coincidence", "distance")))
@example(text="x\n", kind="coincidence")  # a header naming no languages
def test_matrix_reader_matches_reference(scratch, text, kind):
    path = scratch / "matrix.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(cli.read_matrix_csv, path, kind) == _outcome(
        oracles.read_matrix_csv, path, kind
    )


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("ab1 ,\n\t\x0b\x0c\x1c\x85\u2028\u3000é"), max_size=120))
def test_row_splitter_matches_csv_reader(text):
    # The one pass splits the lines _plain_lines gives on ","; csv.reader reads
    # an empty line as no cells.
    lines = cli._plain_lines(text)
    assert lines is not None
    assert [line.split(",") if line else [] for line in lines] == list(
        csv.reader(io.StringIO(text, newline="")))


# -- the one-pass read of the common table -------------------------------------

FLAWS = ("respelled", "near", "absent", "diagonal", "upper-nonfinite", "lower-nonfinite",
         "short-row", "wrong-label", "blank-lines", "quoted-label", "crlf")


@st.composite
def common_tables(draw):
    """A mirrored table as build-planted and iterate-paper write it (plain
    text, "-" on the diagonal, each lower cell spelled as its mirror), with
    none, one or several ``FLAWS`` and the flaws it has."""
    rnd = draw(st.randoms(use_true_random=True))
    k = draw(st.integers(1, 9))
    flaws = draw(st.sets(st.sampled_from(FLAWS), max_size=3)) if rnd.random() < 0.7 else set()
    if k == 1:  # no pair to flaw
        flaws -= {"respelled", "near", "absent", "upper-nonfinite", "lower-nonfinite"}
    labels = [f"L{i}" for i in range(k)]
    upper = {(i, j): repr(rnd.uniform(1, 99)) if rnd.random() < 0.5 else str(rnd.randint(1, 99))
             for i in range(k) for j in range(i + 1, k)}
    cells = [[rnd.choice(ABSENT[1:3]) if i == j else upper[min(i, j), max(i, j)]
              for j in range(k)] for i in range(k)]
    pairs = sorted(upper)

    def some_pair(lower):
        i, j = rnd.choice(pairs)
        return (j, i) if lower else (i, j)

    if "respelled" in flaws:
        i, j = some_pair(lower=True)
        text = cells[i][j]
        cells[i][j] = rnd.choice((f" {text}", f"{text} ", text + ("0" if "." in text else ".0")))
    if "near" in flaws:
        i, j = some_pair(lower=True)
        cells[i][j] = repr(float(cells[i][j]) + rnd.choice((1e-10, -4e-10, 9e-10)))
    if "absent" in flaws:
        i, j = some_pair(lower=rnd.random() < 0.5)
        cells[i][j] = rnd.choice(ABSENT)
        if rnd.random() < 0.5:
            cells[j][i] = cells[i][j]
    if "diagonal" in flaws:
        i = rnd.randrange(k)
        cells[i][i] = rnd.choice(("0", "100", "5", " 0 "))
    for side in ("upper", "lower"):
        if f"{side}-nonfinite" in flaws:
            i, j = some_pair(lower=side == "lower")
            cells[i][j] = rnd.choice(("nan", "inf", "-inf", "1e400"))
            if side == "upper" and rnd.random() < 0.5:
                cells[j][i] = cells[i][j]
    rows = [["", *labels]] + [[labels[i], *cells[i]] for i in range(k)]
    if "quoted-label" in flaws:
        rows[0][1] = rows[1][0] = "L,0"
    if "wrong-label" in flaws:
        rows[rnd.randint(1, k)][0] = "other"
    if "short-row" in flaws:
        row = rows[rnd.randint(1, k)]
        del row[rnd.randint(1, k)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n" if "crlf" in flaws else "\n")
    for row in rows:
        writer.writerow(row)
        if "blank-lines" in flaws and rnd.random() < 0.3:
            out.write(rnd.choice(("", "  ", ",,", " , \t")) + "\n")
    return out.getvalue(), flaws


@settings(max_examples=400, deadline=None)
@given(table=common_tables(), kind=st.sampled_from(("coincidence", "distance")))
def test_one_pass_agrees_with_the_per_cell_path(scratch, table, kind):
    """The one pass and the per-cell path give the same values bit for bit
    and the same first located error, as the reference reader does, and the
    pass takes exactly the tables that are still the common one."""
    text, flaws = table
    path = scratch / "common.csv"
    path.write_text(text, encoding="utf-8", newline="")
    taken = []

    def one_pass(*args):
        taken.append(original(*args))
        return taken[-1]

    original = cli._one_pass
    with mock.patch.object(cli, "_one_pass", one_pass):
        fast = _outcome(cli.read_matrix_csv, path, kind)
    with mock.patch.object(cli, "_one_pass", lambda *args: None):
        assert _outcome(cli.read_matrix_csv, path, kind) == fast
    assert fast == _outcome(oracles.read_matrix_csv, path, kind)
    # Blank lines are the one flaw that leaves a table the common one.
    assert [v is not None for v in taken] == ([True] if flaws <= {"blank-lines"} else
                                              [False] * len(taken))


ROOT = Path(__file__).parent.parent
BENCHMARK_KINDS = {"build-planted": "distance", "iterate-paper": "coincidence",
                   "merge-overlap": "distance"}


def test_benchmark_tables_take_the_one_pass(tmp_path, monkeypatch):
    """Every table a benchmark workload reads is the common one: ``data/*.csv``
    and the inputs perfbench's workloads write at seeds 0-2.  The reference
    walk serves only other inputs; a table that reaches it fails this test."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tables = [(path, "coincidence") for path in sorted(BUNDLED.glob("*.csv"))]
    for name, kind in BENCHMARK_KINDS.items():
        for seed in range(3):
            work = tmp_path / f"{name}-{seed}"
            work.mkdir()
            workloads.WORKLOADS[name](ROOT, work, seed).prepare()
            tables += [(path, kind) for path in sorted(work.glob("*.csv"))]
    taken = []
    original = cli._one_pass
    with mock.patch.object(cli, "_one_pass",
                           lambda *args: taken.append(original(*args)) or taken[-1]):
        for path, kind in tables:
            cli.read_matrix_csv(path, kind)
    assert len(taken) == len(tables) == 3 + 3 * (1 + 1 + 2)
    assert [str(path) for (path, _), found in zip(tables, taken) if found is None] == []


# -- over-long fields ---------------------------------------------------------

LONG = "1" * (csv.field_size_limit() + 1)


def test_unknown_matrix_kind_is_refused_before_reading():
    with pytest.raises(ValueError) as exc:
        cli.read_matrix_csv(BUNDLED / "no-such-file.csv", "weights")
    assert str(exc.value) == "unknown matrix kind 'weights'"


def test_overlong_matrix_field_is_one_located_error(tmp_path):
    src = tmp_path / "long.csv"
    src.write_text(f",a,b\na,-,{LONG}\nb,5,-\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "isolect", "build", "--input", str(src),
         "--outdir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr == (
        f"error: field larger than field limit ({csv.field_size_limit()})"
        f" (at {src}:2)\n"
    )


def test_overlong_weights_field_is_located(capsys, tmp_path):
    weights = tmp_path / "w.csv"
    weights.write_text(f"1,1\n2,1\n3,{LONG}\n4,1\n")
    code = cli.main(["build", "--input", str(BUNDLED / "salish_a.csv"),
                     "--weights", str(weights), "--outdir", str(tmp_path)])
    assert code == cli.EXIT_INPUT
    assert f"(at {weights}:3)" in capsys.readouterr().err


# -- fuzz: mutated CSVs give exit 0 or one error line -------------------------

PIECES = (b",", b'"', b"\n", b"\r", b"\r\n", b" ", b"-", b"NA", b"1e400", b"nan",
          b"\xff", b"\x00", b"9", b"0", b"e", b"_", b".", b"x", b"\xc3\xa9")


@st.composite
def mutated(draw, base: bytes) -> bytes:
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        end = min(len(data), at + draw(st.integers(0, 6)))
        op = draw(st.sampled_from(("insert", "delete", "replace", "repeat", "cut")))
        if op == "insert":
            data[at:at] = draw(st.sampled_from(PIECES))
        elif op == "delete":
            del data[at:end]
        elif op == "replace":
            data[at:end] = draw(st.sampled_from(PIECES))
        elif op == "repeat":
            data[at:at] = data[at:end]
        else:
            del data[at:]
    return bytes(data)


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process command; a warning is a line of it too."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue() + "".join(f"{w.message}\n" for w in caught)


def _assert_clean_exit(code, stderr):
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT), stderr
    if code == cli.EXIT_INPUT:
        assert stderr.startswith("error: ") and stderr.endswith("\n"), stderr
        assert stderr.count("\n") == 1 and "\r" not in stderr, stderr
    assert "Traceback" not in stderr


def test_error_naming_a_multiline_label_is_one_line(scratch):
    src = scratch / "multiline.csv"
    src.write_text(',"a\r\nb",c\n"a\r\nb",-,5\nc,6,-\n', newline="")
    code, stderr = _run(["build", "--input", str(src), "--outdir", str(scratch / "ml")])
    assert stderr == f"error: asymmetric at (a\\r\\nb, c): 5.0 vs 6.0 (at {src})\n"
    _assert_clean_exit(code, stderr)


@pytest.fixture(scope="module")
def salish_tree(scratch):
    assert cli.main(["build", "--input", str(BUNDLED / "salish_a.csv"), "--mode", "paper",
                     "--outdir", str(scratch / "tree")]) == 0
    return scratch / "tree" / "dendrogram.json"


@settings(max_examples=150, deadline=None)
@given(data=mutated((BUNDLED / "salish_a.csv").read_bytes()))
def test_fuzz_build(scratch, data):
    (scratch / "fuzz.csv").write_bytes(data)
    _assert_clean_exit(*_run(["build", "--input", str(scratch / "fuzz.csv"), "--mode",
                              "paper", "--outdir", str(scratch / "fuzz_build")]))


@settings(max_examples=150, deadline=None)
@given(data=mutated((DATA / "salish_a_distances.csv").read_bytes()))
def test_fuzz_evaluate_distances(scratch, salish_tree, data):
    (scratch / "fuzz_d.csv").write_bytes(data)
    _assert_clean_exit(*_run(["evaluate", "--tree", str(salish_tree), "--input",
                              str(scratch / "fuzz_d.csv"), "--kind", "distance",
                              "--output", str(scratch / "evaluation.csv")]))


@settings(max_examples=150, deadline=None)
@given(data=mutated(b"1,1\n2,2\n3,1.5\n4,1\n"))
def test_fuzz_build_weights(scratch, data):
    (scratch / "fuzz_w.csv").write_bytes(data)
    _assert_clean_exit(*_run(["build", "--input", str(BUNDLED / "salish_a.csv"),
                              "--weights", str(scratch / "fuzz_w.csv"), "--mode", "paper",
                              "--outdir", str(scratch / "fuzz_weights")]))
