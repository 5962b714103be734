"""The JSON readers, fuzzed: a mutated document gives exit 0 or one error line.

A real ``dendrogram.json`` and ``merged.json`` get one or two fields deleted
or replaced, and each mutated file goes through every command that reads a
document: ``evaluate --tree``, ``merge --a`` and ``render`` in each format.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isolect import cli
from test_csv_input import _assert_clean_exit, _run

BUNDLED = Path(__file__).parent.parent / "data"

HUGE = 10**400  # a JSON integer beyond float range
REPLACEMENTS = (None, True, False, "3", "abc", "", [], {}, [1, "2"], {"x": 1},
                1e308, -1e308, HUGE, -HUGE, -1, 0, 0.5)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The paper-mode salish A tree, the B tree and their merge."""
    out = tmp_path_factory.mktemp("json")
    for name in ("a", "b"):
        assert cli.main(["build", "--input", str(BUNDLED / f"salish_{name}.csv"),
                         "--mode", "paper", "--outdir", str(out / name)]) == 0
    assert cli.main(["merge", "--a", str(out / "a" / "dendrogram.json"),
                     "--b", str(out / "b" / "dendrogram.json"),
                     "--outdir", str(out / "m")]) == 0
    return out


def _paths(node, prefix=()):
    """Every field and list entry below ``node``, as key paths."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _mutate(doc, path, value, delete=False):
    parent = _at(doc, path[:-1])
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


@st.composite
def mutations(draw, doc):
    """``doc`` with one or two fields deleted, replaced, or wrapped in a list,
    an object or a string."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(sorted(_paths(doc), key=repr)))
        old = _at(doc, path)
        value = draw(st.sampled_from(REPLACEMENTS + ([old], {"value": old}, str(old))))
        _mutate(doc, path, copy.deepcopy(value),
                delete=draw(st.sampled_from((True, False, False))))
    return doc


def _check_every_reader(documents, text, scratch):
    mutated = scratch / "mutated.json"
    mutated.write_text(text, encoding="utf-8")
    _assert_clean_exit(*_run([
        "evaluate", "--tree", str(mutated), "--input", str(BUNDLED / "salish_a.csv"),
        "--output", str(scratch / "evaluation.csv")]))
    code, stderr = _run(["merge", "--a", str(mutated), "--b",
                         str(documents / "b" / "dendrogram.json"),
                         "--outdir", str(scratch / "merged")])
    if code == cli.EXIT_CONSISTENCY:  # the shared part moved: refused on stdout
        assert stderr == ""
    else:
        _assert_clean_exit(code, stderr)
    for fmt in ("dot", "text", "newick-lossy"):
        _assert_clean_exit(*_run(["render", "--tree", str(mutated), "--format", fmt]))


def _load(documents, name):
    return json.loads((documents / name).read_text(encoding="utf-8"))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_dendrogram_document(documents, scratch, data):
    doc = data.draw(mutations(_load(documents, "a/dendrogram.json")))
    _check_every_reader(documents, json.dumps(doc, indent=2), scratch)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_segment_graph_document(documents, scratch, data):
    doc = data.draw(mutations(_load(documents, "m/merged.json")))
    _check_every_reader(documents, json.dumps(doc, indent=2), scratch)


@pytest.mark.parametrize("name, edits", [
    pytest.param("a/dendrogram.json", {("junctions", 0, "lateral"): 1e308}, id="lateral-1e308"),
    pytest.param("a/dendrogram.json", {("junctions", 1, "depth"): HUGE}, id="depth-huge"),
    pytest.param("a/dendrogram.json", {("junctions", 0, "lateral"): 1.7e308,
                                       ("junctions", 1, "lateral"): 1.7e308},
                 id="path-beyond-float-range"),
    pytest.param("a/dendrogram.json", {("weights",): "1234"}, id="weights-string"),
    pytest.param("b/dendrogram.json", {("junctions", 2, "status", "depth_min"): 90,
                                       ("junctions", 2, "status", "depth_max"): 10},
                 id="depth-range-reversed"),
    pytest.param("m/merged.json", {("nodes", 0, "depth"): HUGE}, id="node-depth-huge"),
    pytest.param("m/merged.json", {("nodes", 1, "depth"): "3"}, id="node-depth-string"),
    pytest.param("m/merged.json", {("edges", 0, "length"): HUGE}, id="edge-length-huge"),
    pytest.param("m/merged.json", {("edges", 0, "length"): True}, id="edge-length-bool"),
    pytest.param("m/merged.json", {("leaves_b",): "xyz"}, id="leaves-string"),
    pytest.param("m/merged.json", {("languages",): "x"}, id="languages-string"),
    pytest.param("m/merged.json", {("languages", 0, "name"): "9"}, id="languages-other-leaf"),
])
def test_known_bad_fields(documents, tmp_path, name, edits):
    doc = _load(documents, name)
    for path, value in edits.items():
        _mutate(doc, path, value)
    _check_every_reader(documents, json.dumps(doc, indent=2), tmp_path)


@pytest.mark.parametrize("what", ["too-many-digits", "nested-too-deep"])
def test_text_python_cannot_decode(documents, tmp_path, what):
    # The json module raises other errors than JSONDecodeError for these.
    text = (documents / "a/dendrogram.json").read_text(encoding="utf-8")
    spelled = "1" + "0" * 5000 if what == "too-many-digits" else "[" * 10**5 + "]" * 10**5
    text = text.replace('"depth": 14', '"depth": ' + spelled, 1)
    assert spelled in text
    _check_every_reader(documents, text, tmp_path)


@pytest.mark.parametrize("name", ["a/dendrogram.json", "m/merged.json"])
@pytest.mark.parametrize("reader", ["evaluate", "merge-a", "merge-b", "render"])
def test_byte_beyond_utf8_is_one_located_line(documents, tmp_path, name, reader):
    lines = (documents / name).read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b'"', b'"\xff', 1)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\n".join(lines))
    other = str(documents / "b" / "dendrogram.json")
    argv = {
        "evaluate": ["evaluate", "--tree", str(bad), "--input", str(BUNDLED / "salish_a.csv"),
                     "--output", str(tmp_path / "evaluation.csv")],
        "merge-a": ["merge", "--a", str(bad), "--b", other, "--outdir", str(tmp_path)],
        "merge-b": ["merge", "--a", other, "--b", str(bad), "--outdir", str(tmp_path)],
        "render": ["render", "--tree", str(bad), "--format", "text"],
    }[reader]
    assert _run(argv) == (cli.EXIT_INPUT, f"error: file is not UTF-8 text (at {bad}:3)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_segment_graph_repeating_a_leaf_label_is_rejected(documents, tmp_path):
    # Node 2 carries leaf 1 too; the lists of leaves agree with the nodes.
    doc = _load(documents, "m/merged.json")
    doc["nodes"][1]["leaf"] = doc["languages"][1]["name"] = "1"
    for key in ("leaves_a", "leaves_b"):
        doc[key].remove("2")
    mutated = tmp_path / "merged.json"
    mutated.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    for fmt in ("dot", "text", "newick-lossy"):
        assert _run(["render", "--tree", str(mutated), "--format", fmt]) == (
            cli.EXIT_INPUT,
            "error: bad segment-graph payload: segment graph leaf labels must be unique\n")
