"""Command-line toolkit: ingestion, pipeline commands, reports, renderings.

Every command is a thin shell over the library: outputs are reproducible
byte for byte from library calls, inputs are never mutated, and files are
written atomically.  Exit codes: 0 ok, 1 input error, 2 consistency
failure, 3 clamp/infeasibility flags under --strict.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import functools
import io
import itertools
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import builder, chronometry, merger, model, refinement
from .errors import ConsistencyError, DomainError, InputError, IsolectError, ParseError
from .modes import MODES, PAPER

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONSISTENCY = 2
EXIT_STRICT = 3

ABSENT_TOKENS = {"", "-", "na", "NA", "n/a"}
_FILLED = re.compile(r"[^\s,]")  # a CSV line with a non-blank cell (\s is str.isspace)


# -- formatting --------------------------------------------------------------


def format_number(x: float, mode: str) -> str:
    if mode == PAPER and math.isfinite(x):
        return str(int(round(x)))
    return f"{x:.2f}"


def format_column(values: np.ndarray, mode: str):
    """``format_number`` of each value of a float array, in order."""
    if mode == PAPER:
        # np.rint rounds half to even, as round() does.  A paper-mode column
        # holds few distinct integers, so each is written once.
        distinct, inverse = np.unique(np.rint(values), return_inverse=True)
        return map([str(int(v)) for v in distinct.tolist()].__getitem__, inverse.tolist())
    return map("{:.2f}".format, values.tolist())


def default_mode(explicit: str | None) -> str:
    mode = explicit or os.environ.get("SVODESH_MODE") or PAPER
    if mode not in MODES:
        raise InputError(
            f"mode {mode!r} (from --mode or SVODESH_MODE) must be one of {MODES}"
        )
    return mode


def atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    umask = os.umask(0)  # os.umask is the only reader of the mask: put it back
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_quote(fields) -> dict[str, str]:
    """Each distinct text field as a CSV line holds it: in double quotes,
    its quotes doubled, when it holds a comma, a double quote, LF or CR."""
    return {field: '"' + field.replace('"', '""') + '"' if any(c in field for c in ',"\n\r')
            else field for field in dict.fromkeys(fields)}


def _csv_text(header: list[str], rows) -> str:
    """A CSV document, each line ending in LF: the header, then ``rows``,
    whose fields are joined as they are.  Callers quote text fields through
    ``_csv_quote``; formatted numbers, "-", "" and yes/no never need quoting."""
    quoted = _csv_quote(header)
    return "\n".join([",".join(map(quoted.__getitem__, header)), *map(",".join, rows), ""])


# -- input files and matrix CSV ----------------------------------------------


def _read_text(path) -> str:
    """A UTF-8 input file's text, less one leading byte-order mark;
    undecodable bytes are reported by line."""
    try:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError("file is not UTF-8 text", f"{path}:{line}") from None


def _plain_lines(text: str) -> list[str] | None:
    """The lines of ``text``, a non-empty one read by csv.reader as its
    comma-split cells, or None when a quote, CR or NUL (an error before
    Python 3.11) or a line over the field size limit needs csv.reader."""
    lines = text.split("\n")
    if lines[-1] == "":  # the final newline, or an empty file
        lines.pop()
    if any(c in text for c in '"\r\0') or max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return lines


def _csv_rows(path, text: str | None = None) -> list[list[str]]:
    """All rows of a UTF-8 CSV file, whose ``text`` may be given."""
    text = _read_text(path) if text is None else text
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise ParseError(str(exc), f"{path}:{reader.line_num}") from None


def _matrix_cell(cell: str, absent: float, where: str) -> float:
    if cell in ABSENT_TOKENS:
        return absent
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"cell {cell!r} is not a number", where) from None


def _one_pass(text: str, diagonal: float) -> tuple[list[str], np.ndarray] | None:
    """The labels and values of the common table in one pass, or None for any
    other table: plain text, complete rows, an absent diagonal, lower cells
    spelled as their mirrors and finite upper cells.  Never raises."""
    if (lines := _plain_lines(text)) is None:
        return None
    rows = [line for line in lines if _FILLED.search(line)]
    k = len(rows) - 1
    if k < 1 or rows[0].count(",") != k:
        return None
    labels = [c.strip() for c in rows[0].split(",")[1:]]
    # Row i cut from the right only as far as its diagonal and shifted by i,
    # so that cut[i][i] holds its label and lower cells and cut[i][j + 1] its cell j >= i.
    cut = [[None] * i + line.rsplit(",", k - i) for i, line in enumerate(rows[1:])]
    if any(len(row) != k + 1 for row in cut):
        return None
    columns = list(zip(*cut))  # columns[i + 1][:i]: the mirrors of row i's lower cells
    for i, row in enumerate(cut):
        head = row[i].partition(",")[0]
        if (row[i + 1].strip() not in ABSENT_TOKENS or head.strip() != labels[i]
                or row[i] != ",".join((head, *columns[i + 1][:i]))):
            return None
    cells = itertools.chain.from_iterable(row[i + 2:] for i, row in enumerate(cut))
    try:  # the strict upper triangle, parsed once and written into both triangles
        parsed = np.fromiter(map(float, cells), float, k * (k - 1) // 2)
    except ValueError:  # an absent pair or a malformed cell
        return None
    values = np.full((k, k), diagonal)
    upper = ~np.tri(k, dtype=bool)
    values[upper] = values.T[upper] = parsed  # row by row above, column by column below
    return (labels, values) if np.isfinite(parsed).all() else None


def _walk(path, text: str, diagonal: float) -> tuple[list[str], np.ndarray]:
    """The labels and values of any table, one cell at a time through
    csv.reader, each error located: header, then each row's length, label
    and cells, then the cells that are not finite numbers."""
    rows = [(line, row) for line, row in enumerate(_csv_rows(path, text), start=1)
            if any(c.strip() for c in row)]
    if not rows:
        raise ParseError("empty matrix file", str(path))
    header_line, header = rows[0]
    labels = [c.strip() for c in header[1:]]
    k = len(labels)
    if k == 0:
        raise ParseError("header row names no languages", f"{path}:{header_line}")
    if len(rows) != k + 1:
        raise ParseError(
            f"expected {k} data rows for {k} languages, found {len(rows) - 1}",
            str(path),
        )
    values = np.full((k, k), np.nan)
    for i, (line, row) in enumerate(rows[1:]):
        if len(row) != k + 1:
            raise ParseError(
                f"row has {len(row) - 1} cells, expected {k}", f"{path}:{line}"
            )
        if (label := row[0].strip()) != labels[i]:
            raise ParseError(
                f"row label {label!r} does not match header order "
                f"(expected {labels[i]!r})",
                f"{path}:{line}",
            )
        values[i] = [_matrix_cell(c.strip(), diagonal if i == j else np.nan,
                                  f"{path}:{line} column {labels[j]}")
                     for j, c in enumerate(row[1:])]
    for i, j in np.argwhere(~np.isfinite(values)):  # absent pairs, or cells like nan, inf
        line, row = rows[i + 1]
        if (cell := row[j + 1].strip()) not in ABSENT_TOKENS:
            raise ParseError(f"cell {cell!r} is not a finite number",
                             f"{path}:{line} column {labels[j]}")
    return labels, values


def read_matrix_csv(path, kind: str):
    """Read the square labeled-matrix CSV format.

    First row: empty cell then language names; each following row repeats
    the language name and k cells.  Cells: a number, "-" (diagonal), or
    ""/"NA" for an absent pair.  ``kind`` is "coincidence" or "distance".
    """
    if kind not in ("coincidence", "distance"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    text = _read_text(path)
    diagonal = 100.0 if kind == "coincidence" else 0.0
    labels, values = _one_pass(text, diagonal) or _walk(path, text, diagonal)
    try:
        languages = model.LanguageSet(tuple(labels))
        if kind == "coincidence":
            return model.CoincidenceMatrix(languages, values)
        return model.DistanceMatrix(languages, values)
    except DomainError as exc:
        raise ParseError(str(exc), str(path)) from None


def _matrix_number(x: float, mode: str) -> str:
    """``format_number``, except that a positive value it would write as 0 is
    written as its ``repr``, so that the file reads back in range."""
    text = format_number(x, mode)
    return repr(x) if x > 0 and float(text) == 0 else text


def matrix_to_csv(matrix, mode: str) -> str:
    labels = matrix.languages.labels
    quoted = _csv_quote(labels)
    rows = (
        [quoted[label]] + ["-" if i == j else "" if np.isnan(v) else _matrix_number(v, mode)
                           for j, v in enumerate(matrix.values[i].tolist())]
        for i, label in enumerate(labels)
    )
    return _csv_text([""] + list(labels), rows)


# -- naming and reports ------------------------------------------------------


def cluster_name(dendrogram: model.Dendrogram, node_id: int) -> str:
    labels = dendrogram.languages.labels
    members = dendrogram.members(node_id)
    if len(members) == 1:
        return labels[members[0]]
    return f"({labels[members[0]]}-{labels[members[-1]]})"


def build_report(
    dendrogram: model.Dendrogram,
    graph: merger.SegmentGraph,
    trace: refinement.IterationTrace | None,
    weights_source: str,
    external_means: str,
) -> str:
    mode = dendrogram.mode
    labels = dendrogram.languages.labels
    k = len(labels)
    lines = []
    lines.append("isolect build report")
    lines.append("====================")
    lines.append(f"mode: {mode}")
    lines.append(f"languages ({k}): {', '.join(labels)}")
    lines.append(f"weights: {weights_source}")
    lines.append(f"external means: {external_means}")
    lines.append("")
    lines.append("junctions (in merge order):")
    unresolved = []
    clamp_flags = []
    for idx, jn in enumerate(dendrogram.junctions):
        near = cluster_name(dendrogram, jn.near)
        far = cluster_name(dendrogram, jn.far)
        carrier = labels[dendrogram.carrier(k + idx)]
        extra = ""
        if jn.status == model.UNRESOLVED:
            extra = (
                f"  UNRESOLVED total {format_number(jn.total_length, mode)}"
                f" (feasible depth {format_number(jn.depth_range[0], mode)}"
                f"..{format_number(jn.depth_range[1], mode)})"
            )
            unresolved.append((idx, near, far, jn))
        elif model.FLAG_CROSS_CHECKED in jn.flags:
            extra = "  resolved by cross-check"
        clamps = [f for f in jn.flags if f in model.CLAMP_FLAGS]
        if clamps:
            extra += "  [" + ", ".join(clamps) + "]"
            clamp_flags.extend(clamps)
        lines.append(
            f"  [{idx:2d}] {near} + {far}"
            f"  depth {format_number(jn.depth, mode)}"
            f"  lateral {format_number(jn.lateral, mode)}"
            f"  anchor on {carrier}{extra}"
        )
    lines.append("")
    lines.append("chain epochs:")
    widths = merger.chain_widths(graph)
    if not widths:
        lines.append("  none (purely vertical tree)")
    else:
        deepest = widths[0][0]
        for depth, width, count in widths:
            word = "chain width" if depth == deepest else "chain extension"
            lines.append(
                f"  depth {format_number(depth, mode)}: {word} "
                f"{format_number(width, mode)} ({count} segment"
                f"{'s' if count != 1 else ''})"
            )
    lines.append("")
    if unresolved:
        lines.append("unresolved links:")
        for idx, near, far, jn in unresolved:
            lines.append(
                f"  [{idx:2d}] {near} + {far}: total length "
                f"{format_number(jn.total_length, mode)}; the vertical/lateral "
                f"split is not determined by the data"
            )
    else:
        lines.append("unresolved links: none")
    lines.append(
        "clamp flags: " + (", ".join(sorted(set(clamp_flags))) or "none")
    )
    if trace is not None:
        lines.append("")
        lines.append(f"iterated build: {len(trace.passes)} passes")
        for p, rec in enumerate(trace.passes):
            change = (
                "n/a" if rec.weight_change is None
                else f"{rec.weight_change:.3f}"
            )
            lines.append(
                f"  pass {p + 1}: max |residual| "
                f"{format_number(rec.report.max_abs_residual(), mode)}, "
                f"weight change vs previous {change}"
            )
        final = trace.passes[-1]
        lines.append("  final weights: " + ", ".join(
            f"{lab} {format_number(w, mode)}"
            for lab, w in zip(labels, final.weights.values)
        ))
        lines.append("  dispersions: " + ", ".join(
            f"{lab} {final.report.dispersions[i]:.1f}"
            for i, lab in enumerate(labels)
        ))
    lines.append("")
    return "\n".join(lines)


# -- renderings --------------------------------------------------------------


def _quote_dot(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


_DOT_STYLE = {merger.VERTICAL: "style=solid", merger.LATERAL: "style=solid, constraint=false",
              merger.UNRESOLVED_EDGE: "style=dashed"}


def render_dot(graph: merger.SegmentGraph, mode: str) -> str:
    lines = ["graph dendrogram {", "  rankdir=BT;", "  node [shape=point];"]
    quoted = {n.id: _quote_dot(n.id) for n in graph.nodes}
    lines += [f"  {quoted[n.id]} [shape=diamond, label={_quote_dot(n.leaf)}];"
              for n in graph.nodes if n.leaf is not None]
    node_depth = {n.id: n.depth for n in graph.nodes}
    by_depth: dict[str, list[str]] = {}
    for edge in graph.edges:  # a formatted number needs no escaping
        lines.append(f'  {quoted[edge.a]} -- {quoted[edge.b]} '
                     f'[label="{format_number(edge.length, mode)}", {_DOT_STYLE[edge.kind]}];')
        if edge.kind == merger.LATERAL:
            depth_key = format_number(node_depth[edge.a], mode)
            by_depth.setdefault(depth_key, []).extend([edge.a, edge.b])
    for depth_key in sorted(by_depth):
        ids = sorted(set(by_depth[depth_key]))
        lines.append(
            "  { rank=same; " + " ".join(f"{quoted[i]};" for i in ids) + " }"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_text(graph: merger.SegmentGraph, mode: str) -> str:
    lines = ["segment graph"]
    for node in sorted(graph.nodes, key=lambda n: (n.depth, n.id)):
        tag = f" (leaf {node.leaf})" if node.leaf else ""
        lines.append(f"  node {node.id} at depth {format_number(node.depth, mode)}{tag}")
    for edge in graph.edges:
        lines.append(
            f"  {edge.kind:10s} {edge.a} -- {edge.b} length "
            f"{format_number(edge.length, mode)} [{edge.provenance}]"
        )
    widths = merger.chain_widths(graph)
    for depth, width, count in widths:
        lines.append(
            f"  chain at depth {format_number(depth, mode)}: width "
            f"{format_number(width, mode)}"
        )
    return "\n".join(lines) + "\n"


def _quote_newick(s: str) -> str:
    if any(c in s for c in " (),:;'[]"):
        return "'" + s.replace("'", "''") + "'"
    return s


def render_newick_lossy(dendrogram: model.Dendrogram, mode: str) -> str:
    """Newick export that folds lateral widths into the far branch length.

    Leaf-to-leaf path lengths are preserved; the vertical/lateral split is
    not representable in Newick and is lost.
    """
    anchor = dendrogram.anchor_depth
    # Each node's text, by node id: a junction's children come before it.
    texts = [_quote_newick(label) for label in dendrogram.languages.labels]
    for jn, (near_len, far_len) in zip(dendrogram.junctions, dendrogram.gains()):
        if jn.status == model.UNRESOLVED:
            # Split the fixed total so the two displayed branches sum to it
            # exactly even after integer-mode formatting.
            near_len = (jn.total_length + anchor(jn.far) - anchor(jn.near)) / 2.0
            if mode == PAPER:
                near_len = float(format_number(near_len, mode))
            far_len = jn.total_length - near_len
        texts.append(
            f"({texts[jn.near]}:{format_number(near_len, mode)},"
            f"{texts[jn.far]}:{format_number(far_len, mode)})"
        )
    return texts[-1] + ";\n"


# -- commands ----------------------------------------------------------------


def cmd_convert(args) -> int:
    mode = default_mode(args.mode)
    if args.direction == "to-svodesh":
        matrix = read_matrix_csv(args.input, "coincidence")
        converted = chronometry.matrix_to_distances(matrix, mode)
    else:
        matrix = read_matrix_csv(args.input, "distance")
        converted = chronometry.matrix_to_coincidences(matrix, mode)
    text = matrix_to_csv(converted, mode)
    if args.output:
        atomic_write(Path(args.output), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_weights_arg(value: str, languages: model.LanguageSet):
    if value in ("unit", "iterate"):
        return value
    path = Path(value)
    if not path.exists():
        raise InputError(
            f"--weights must be 'unit', 'iterate', or a CSV file; {value!r} "
            f"is none of these"
        )
    table = {}
    for line, row in enumerate(_csv_rows(path), start=1):
        if not any(c.strip() for c in row):
            continue
        where = f"{path}:{line}"
        label = row[0].strip()
        if not label or len(row) < 2 or any(c.strip() for c in row[2:]):
            raise ParseError("weight rows need 'language,weight'", where)
        if label in table:
            raise ParseError(f"language {label!r} is given twice", where)
        try:
            table[label] = float(row[1])
        except ValueError:
            raise ParseError(f"weight {row[1]!r} is not a number", where) from None
        if not (0 < table[label] < math.inf):
            raise ParseError(f"weight {row[1]!r} must be finite and > 0", where)
    missing = [lab for lab in languages.labels if lab not in table]
    if missing:
        raise InputError(f"weights file lacks entries for: {', '.join(missing)}")
    return model.WeightVector(languages, tuple(table[lab] for lab in languages.labels))


def cmd_build(args) -> int:
    mode = default_mode(args.mode)
    if not (0 < args.resolve_tolerance < math.inf):
        raise InputError("--resolve-tolerance must be a finite number > 0")
    distances = read_matrix_csv(args.input, args.kind)
    if args.kind == "coincidence":
        distances = chronometry.matrix_to_distances(distances, mode)
    weights_arg = _load_weights_arg(args.weights, distances.languages)
    trace = None
    if weights_arg == "iterate":
        trace = refinement.iterate_build(
            distances, mode=mode, external_means=args.external_means,
            resolve_tolerance=args.resolve_tolerance,
        )
        dendrogram = trace.final
        weights_source = "iterate"
    else:
        weights = None if weights_arg == "unit" else weights_arg
        dendrogram = builder.build(
            distances, weights, mode=mode, external_means=args.external_means,
            resolve_tolerance=args.resolve_tolerance,
        )
        weights_source = "unit" if weights_arg == "unit" else f"file {args.weights}"
    # Every output is made before the first is written, so a failure writes none.
    graph = merger.segment_graph(dendrogram)
    report = build_report(dendrogram, graph, trace, weights_source,
                          args.external_means)
    dot = render_dot(graph, mode)
    outdir = Path(args.outdir)
    atomic_write(outdir / "dendrogram.json", model.serialize(dendrogram))
    atomic_write(outdir / "report.txt", report)
    atomic_write(outdir / "tree.dot", dot)
    sys.stdout.write(report)
    flagged = sorted(
        {f for jn in dendrogram.junctions for f in jn.flags if f in model.CLAMP_FLAGS}
    )
    if args.strict and flagged:
        print(
            f"strict mode: clamp flags present ({', '.join(flagged)})",
            file=sys.stderr,
        )
        return EXIT_STRICT
    return EXIT_OK


def cmd_evaluate(args) -> int:
    dendrogram = model.deserialize(_read_text(args.tree))
    mode = dendrogram.mode
    if args.kind == "coincidence":
        measured = chronometry.matrix_to_distances(
            read_matrix_csv(args.input, "coincidence"), mode
        )
    else:
        measured = read_matrix_csv(args.input, "distance")
    report = refinement.evaluate(dendrogram, measured)
    labels = report.languages.labels
    order = [measured.languages.index(lab) for lab in labels]
    rows, cols = np.triu_indices(len(labels), 1)
    aligned = measured.values[np.ix_(order, order)][rows, cols]
    observed = ~np.isnan(aligned)
    rows, cols = rows[observed], cols[observed]
    quoted = list(map(_csv_quote(labels).__getitem__, labels))
    text = _csv_text(["language_a", "language_b", "measured", "restored", "residual"], zip(
        map(quoted.__getitem__, rows.tolist()),
        map(quoted.__getitem__, cols.tolist()),
        format_column(aligned[observed], mode),
        format_column(report.restored.values[rows, cols], mode),
        format_column(report.residuals[rows, cols], mode),
    ))
    weights = refinement.weights_from_dispersions(
        report.languages, report.dispersions, mode
    )
    atomic_write(Path(args.output), text)
    print(f"evaluation written to {args.output}")
    print(f"max |residual|: {format_number(report.max_abs_residual(), mode)}")
    print("dispersions (low to high) and derived weights:")
    ranked = sorted(zip(labels, report.dispersions), key=lambda t: (t[1], t[0]))
    for lab, disp in ranked:
        print(f"  {lab}: dispersion {disp:.1f}, weight "
              f"{format_number(weights.value(lab), mode)}")
    print("worst pairs:")
    for a, b, res in report.worst_pairs:
        print(f"  {a}-{b}: residual {format_number(res, mode)}")
    return EXIT_OK


def cmd_merge(args) -> int:
    if not (0 < args.tolerance < math.inf):
        raise InputError("--tolerance must be a finite number > 0")
    tree_a = model.deserialize(_read_text(args.a))
    tree_b = model.deserialize(_read_text(args.b))
    mode = tree_a.mode
    try:
        graph = merger.merge(tree_a, tree_b, tolerance=args.tolerance)
    except ConsistencyError as exc:
        print(f"merge rejected: {exc}")
        if exc.report is not None:
            _print_consistency(exc.report, mode)
        return EXIT_CONSISTENCY
    print(f"shared leaves: {', '.join(graph.consistency.shared)}")
    _print_consistency(graph.consistency, mode)
    outdir = Path(args.outdir)
    predictions = merger.predict_missing(graph, merger.cross_pairs(graph))
    atomic_write(outdir / "merged.json", merger.serialize_graph(graph))
    rows = [(*pred.pair, format_number(pred.distance, mode),
             format_number(pred.coincidence, mode), "yes" if pred.below_threshold else "no")
            for pred in predictions]
    quoted = _csv_quote(label for pred in predictions for label in pred.pair)
    atomic_write(outdir / "predictions.csv", _csv_text(
        ["language_a", "language_b", "svodesh", "coincidence", "below_threshold"],
        ((quoted[a], quoted[b], d, c, below) for a, b, d, c, below in rows)))
    print(f"merged graph written to {outdir / 'merged.json'}")
    print(f"{len(predictions)} predictions written to {outdir / 'predictions.csv'}")
    for a, b, distance, coincidence, below in rows:
        flag = "  (below reliability threshold)" if below == "yes" else ""
        print(f"  {a}-{b}: {distance} svodesh -> {coincidence}%{flag}")
    return EXIT_OK


def _print_consistency(report: merger.ConsistencyReport, mode: str) -> None:
    lines = [
        f"shared-structure deviations (tolerance {report.tolerance}, "
        f"max {report.max_deviation}):"
    ]
    rows = report.rows
    if mode == PAPER:  # the paper's tables are small: cell by cell
        rows = [(kind, pair, *(format_number(v, PAPER) for v in values))
                for kind, pair, *values in rows]
        line = "  %-8s %s-%s: %s vs %s (deviation %s)"
    else:  # format_number's precise form, one template per row
        line = "  %-8s %s-%s: %.2f vs %.2f (deviation %.2f)"
    lines.extend(line % (kind, x, y, va, vb, dev) for kind, (x, y), va, vb, dev in rows)
    lines.extend(f"  note: {note}" for note in report.notes)
    print("\n".join(lines))  # one write for the whole table


def cmd_perturb(args) -> int:
    mode = default_mode(args.mode)
    matrix = read_matrix_csv(args.input, "coincidence")
    labels = matrix.languages.labels
    pair = _parse_pair(args.pair, labels)
    track = _parse_pair(args.track, labels) if args.track else None
    report = refinement.perturb(
        matrix, pair, args.delta, track=track, mode=mode,
        external_means=args.external_means,
    )
    print(
        f"perturbing pair {report.perturbed_pair[0]}-{report.perturbed_pair[1]}; "
        f"tracking junction of {report.tracked_pair[0]}-{report.tracked_pair[1]}"
    )
    print("delta  coincidence  depth  lateral  status")
    for row in report.rows:
        print(
            f"{row.delta:+6.1f}  {format_number(row.coincidence, mode):>11s}"
            f"  {format_number(row.depth, mode):>5s}"
            f"  {format_number(row.lateral, mode):>7s}  {row.status}"
        )
    return EXIT_OK


def cmd_time(args) -> int:
    mode = default_mode(args.mode)
    value = chronometry.divergence_time(args.coincidence, args.t1, args.t2, mode)
    print(format_number(value, mode))
    return EXIT_OK


def cmd_render(args) -> int:
    doc = model.load_document(_read_text(args.tree))
    # Any other kind is read, and rejected, as a dendrogram.
    if doc.get("kind") == "segment-graph":
        graph = merger.read_graph(doc)
        dendrogram = None
    else:
        dendrogram = model.read_dendrogram(doc)
        graph = merger.segment_graph(dendrogram)
    mode = graph.mode
    if args.format == "dot":
        sys.stdout.write(render_dot(graph, mode))
    elif args.format == "text":
        sys.stdout.write(render_text(graph, mode))
    else:
        if dendrogram is None:
            raise InputError("newick-lossy rendering requires a dendrogram document")
        print(
            "warning: newick output folds lateral widths into far branch "
            "lengths; chain structure is lost",
            file=sys.stderr,
        )
        sys.stdout.write(render_newick_lossy(dendrogram, mode))
    return EXIT_OK


def _parse_pair(text: str, labels) -> tuple[str, str]:
    """``NAME:NAME``.  Labels may hold ``:``, so a text with more than one
    splits at the one ``:`` that leaves two of the matrix ``labels``."""
    parts = text.split(":")
    if len(parts) > 2:
        known = set(labels)
        splits = [(":".join(parts[:i]), ":".join(parts[i:])) for i in range(1, len(parts))]
        splits = [pair for pair in splits if known.issuperset(pair)]
        if len(splits) == 1:
            return splits[0]
    elif len(parts) == 2 and parts[0] and parts[1]:
        return (parts[0], parts[1])
    raise InputError(f"pair must look like NAME:NAME, got {text!r}")


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Values like -1e3 and -inf are values, as -5 is, not unknown options.
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # input errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


@functools.cache  # one per process: main() reuses it, and parsing leaves it as it was
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isolect",
        description="Chain-aware dendrograms from coincidence matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument(
            "--mode", choices=MODES, default=None,
            help="arithmetic mode (default: SVODESH_MODE env var, else paper)",
        )

    def add_external_means(p):
        p.add_argument("--external-means", choices=builder.EXTERNAL_MEANS,
                       default="weighted")

    p = sub.add_parser("convert", help="convert a matrix between percent and svodesh")
    p.add_argument("--input", required=True, help="matrix CSV")
    p.add_argument("--direction", choices=("to-svodesh", "to-coincidence"),
                   required=True)
    p.add_argument("--output", default=None, help="output CSV (default stdout)")
    add_mode(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("build", help="reconstruct a dendrogram from a matrix")
    p.add_argument("--input", required=True, help="matrix CSV")
    p.add_argument("--kind", choices=("coincidence", "distance"),
                   default="coincidence", help="what the input cells hold")
    p.add_argument("--weights", default="unit",
                   help="'unit', 'iterate', or a language,weight CSV")
    add_external_means(p)
    p.add_argument("--resolve-tolerance", type=float,
                   default=builder.DEFAULT_RESOLVE_TOLERANCE,
                   dest="resolve_tolerance",
                   help="agreement tolerance for the final-link cross-check")
    p.add_argument("--outdir", default=".", help="directory for artifacts")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any clamp/infeasibility flag is raised")
    add_mode(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("evaluate", help="compare a dendrogram against measured data")
    p.add_argument("--tree", required=True, help="dendrogram.json")
    p.add_argument("--input", required=True, help="measured matrix CSV")
    p.add_argument("--kind", choices=("coincidence", "distance"),
                   default="coincidence")
    p.add_argument("--output", default="evaluation.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("merge", help="fuse two dendrograms sharing leaves")
    p.add_argument("--a", required=True, help="reference dendrogram.json")
    p.add_argument("--b", required=True, help="dendrogram.json to graft")
    p.add_argument("--tolerance", type=float, default=3.0,
                   help="largest deviation, in svodesh, allowed between the "
                        "two trees' shared structures")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("perturb", help="sensitivity of a link to one coincidence")
    p.add_argument("--input", required=True, help="coincidence matrix CSV")
    p.add_argument("--pair", required=True, help="pair to perturb, NAME:NAME")
    p.add_argument("--delta", type=float, action="append", default=[],
                   help="percentage delta (repeatable)")
    p.add_argument("--track", default=None,
                   help="pair whose junction to report (default: --pair)")
    add_external_means(p)
    add_mode(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("time", help="divergence time of two attested languages")
    p.add_argument("--coincidence", type=float, required=True)
    p.add_argument("--t1", type=float, default=0.0,
                   help="attestation depth of the first language, svodesh")
    p.add_argument("--t2", type=float, default=0.0,
                   help="attestation depth of the second language, svodesh")
    add_mode(p)
    p.set_defaults(func=cmd_time)

    p = sub.add_parser("render", help="render a dendrogram document")
    p.add_argument("--tree", required=True, help="dendrogram.json or merged.json")
    p.add_argument("--format", choices=("dot", "text", "newick-lossy"),
                   default="dot")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IsolectError, OSError) as exc:  # one line, even for a quoted multi-line label
        print(f"error: {exc}".replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
