"""Command-line toolkit: ingestion, pipeline commands, reports, renderings.

Every command is a thin shell over the library: outputs are reproducible
byte for byte from library calls, inputs are never mutated, and files are
written atomically.  Exit codes: 0 ok, 1 input error, 2 consistency
failure, 3 clamp/infeasibility flags under --strict.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import builder, chronometry, merger, model, refinement
from .errors import ConsistencyError, DomainError, InputError, IsolectError, ParseError
from .modes import MODES, PAPER, PRECISE

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONSISTENCY = 2
EXIT_STRICT = 3

ABSENT_TOKENS = {"", "-", "na", "NA", "n/a"}


# -- formatting --------------------------------------------------------------


def format_number(x: float, mode: str) -> str:
    if mode == PAPER and math.isfinite(x):
        return str(int(round(x)))
    return f"{x:.2f}"


def format_column(values: np.ndarray, mode: str):
    """``format_number`` of each value of a float array, in order."""
    if mode == PAPER:
        # np.rint rounds half to even, as round() does.
        return map(str, map(int, np.rint(values).tolist()))
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
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- matrix CSV --------------------------------------------------------------


def _csv_rows(path) -> list[list[str]]:
    """All rows of a UTF-8 CSV file; undecodable bytes are reported by line."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError("file is not UTF-8 text", f"{path}:{line}") from None
    lines = text.split("\n")
    if lines[-1] == "":  # the final newline, or an empty file
        lines.pop()
    # csv.reader's rows, unless a quote, CR or NUL (an error before Python 3.11) needs it
    plain = not any(c in text for c in '"\r\0')
    if plain and max(map(len, lines), default=0) <= csv.field_size_limit():
        return [line.split(",") if line else [] for line in lines]
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


def read_matrix_csv(path, kind: str):
    """Read the square labeled-matrix CSV format.

    First row: empty cell then language names; each following row repeats
    the language name and k cells.  Cells: a number, "-" (diagonal), or
    ""/"NA" for an absent pair.  ``kind`` is "coincidence" or "distance".
    """
    if kind not in ("coincidence", "distance"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    rows = [
        (line, row) for line, row in enumerate(_csv_rows(path), start=1)
        if any(c.strip() for c in row)
    ]
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
    diag_default = 100.0 if kind == "coincidence" else 0.0
    values = np.full((k, k), np.nan)
    data = [row for _, row in rows[1:]]
    # columns[j + 1][i]: row i's cell j, the mirror of row j's cell i
    columns = tuple(zip(*data)) if all(len(row) == k + 1 for row in data) else ()
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
        # Lower cells spelled as their mirrors take the mirrors' values: a
        # cell's value depends only on its text, and the mirrors' rows came
        # first.  The first cell alone turns most other rows away.
        mirror = columns[i + 1] if columns else ()
        copied = mirror[:1] == (row[1],) and mirror[:i] == tuple(row[1 : i + 1])
        start = i if copied else 0
        cells = row[1 + start :]
        if cells[i - start].strip() in ABSENT_TOKENS:
            cells[i - start] = diag_default
        try:  # float() strips the spaces itself
            values[i, start:] = list(map(float, cells))
        except ValueError:  # absent pairs or a bad cell: one cell at a time
            values[i, start:] = [
                _matrix_cell(c.strip(), diag_default if i == j else np.nan,
                             f"{path}:{line} column {labels[j]}")
                for j, c in enumerate(row[1 + start :], start)
            ]
        if start:
            values[i, :start] = values[:start, i]
    for i, j in np.argwhere(~np.isfinite(values)):  # absent pairs, or cells like nan, inf
        line, row = rows[i + 1]
        if (cell := row[j + 1].strip()) not in ABSENT_TOKENS:
            raise ParseError(f"cell {cell!r} is not a finite number",
                             f"{path}:{line} column {labels[j]}")
    try:
        languages = model.LanguageSet(tuple(labels))
        if kind == "coincidence":
            return model.CoincidenceMatrix(languages, values)
        return model.DistanceMatrix(languages, values)
    except DomainError as exc:
        raise ParseError(str(exc), str(path)) from None


def matrix_to_csv(matrix, mode: str) -> str:
    labels = matrix.languages.labels
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(labels))
    for i, label in enumerate(labels):
        cells = [label]
        for j in range(len(labels)):
            if i == j:
                cells.append("-")
            elif np.isnan(matrix.values[i, j]):
                cells.append("")
            else:
                cells.append(format_number(matrix.values[i, j], mode))
        writer.writerow(cells)
    return out.getvalue()


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


def render_dot(graph: merger.SegmentGraph, mode: str) -> str:
    lines = ["graph dendrogram {", "  rankdir=BT;", "  node [shape=point];"]
    for node in graph.nodes:
        if node.leaf is not None:
            lines.append(
                f"  {_quote_dot(node.id)} [shape=diamond, label={_quote_dot(node.leaf)}];"
            )
    node_depth = {n.id: n.depth for n in graph.nodes}
    by_depth: dict[str, list[str]] = {}
    for edge in graph.edges:
        label = format_number(edge.length, mode)
        style = "dashed" if edge.kind == merger.UNRESOLVED_EDGE else "solid"
        attrs = [f"label={_quote_dot(label)}", f"style={style}"]
        if edge.kind == merger.LATERAL:
            attrs.append("constraint=false")
        lines.append(
            f"  {_quote_dot(edge.a)} -- {_quote_dot(edge.b)} [{', '.join(attrs)}];"
        )
        if edge.kind == merger.LATERAL:
            depth_key = format_number(node_depth[edge.a], mode)
            by_depth.setdefault(depth_key, []).extend([edge.a, edge.b])
    for depth_key in sorted(by_depth):
        ids = sorted(set(by_depth[depth_key]))
        lines.append(
            "  { rank=same; " + " ".join(f"{_quote_dot(i)};" for i in ids) + " }"
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
    k = len(dendrogram.languages)
    anchor = dendrogram.anchor_depth

    def emit(node_id: int) -> str:
        if node_id < k:
            return _quote_newick(dendrogram.languages.labels[node_id])
        jn = dendrogram.junction_at(node_id)
        if jn.status == model.UNRESOLVED:
            # Split the fixed total so the two displayed branches sum to it
            # exactly even after integer-mode formatting.
            near_len = (jn.total_length + anchor(jn.far) - anchor(jn.near)) / 2.0
            if mode == PAPER:
                near_len = float(format_number(near_len, mode))
            far_len = jn.total_length - near_len
        else:
            near_len = jn.depth - anchor(jn.near)
            far_len = (jn.depth - anchor(jn.far)) + jn.lateral
        return (
            f"({emit(jn.near)}:{format_number(near_len, mode)},"
            f"{emit(jn.far)}:{format_number(far_len, mode)})"
        )

    return emit(dendrogram.root_id()) + ";\n"


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
        where = f"{path}:{line}"
        label = row[0].strip() if row else ""
        if not label:
            continue
        if len(row) < 2:
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
    if not distances.is_complete():
        raise InputError(
            "input matrix has absent entries; build requires a complete "
            "matrix -- build per subsystem and combine with 'isolect merge'"
        )
    weights_arg = _load_weights_arg(args.weights, distances.languages)
    trace = None
    if weights_arg == "iterate":
        trace = refinement.iterate_build(
            distances, mode=mode, external_means=args.external_means
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
    outdir = Path(args.outdir)
    atomic_write(outdir / "dendrogram.json", model.serialize(dendrogram))
    graph = merger.segment_graph(dendrogram)
    report = build_report(dendrogram, graph, trace, weights_source,
                          args.external_means)
    atomic_write(outdir / "report.txt", report)
    atomic_write(outdir / "tree.dot", render_dot(graph, mode))
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
    with open(args.tree, "r", encoding="utf-8") as fh:
        dendrogram = model.deserialize(fh.read())
    mode = dendrogram.mode
    if args.kind == "coincidence":
        measured = chronometry.matrix_to_distances(
            read_matrix_csv(args.input, "coincidence"), mode
        )
    else:
        measured = read_matrix_csv(args.input, "distance")
    report = refinement.evaluate(dendrogram, measured)
    labels = report.languages.labels
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["language_a", "language_b", "measured", "restored", "residual"])
    order = [measured.languages.index(lab) for lab in labels]
    rows, cols = np.triu_indices(len(labels), 1)
    aligned = measured.values[np.ix_(order, order)][rows, cols]
    observed = ~np.isnan(aligned)
    rows, cols = rows[observed], cols[observed]
    writer.writerows(zip(
        map(labels.__getitem__, rows.tolist()),
        map(labels.__getitem__, cols.tolist()),
        format_column(aligned[observed], mode),
        format_column(report.restored.values[rows, cols], mode),
        format_column(report.residuals[rows, cols], mode),
    ))
    weights = refinement.weights_from_dispersions(
        report.languages, report.dispersions, mode
    )
    atomic_write(Path(args.output), out.getvalue())
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
    with open(args.a, "r", encoding="utf-8") as fh:
        tree_a = model.deserialize(fh.read())
    with open(args.b, "r", encoding="utf-8") as fh:
        tree_b = model.deserialize(fh.read())
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
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["language_a", "language_b", "svodesh", "coincidence",
                     "below_threshold"])
    for pred in predictions:
        writer.writerow([
            pred.pair[0], pred.pair[1],
            format_number(pred.distance, mode),
            format_number(pred.coincidence, mode),
            "yes" if pred.below_threshold else "no",
        ])
    atomic_write(outdir / "predictions.csv", out.getvalue())
    print(f"merged graph written to {outdir / 'merged.json'}")
    print(f"{len(predictions)} predictions written to {outdir / 'predictions.csv'}")
    for pred in predictions:
        flag = "  (below reliability threshold)" if pred.below_threshold else ""
        print(
            f"  {pred.pair[0]}-{pred.pair[1]}: "
            f"{format_number(pred.distance, mode)} svodesh -> "
            f"{format_number(pred.coincidence, mode)}%{flag}"
        )
    return EXIT_OK


def _print_consistency(report: merger.ConsistencyReport, mode: str) -> None:
    lines = [
        f"shared-structure deviations (tolerance {report.tolerance}, "
        f"max {report.max_deviation}):"
    ]
    # Each number as format_number writes it, the format chosen once per table.
    rows = report.rows
    if mode == PAPER:
        # round() is format_number's paper rounding of a finite value; a table
        # with inf or nan in it goes through format_number cell by cell.
        finite = math.isfinite(sum(v for row in rows for v in row[2:]))
        cell = round if finite else functools.partial(format_number, mode=PAPER)
        rows = [(kind, pair, cell(va), cell(vb), cell(dev))
                for kind, pair, va, vb, dev in rows]
        line = "  %-8s %s-%s: %s vs %s (deviation %s)"
    else:
        line = "  %-8s %s-%s: %.2f vs %.2f (deviation %.2f)"
    lines.extend(line % (kind, x, y, va, vb, dev) for kind, (x, y), va, vb, dev in rows)
    lines.extend(f"  note: {note}" for note in report.notes)
    print("\n".join(lines))  # one write for the whole table


def cmd_perturb(args) -> int:
    mode = default_mode(args.mode)
    matrix = read_matrix_csv(args.input, "coincidence")
    pair = _parse_pair(args.pair)
    track = _parse_pair(args.track) if args.track else None
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
    with open(args.tree, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):  # rejected again by the reader below
        doc = None
    # Anything but a segment-graph object is read, and rejected, as a dendrogram.
    kind = doc.get("kind", "dendrogram") if isinstance(doc, dict) else "dendrogram"
    if kind == "segment-graph":
        graph = merger.deserialize_graph(text)
        mode = graph.mode
        dendrogram = None
    else:
        dendrogram = model.deserialize(text)
        mode = dendrogram.mode
        graph = merger.segment_graph(dendrogram)
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


def _parse_pair(text: str) -> tuple[str, str]:
    parts = text.split(":")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise InputError(f"pair must look like NAME:NAME, got {text!r}")
    return (parts[0], parts[1])


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
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
    p.add_argument("--external-means", choices=builder.EXTERNAL_MEANS,
                   default="weighted", dest="external_means")
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
    p.add_argument("--external-means", choices=builder.EXTERNAL_MEANS,
                   default="weighted", dest="external_means")
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
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (IsolectError, OSError) as exc:  # one line, even for a quoted multi-line label
        print(f"error: {exc}".replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
