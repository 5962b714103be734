"""Independent oracles for the test suite.

Planted chain geometries are generated here and their leaf distances are
computed by brute-force path summation over an explicit segment list --
deliberately without touching the package's tree/path code, so these
values can serve as ground truth for reconstruction tests.

The scalar references are per-cell Python loops, one call per cell, that
the package's array kernels must match bit for bit.  The builder's step
readers (a cluster's sorted member labels, a state's active-pair distances)
and the copy a test steps when it branches from one state are test-only, so
they live here.  ``csv_text`` writes every row through
``csv.writer``, the reference for the CLI's CSV outputs (a field holding
CR is quoted, as one holding LF is).  The matrix CSV reader at the end is
the straightforward one (``csv.reader``, then one ``float`` per stripped
cell) that the CLI's reader must match in values and errors.
The two document serializers at the very end build the documents as dicts
and lists and hand them to ``json.dumps``; ``model.serialize`` and
``merger.serialize_graph`` must match their bytes.  The merge check's
per-pair loop, two tree queries per pair and tree, is the reference for
``merger.shared_consistency``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import networkx as nx
import numpy as np

from isolect import merger
from isolect.errors import DomainError, InputError, ParseError
from isolect.model import (
    FLAG_CROSS_CHECKED,
    FORMAT_NAME,
    FORMAT_VERSION,
    RESOLVED,
    UNRESOLVED,
    CoincidenceMatrix,
    DistanceMatrix,
    LanguageSet,
    leaf_distance,
)


@dataclass(frozen=True)
class PlantedCaterpillar:
    """A chain geometry grown one leaf at a time from a starting cherry.

    ``depths[i]`` / ``laterals[i]`` describe junction i; the root joins the
    last leaf at the final cluster anchor (depth ``depths[-1]``) through a
    lateral of ``root_lateral``.  Junction i's children are: the fresh leaf
    (near, lineage carries the anchor) and the previous cluster (far).
    """

    k: int
    depths: tuple[float, ...]       # anchors of junctions 0..k-3
    laterals: tuple[float, ...]
    root_lateral: float

    @property
    def root_depth(self) -> float:
        return self.depths[-1]

    def leaf_pendants(self):
        """Distance from each leaf to the spine anchor it hangs from."""
        pend = {0: self.depths[0], 1: self.depths[0] + self.laterals[0]}
        anchor_of = {0: 0, 1: 0}
        for i in range(1, self.k - 2):
            pend[i + 1] = self.depths[i]
            anchor_of[i + 1] = i
        pend[self.k - 1] = self.depths[-1] + self.root_lateral
        anchor_of[self.k - 1] = self.k - 3
        return pend, anchor_of

    def spine_positions(self):
        """Cumulative distance of each spine anchor from anchor 0."""
        pos = [0.0]
        for i in range(1, self.k - 2):
            step = (self.depths[i] - self.depths[i - 1]) + self.laterals[i]
            pos.append(pos[-1] + step)
        return pos

    def distance_matrix(self) -> np.ndarray:
        """All-pairs leaf distances by brute-force path summation."""
        pend, anchor_of = self.leaf_pendants()
        pos = self.spine_positions()
        m = np.zeros((self.k, self.k))
        for a in range(self.k):
            for b in range(a + 1, self.k):
                d = pend[a] + pend[b] + abs(pos[anchor_of[a]] - pos[anchor_of[b]])
                m[a, b] = m[b, a] = d
        return m

    def merge_links(self):
        """Anchor-to-anchor link length of each join, in intended order."""
        links = [2 * self.depths[0] + self.laterals[0]]
        for i in range(1, self.k - 2):
            links.append(
                2 * self.depths[i] - self.depths[i - 1] + self.laterals[i]
            )
        links.append(self.depths[-1] + self.root_lateral)
        return links


def sample_caterpillar(rng: np.random.Generator, k: int) -> PlantedCaterpillar:
    """Random caterpillar whose greedy reconstruction order is forced.

    Link lengths increase join by join, each lateral exceeds the previous
    anchor depth (so the fresh leaf always carries the new anchor), and the
    root is planted in the maximum-width form the builder can recover.
    """
    while True:
        depths = [float(rng.uniform(5.0, 15.0))]
        laterals = [float(rng.uniform(2.0, 20.0))]
        links = [2 * depths[0] + laterals[0]]
        for i in range(1, k - 2):
            b = depths[i - 1]
            d = b + float(rng.uniform(2.0, 15.0))
            h_min = max(b + 1.0, links[-1] + 1.0 - 2 * d + b)
            h = h_min + float(rng.uniform(1.0, 25.0))
            depths.append(d)
            laterals.append(h)
            links.append(2 * d - b + h)
        root_lateral = (
            max(2.0, links[-1] + 1.0 - depths[-1]) + float(rng.uniform(1.0, 30.0))
        )
        planted = PlantedCaterpillar(k, tuple(depths), tuple(laterals), root_lateral)
        if _order_is_forced(planted):
            return planted


def _order_is_forced(planted: PlantedCaterpillar) -> bool:
    """Every intended join is the strict minimum at its step: at step s, every
    pair of leaves s + 2.. is longer than link s by more than 0.5."""
    m = planted.distance_matrix()
    links = planted.merge_links()
    k = planted.k
    pairs = np.where(np.triu(np.ones((k, k), dtype=bool), 1), m, np.inf)
    # shortest[x]: the shortest pair among leaves x..k-1 (inf past the end)
    shortest = np.append(np.minimum.accumulate(pairs.min(axis=1)[::-1])[::-1], np.inf)
    return all(shortest[step + 2] > links[step] + 0.5 for step in range(k - 1))


@dataclass(frozen=True)
class PlantedBalanced:
    """Two cherries bridged by a root link of known total length."""

    cherry_depths: tuple[float, float]
    cherry_laterals: tuple[float, float]
    bridge_total: float

    def distance_matrix(self) -> np.ndarray:
        p, q = self.cherry_depths
        hp, hq = self.cherry_laterals
        pend = [p, p + hp, q, q + hq]
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 2 * p + hp
        m[2, 3] = m[3, 2] = 2 * q + hq
        for a in (0, 1):
            for b in (2, 3):
                m[a, b] = m[b, a] = pend[a] + pend[b] + self.bridge_total
        return m


def sample_balanced_ambiguous(rng: np.random.Generator) -> PlantedBalanced:
    """Bridge length far from the one resolvable decomposition."""
    p = float(rng.uniform(5.0, 15.0))
    hp = float(rng.uniform(2.0, 15.0))
    q = float(rng.uniform(5.0, 15.0))
    hq = float(rng.uniform(2.0, 15.0))
    gap = abs(q - p)
    total = gap + 10.0 + float(rng.uniform(0.0, 20.0))
    need = max(p + hp, q + hq) + 1.0
    if total <= need:
        total = need + 1.0 + float(rng.uniform(0.0, 5.0))
    return PlantedBalanced((p, q), (hp, hq), total)


# -- scalar references for the array kernels --------------------------------


def round_half_away(x: float) -> float:
    return math.copysign(math.floor(abs(x) + 0.5), x)


def quantize(x: float, mode: str) -> float:
    return round_half_away(x) if mode == "paper" else float(x)


def cluster_key(cluster, state) -> tuple[str, ...]:
    """Sorted member labels of a builder cluster, its children's records
    read by node id from the state's shared record list and walked without
    recursion (a caterpillar is k levels deep)."""
    labels, pending = [], [cluster]
    while pending:
        cluster = pending.pop()
        if cluster.children:
            pending.extend(state._record[node] for node in cluster.children)
        else:
            labels.append(cluster.first_label)
    return tuple(sorted(labels))


def state_dist(state) -> MappingProxyType:
    """Read-only view of a builder state's active pairs' distances, keyed
    by the frozenset of the two node ids."""
    nodes = np.flatnonzero(state.alive).tolist()
    block = state.table[np.ix_(nodes, nodes)].tolist()
    return MappingProxyType({
        frozenset((x, y)): block[i][j]
        for i, x in enumerate(nodes)
        for j, y in enumerate(nodes[i + 1 :], i + 1)
    })


def state_distance(state, a, b) -> float:
    """Reduced distance between two distinct active clusters of ``state``;
    ``KeyError`` for any other pair."""
    pair = frozenset((a.node, b.node))
    if len(pair) != 2 or not pair <= set(np.flatnonzero(state.alive).tolist()):
        raise KeyError(pair)
    return float(state.table[a.node, b.node])


def copy_state(state):
    """A builder state that steps apart from ``state``: its own copies of
    the table, weights, records and per-node arrays, because a reduce
    updates its state in place."""
    copy = object.__new__(type(state))
    for name in type(state).__slots__:
        value = getattr(state, name)
        setattr(copy, name, value.copy() if isinstance(value, (np.ndarray, list)) else value)
    return copy


def lateral_offset_means(state, pair, external_means="weighted") -> list[float]:
    """Both members' external means, summed one external at a time."""
    a, b = pair
    externals = [c for c in state.clusters if c.node not in (a.node, b.node)]
    means = []
    for member in (a, b):
        num = 0.0
        den = 0.0
        for ext in externals:
            w = ext.weight if external_means == "weighted" else 1.0
            num += w * float(state.table[member.node, ext.node])
            den += w
        means.append(quantize(num / den, state.mode))
    return means


def reduced_row(state, geometry) -> tuple[list[float], int]:
    """The merged cluster's distances to the externals, in cluster order,
    and the number of negative values clamped to 0."""
    near, far = geometry.near, geometry.far
    delta_near = geometry.depth - near.anchor_depth
    delta_far = (geometry.depth - far.anchor_depth) + geometry.lateral
    weight = near.weight + far.weight
    values, clamped = [], 0
    for ext in state.clusters:
        if ext.node in (near.node, far.node):
            continue
        d_near = float(state.table[near.node, ext.node]) - delta_near
        d_far = float(state.table[far.node, ext.node]) - delta_far
        value = quantize((near.weight * d_near + far.weight * d_far) / weight, state.mode)
        if value < 0:
            clamped += 1
            value = 0.0
        values.append(value)
    return values, clamped


def dispersions_and_worst_pairs(residuals: np.ndarray, labels):
    """Per-row sample variances (diagonal and absent cells dropped) and the
    three largest |residual| pairs from a sort of every pair."""
    k = len(labels)
    dispersions = []
    for i in range(k):
        row = np.delete(residuals[i], i)
        row = row[~np.isnan(row)]
        dispersions.append(float(np.var(row, ddof=1)) if row.size >= 2 else 0.0)
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            if not np.isnan(residuals[i, j]):
                pairs.append((labels[i], labels[j], float(residuals[i, j])))
    pairs.sort(key=lambda p: (-abs(p[2]), p[0], p[1]))
    return tuple(dispersions), tuple(pairs[:3])


def chain_widths_nx(graph):
    """Lateral runs per depth through networkx components (the first-key
    depth grouping within 1e-6, deepest and widest first)."""
    by_depth: dict[float, list] = {}
    node_depth = {n.id: n.depth for n in graph.nodes}
    for e in graph.edges:
        if e.kind != "lateral":
            continue
        d = node_depth[e.a]
        key = next((x for x in by_depth if abs(x - d) <= 1e-6), d)
        by_depth.setdefault(key, []).append(e)
    runs = []
    for depth, group in by_depth.items():
        g = nx.Graph()
        for e in group:
            g.add_edge(e.a, e.b, length=e.length)
        for comp in nx.connected_components(g):
            sub = g.subgraph(comp)
            width = sum(d["length"] for _, _, d in sub.edges(data=True))
            runs.append((float(depth), float(width), sub.number_of_edges()))
    runs.sort(key=lambda r: (-r[0], -r[1]))
    return tuple(runs)


def chain_widths_union_find(graph):
    """``chain_widths`` as it was before lone edges were taken as their own
    runs: every epoch's runs, a lone edge's too, from ``merger._components``,
    each summed in edge order, and each edge in the first-made epoch within
    1e-6 of its depth, found by a scan."""
    by_depth: dict[float, list] = {}
    node_depth = {n.id: n.depth for n in graph.nodes}
    for e in graph.edges:
        if e.kind == "lateral":
            d = node_depth[e.a]
            by_depth.setdefault(next((x for x in by_depth if abs(x - d) <= 1e-6), d), []).append(e)
    runs = [(float(depth), float(sum(e.length for e in run)), len(run))
            for depth, group in by_depth.items() for run in merger._components(group)]
    runs.sort(key=lambda r: (-r[0], -r[1]))
    return tuple(runs)


def restore_by_anchor_tables(tree) -> np.ndarray:
    """All-pairs leaf distances from the per-node anchor tables: each pair's
    two anchor distances at its meeting junction, an unresolved root's total
    length between its children's anchors."""
    k = len(tree.languages)
    tables = tree.anchor_tables()
    out = np.zeros((k, k))
    for idx, jn in enumerate(tree.junctions):
        near_t, far_t = tables[jn.near], tables[jn.far]
        if jn.status == UNRESOLVED:
            near = {a: da + jn.total_length for a, da in near_t.items()}
            far = far_t
        else:
            near = {a: tables[k + idx][a] for a in near_t}
            far = {b: tables[k + idx][b] for b in far_t}
        for a, da in near.items():
            for b, db in far.items():
                out[a, b] = out[b, a] = da + db
    return out


def shared_consistency(a, b):
    """The merge check's rows and notes by the per-pair loop: for each
    shared pair, ``leaf_distance`` and ``meeting_junction`` in each tree.
    Returns ``(shared, rows, notes)``; ``merger.shared_consistency`` must
    give the same tuples in the same order."""
    shared = tuple(sorted(set(a.languages.labels) & set(b.languages.labels)))
    rows = []
    notes = []
    for i in range(len(shared)):
        for j in range(i + 1, len(shared)):
            pair = (shared[i], shared[j])
            da = leaf_distance(a, *pair)
            db = leaf_distance(b, *pair)
            rows.append(("distance", pair, da, db, abs(da - db)))
            ja = a.meeting_junction(*pair)
            jb = b.meeting_junction(*pair)
            if ja.status == RESOLVED and jb.status == RESOLVED:
                if (FLAG_CROSS_CHECKED in ja.flags) != (FLAG_CROSS_CHECKED in jb.flags):
                    notes.append(
                        f"pair {pair[0]}-{pair[1]}: junction resolved by cross-check "
                        f"in one dendrogram only; compared by distance only"
                    )
                else:
                    rows.append(("depth", pair, ja.depth, jb.depth,
                                 abs(ja.depth - jb.depth)))
                    rows.append(("lateral", pair, ja.lateral, jb.lateral,
                                 abs(ja.lateral - jb.lateral)))
            elif ja.status == UNRESOLVED and jb.status == UNRESOLVED:
                rows.append(("total", pair, ja.total_length, jb.total_length,
                             abs(ja.total_length - jb.total_length)))
            else:
                notes.append(
                    f"pair {pair[0]}-{pair[1]}: junction resolved in one "
                    f"dendrogram but not the other; compared by distance only"
                )
    return shared, tuple(rows), tuple(notes)


# -- the CSV writer: every row through csv.writer ---------------------------


def csv_text(header, rows) -> str:
    """A CSV document as ``csv.writer`` writes it, each line ending in LF.

    The writer ends its rows in CRLF, so that it quotes a field holding CR
    as it quotes one holding LF; each row's CRLF is then written as LF.
    """
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)  # one write per row
    return "".join(line[:-2] + "\n" for line in lines)


# -- the matrix CSV reader, one cell at a time through csv.reader -----------

ABSENT_TOKENS = {"", "-", "na", "NA", "n/a"}


def csv_rows(path) -> list[list[str]]:
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
    return list(csv.reader(io.StringIO(text, newline="")))


def read_matrix_csv(path, kind: str):
    """The square labeled-matrix reader: every cell stripped, tested against
    the absent tokens and parsed by its own ``float`` call."""
    rows = [
        (line, row) for line, row in enumerate(csv_rows(path), start=1)
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
    for i, (line, row) in enumerate(rows[1:]):
        cells = [c.strip() for c in row]
        if len(cells) != k + 1:
            raise ParseError(
                f"row has {len(cells) - 1} cells, expected {k}", f"{path}:{line}"
            )
        if cells[0] != labels[i]:
            raise ParseError(
                f"row label {cells[0]!r} does not match header order "
                f"(expected {labels[i]!r})",
                f"{path}:{line}",
            )
        parsed = []
        for j, cell in enumerate(cells[1:]):
            if cell in ABSENT_TOKENS:
                parsed.append(diag_default if i == j else np.nan)
                continue
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"cell {cell!r} is not a number",
                    f"{path}:{line} column {labels[j]}",
                ) from None
        values[i] = parsed
    for i, j in np.argwhere(~np.isfinite(values)):
        line, row = rows[i + 1]
        if (cell := row[j + 1].strip()) not in ABSENT_TOKENS:
            raise ParseError(f"cell {cell!r} is not a finite number",
                             f"{path}:{line} column {labels[j]}")
    try:
        languages = LanguageSet(tuple(labels))
        if kind == "coincidence":
            return CoincidenceMatrix(languages, values)
        return DistanceMatrix(languages, values)
    except DomainError as exc:
        raise ParseError(str(exc), str(path)) from None


# -- the two documents, as dicts through json.dumps -------------------------


def _number(x: float):
    f = float(x)
    return int(f) if f.is_integer() else f


def _junction_payload(dendrogram, jn) -> dict:
    k = len(dendrogram.languages)

    def ref(node_id: int):
        return dendrogram.languages.labels[node_id] if node_id < k else node_id - k

    if jn.status == RESOLVED:
        status = {"state": RESOLVED}
    else:
        status = {
            "state": UNRESOLVED,
            "total_length": _number(jn.total_length),
            "depth_min": _number(jn.depth_range[0]),
            "depth_max": _number(jn.depth_range[1]),
        }
    return {
        "near": ref(jn.near),
        "far": ref(jn.far),
        "depth": _number(jn.depth),
        "lateral": _number(jn.lateral),
        "status": status,
        "flags": list(jn.flags),
    }


def serialize(dendrogram) -> str:
    """The dendrogram document: one dict per object, written by ``json.dumps``."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "dendrogram",
        "mode": dendrogram.mode,
        "languages": [
            {"name": name, "depth": _number(depth)}
            for name, depth in zip(
                dendrogram.languages.labels, dendrogram.languages.depths
            )
        ],
        "weights": (
            [_number(w) for w in dendrogram.weights.values]
            if dendrogram.weights is not None
            else None
        ),
        "junctions": [_junction_payload(dendrogram, jn) for jn in dendrogram.junctions],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def serialize_graph(graph) -> str:
    """The segment-graph document: one dict per object, written by ``json.dumps``."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "segment-graph",
        "mode": graph.mode,
        "languages": [
            {"name": n.leaf, "depth": _number(n.depth)}
            for n in graph.nodes
            if n.leaf is not None
        ],
        "leaves_a": list(graph.leaves_a),
        "leaves_b": list(graph.leaves_b),
        "nodes": [
            {"id": n.id, "depth": _number(n.depth), "leaf": n.leaf}
            for n in graph.nodes
        ],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "length": _number(e.length),
                "kind": e.kind,
                "provenance": e.provenance,
            }
            for e in graph.edges
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
