"""Fusing dendrograms that share leaves, and predicting unobserved pairs.

Dendrograms are flattened into segment graphs: trees of vertical (time) and
lateral (chain) segments with explicit depth coordinates.  Two dendrograms
whose shared-leaf substructures agree can then be spliced: the reference
dendrogram keeps its geometry, and the other's exclusive branches are
grafted onto the shared lineages at their original positions.

A segment graph answers its path queries from two indexes built on first
use, leaf label to node and node to neighbours, with one breadth-first pass
from the source leaf.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring
from typing import NamedTuple

import networkx as nx

from . import chronometry
from .errors import ConsistencyError, DomainError, ParseError
from .model import (
    FORMAT_NAME,
    FORMAT_VERSION,
    FLAG_CROSS_CHECKED,
    RESOLVED,
    UNRESOLVED,
    Dendrogram,
    leaf_distance,
    load_document,
    _expect_kind,
    _expect_mode,
    _expect_number,
    _expect_string,
    _json_list,
    _json_number,
    _languages,
    _objects,
)
from .modes import PRECISE, check_mode, quantize

VERTICAL = "vertical"
LATERAL = "lateral"
UNRESOLVED_EDGE = "unresolved"
EDGE_KINDS = (VERTICAL, LATERAL, UNRESOLVED_EDGE)

PROV_A = "A"
PROV_B = "B"
PROV_SHARED = "shared"
PROVENANCES = (PROV_SHARED, PROV_A, PROV_B)

COINCIDENCE_THRESHOLD = 15.0  # percent; below it the method loses reliability

_EPS = 1e-9


@dataclass(frozen=True)
class SegmentNode:
    id: str
    depth: float
    leaf: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.depth):
            raise DomainError(f"segment node {self.id} needs a finite depth")


@dataclass(frozen=True)
class SegmentEdge:
    a: str
    b: str
    length: float
    kind: str
    provenance: str = PROV_A

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length >= 0):
            raise DomainError("segment lengths must be finite and >= 0")
        if self.kind not in EDGE_KINDS:
            raise DomainError(f"kind must be one of {', '.join(EDGE_KINDS)}", "kind")
        if self.provenance not in PROVENANCES:
            raise DomainError(f"provenance must be one of {', '.join(PROVENANCES)}",
                              "provenance")


class Prediction(NamedTuple):
    pair: tuple[str, str]
    distance: float
    coincidence: float
    below_threshold: bool


class ConsistencyReport(NamedTuple):
    shared: tuple[str, ...]
    rows: tuple[tuple[str, tuple[str, str], float, float, float], ...]
    tolerance: float
    notes: tuple[str, ...] = ()

    @property
    def max_deviation(self) -> float:
        return max((r[4] for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True)
class SegmentGraph:
    """A tree of measured segments with depth coordinates."""

    nodes: tuple[SegmentNode, ...]
    edges: tuple[SegmentEdge, ...]
    leaves_a: tuple[str, ...]
    leaves_b: tuple[str, ...]
    mode: str = PRECISE
    # The report a merge accepted on; in memory only: not serialized or compared.
    consistency: ConsistencyReport | None = field(default=None, compare=False)

    def __post_init__(self):
        check_mode(self.mode)
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise DomainError("segment graph node ids must be unique")
        if len(self._leaf_nodes) != len(self.leaves()):
            raise DomainError("segment graph leaf labels must be unique")
        if len(self.edges) != max(len(ids) - 1, 0):
            raise DomainError(f"segment graph must be a tree: {len(ids)} nodes, "
                              f"{len(self.edges)} edges")
        g = self.graph()
        if g.number_of_nodes() > 1 and not nx.is_tree(g):
            raise DomainError("segment graph must be a tree")

    def graph(self) -> nx.Graph:
        g = nx.Graph()
        for node in self.nodes:
            g.add_node(node.id, depth=node.depth, leaf=node.leaf)
        for edge in self.edges:
            g.add_edge(edge.a, edge.b, length=edge.length, kind=edge.kind,
                       provenance=edge.provenance)
        return g

    @cached_property
    def _leaf_nodes(self) -> dict[str, str]:
        """Leaf label -> id of the node carrying it."""
        return {n.leaf: n.id for n in self.nodes if n.leaf is not None}

    @cached_property
    def _adjacency(self) -> dict[str, dict[str, float]]:
        """Node id -> {neighbour: length}, in edge order."""
        adj: dict[str, dict[str, float]] = {n.id: {} for n in self.nodes}
        for e in self.edges:
            adj.setdefault(e.a, {})[e.b] = e.length
            adj.setdefault(e.b, {})[e.a] = e.length
        return adj

    def leaves(self) -> tuple[str, ...]:
        return tuple(n.leaf for n in self.nodes if n.leaf is not None)

    def node_of_leaf(self, label: str) -> str:
        try:
            return self._leaf_nodes[label]
        except KeyError:
            raise DomainError(f"unknown leaf {label!r}") from None

    def _from_leaf(self, label: str) -> tuple[dict, dict]:
        """Path lengths from a leaf to every node, and each node's neighbour
        towards the leaf.

        One breadth-first pass: in a tree each node's length is its
        neighbour's plus the edge between them, the sums Dijkstra makes.
        """
        source = self.node_of_leaf(label)
        adj = self._adjacency
        dist: dict[str, float] = {source: 0}
        toward: dict[str, str] = {}
        queue = [source]
        for u in queue:
            du = dist[u]
            for v, w in adj[u].items():
                if v not in dist:
                    dist[v] = du + w
                    toward[v] = u
                    queue.append(v)
        return dist, toward

    def distance(self, a: str, b: str) -> float:
        """Unique tree-path distance between two leaves, in svodesh."""
        return float(self._from_leaf(a)[0][self.node_of_leaf(b)])


def _fresh(name: str, taken) -> str:
    """``name`` with ``'`` appended until it is not in ``taken``."""
    while name in taken:
        name += "'"
    return name


def segment_graph(dendrogram: Dendrogram, provenance: str = PROV_A) -> SegmentGraph:
    """Flatten a dendrogram into its segment graph.

    Junction anchors become nodes; zero-length vertical runs are collapsed
    so anchors that coincide with a child anchor reuse its node.  A leaf's
    node id is its label; junction ``idx``'s anchor and rise nodes are
    ``j<idx>`` and ``j<idx>.rise``, primed past any label or earlier id.
    """
    langs = dendrogram.languages
    k = len(langs)
    nodes = [SegmentNode(label, depth, label) for label, depth in zip(langs.labels, langs.depths)]
    edges: list[SegmentEdge] = []
    node_for: dict[int, str] = dict(enumerate(langs.labels))
    taken = set(langs.labels)

    def add_node(name: str, depth: float) -> str:
        name = _fresh(name, taken)
        taken.add(name)
        nodes.append(SegmentNode(name, depth))
        return name

    gains = dendrogram.gains()
    for idx, jn in enumerate(dendrogram.junctions):
        nid = k + idx
        near_node = node_for[jn.near]
        far_node = node_for[jn.far]
        gain_near = gains[idx][0]
        b = dendrogram.anchor_depth(jn.far)
        if jn.status == UNRESOLVED:
            edges.append(
                SegmentEdge(near_node, far_node, jn.total_length,
                            UNRESOLVED_EDGE, provenance)
            )
            node_for[nid] = near_node
            continue
        if gain_near > _EPS:
            anchor = add_node(f"j{idx}", jn.depth)
            edges.append(SegmentEdge(near_node, anchor, gain_near,
                                     VERTICAL, provenance))
        else:
            anchor = near_node
        if jn.lateral > _EPS:
            if jn.depth - b > _EPS:
                rise = add_node(f"j{idx}.rise", jn.depth)
                edges.append(SegmentEdge(far_node, rise, jn.depth - b,
                                         VERTICAL, provenance))
            else:
                rise = far_node
            edges.append(SegmentEdge(rise, anchor, jn.lateral, LATERAL, provenance))
        else:
            edges.append(SegmentEdge(far_node, anchor, max(jn.depth - b, 0.0),
                                     VERTICAL, provenance))
        node_for[nid] = anchor
    return SegmentGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        leaves_a=dendrogram.languages.labels if provenance != PROV_B else (),
        leaves_b=dendrogram.languages.labels if provenance == PROV_B else (),
        mode=dendrogram.mode,
    )


def chain_widths(graph: SegmentGraph) -> tuple[tuple[float, float, int], ...]:
    """Connected runs of lateral segments per epoch.

    Returns ``(depth, width, segment_count)`` triples, deepest first; the
    width of a run is the total lateral extent of the isolect chain that
    existed at that depth.
    """
    by_depth: dict[float, list[SegmentEdge]] = {}
    node_depth = {n.id: n.depth for n in graph.nodes}
    made: dict[float, int] = {}  # epoch depth -> the order it was made in
    depths: list[float] = []  # the same depths, sorted
    for e in graph.edges:
        if e.kind != LATERAL:
            continue
        d = node_depth[e.a]
        # An edge joins the first-made epoch within 1e-6 of its depth.  x - d
        # grows with x, so those epochs sit together around d's place.
        lo = hi = bisect.bisect_left(depths, d)
        while lo and abs(depths[lo - 1] - d) <= 1e-6:
            lo -= 1
        while hi < len(depths) and abs(depths[hi] - d) <= 1e-6:
            hi += 1
        key = min(depths[lo:hi], key=made.__getitem__, default=d)
        if key not in made:
            made[key] = len(made)
            depths.insert(lo, key)
        by_depth.setdefault(key, []).append(e)
    runs = []
    for depth, group in by_depth.items():
        # Each run sums its lengths in edge order; a lone edge is a run.
        runs.extend((float(depth), float(sum(e.length for e in run)), len(run))
                    for run in (_components(group) if len(group) > 1 else (group,)))
    runs.sort(key=lambda r: (-r[0], -r[1]))
    return tuple(runs)


def _components(edges) -> list[list[SegmentEdge]]:
    """Connected components of ``edges``, each as its edges in order, in the
    order of their first-seen node (union-find)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for e in edges:
        parent.setdefault(e.a, e.a)
        parent.setdefault(e.b, e.b)
        parent[find(e.a)] = find(e.b)
    comps: dict[str, list[SegmentEdge]] = {find(x): [] for x in list(parent)}
    for e in edges:
        comps[find(e.a)].append(e)
    return list(comps.values())


def shared_consistency(
    a: Dendrogram, b: Dendrogram, tolerance: float = 3.0
) -> ConsistencyReport:
    """Compare the shared-leaf substructures of two dendrograms.

    Checks both restored distances among shared leaves and the depth/lateral
    geometry of the junctions where shared pairs meet.  Equal distances are
    guaranteed by equal inputs; agreeing geometry is the substantive check,
    since each dendrogram's shape is determined by its whole dataset.

    A pair whose junction is unresolved in one dendrogram, or resolved by the
    final-link cross-check in exactly one, is compared by distance only, with
    a note: a subset of the leaves cannot identify that root's
    vertical/lateral split.  Both dendrograms must be of one mode.
    """
    if not 0 < tolerance < math.inf:
        raise DomainError("tolerance must be a finite number > 0", "tolerance")
    if a.mode != b.mode:
        raise DomainError(f"dendrograms of different modes ({a.mode} and {b.mode}) "
                          f"cannot be compared")
    shared = tuple(sorted(set(a.languages.labels) & set(b.languages.labels)))
    if len(shared) < 2:
        raise DomainError(
            "dendrograms share fewer than two leaves; no common frame exists"
        )
    rows = []
    notes = []
    meet_a, meet_b = a.meeting_junctions(shared), b.meeting_junctions(shared)
    for i, first in enumerate(shared):
        for second, ja, jb in zip(shared[i + 1:], meet_a[i][i + 1:], meet_b[i][i + 1:]):
            pair = (first, second)
            da = leaf_distance(a, first, second)
            db = leaf_distance(b, first, second)
            rows.append(("distance", pair, da, db, abs(da - db)))
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
    return ConsistencyReport(shared, tuple(rows), tolerance, tuple(notes))


def _frame(graph: SegmentGraph, shared: tuple[str, ...]):
    """The span of the shared leaves, seen from the first of them.

    Returns each node's distance from ``shared[0]`` and its neighbour towards
    ``shared[0]``, the nodes of ``shared[1:]``, and each span node's leg: the
    index j of the first ``shared[j + 1]`` whose path from ``shared[0]``
    passes through it.  Each leaf climbs only until it meets the span walked
    so far, since the rest of its path lies on an earlier leaf's.
    """
    lengths, toward = graph._from_leaf(shared[0])
    ends = [graph.node_of_leaf(s) for s in shared[1:]]
    leg_of = {graph.node_of_leaf(shared[0]): 0}
    for j, node in enumerate(ends):
        while node not in leg_of:
            leg_of[node] = j
            node = toward[node]
    return lengths, toward, ends, leg_of


def _path_to(node: str, toward: dict[str, str]) -> list[str]:
    """The nodes from the root of ``toward`` (the one node without an entry) to ``node``."""
    path = [node]
    while path[-1] in toward:
        path.append(toward[path[-1]])
    path.reverse()
    return path


def _place(nodes, edges, parent, dist, end, target, new_id) -> str:
    """The node at ``target`` along the reference path from ``shared[0]`` to ``end``.

    ``parent`` and ``dist`` are the reference frame (see ``_frame``).  The
    first node within 1e-6 of ``target`` is reused; otherwise the segment
    around it is split at ``new_id``, its two halves replace it at the end of
    ``edges``, and the frame is updated so later grafts can land on either.
    """
    for b in _path_to(end, parent):  # distances grow along the path
        if abs(dist[b] - target) <= 1e-6:
            return b
        if dist[b] > target:
            break
    a = parent[b]
    edge = edges.pop(frozenset((a, b)))
    la, lb = target - dist[a], dist[b] - target
    frac = la / (la + lb)
    da, db = nodes[a].depth, nodes[b].depth
    nodes[new_id] = SegmentNode(new_id, da + frac * (db - da))
    edges[frozenset((a, new_id))] = SegmentEdge(a, new_id, la, edge.kind, edge.provenance)
    edges[frozenset((new_id, b))] = SegmentEdge(new_id, b, lb, edge.kind, edge.provenance)
    parent[new_id], parent[b] = a, new_id
    dist[new_id] = target
    return new_id


def merge(a: Dendrogram, b: Dendrogram, tolerance: float = 3.0) -> SegmentGraph:
    """Splice dendrogram ``b`` onto ``a`` over their shared leaves.

    ``a`` is the reference: its geometry is kept everywhere the two overlap.
    Each branch exclusive to ``b`` is grafted at its attachment point ``p``,
    re-expressed in ``a``'s frame: on ``a``'s path from the first shared leaf
    to the first shared leaf whose path in ``b`` passes through ``p``, at
    ``p``'s distance from the first shared leaf in ``b``, clamped to the
    path's end.  Unresolved links carry over as fixed-length edges.
    """
    report = shared_consistency(a, b, tolerance)
    if not report.passed:
        raise ConsistencyError(
            f"shared substructures deviate by {report.max_deviation} svodesh "
            f"(tolerance {tolerance})",
            report,
        )
    shared = report.shared
    ga = segment_graph(a, PROV_A)
    gb = segment_graph(b, PROV_B)
    dist, parent, ends, span = _frame(ga, shared)
    lengths_b, _, _, leg_of = _frame(gb, shared)

    # A span is a subtree: an edge lies in it if and only if both its ends do.
    nodes = {n.id: n for n in ga.nodes}
    edges = {
        frozenset((e.a, e.b)):
            SegmentEdge(e.a, e.b, e.length, e.kind, PROV_SHARED)
            if e.a in span and e.b in span else e
        for e in ga.edges
    }
    only_b = [e for e in gb.edges if not (e.a in leg_of and e.b in leg_of)]

    rename: dict[str, str] = {}
    components = sorted(({x for e in comp for x in (e.a, e.b)}
                         for comp in _components(only_b)), key=min)
    for counter, comp in enumerate(components):
        # B is a tree, so the branch meets the shared span at exactly one node.
        p = min(comp & leg_of.keys())
        end = ends[leg_of[p]]
        rename[p] = _place(nodes, edges, parent, dist, end,
                           min(lengths_b[p], dist[end]), _fresh(f"graft{counter}", nodes))

    # Carry the exclusive nodes and edges over, renaming internals; an id
    # already in the graph is primed.
    nodes_b = {n.id: n for n in gb.nodes}
    for comp in components:
        for nid in sorted(comp):
            if nid in rename:
                continue
            node = nodes_b[nid]
            new_id = _fresh(node.id if node.leaf is not None else f"b:{node.id}", nodes)
            rename[nid] = new_id
            nodes[new_id] = SegmentNode(new_id, node.depth, node.leaf)
    grafted = tuple(SegmentEdge(rename[e.a], rename[e.b], e.length, e.kind, e.provenance)
                    for e in only_b)

    return SegmentGraph(tuple(nodes.values()), tuple(edges.values()) + grafted,
                        a.languages.labels, b.languages.labels, ga.mode, report)


def predict_missing(graph: SegmentGraph, pairs) -> tuple[Prediction, ...]:
    """Predicted distances and coincidences for leaf pairs of a merged graph,
    in the graph's mode.

    Coincidences below ``COINCIDENCE_THRESHOLD`` percent are annotated: at
    that range the retention-based method stops being reliable on its own,
    and only the presence of intermediate chain links supports the
    prediction.
    """
    mode = graph.mode
    out = []
    from_leaf: dict[str, dict] = {}
    for pair in pairs:
        x, y = pair
        if x not in from_leaf:
            from_leaf[x] = graph._from_leaf(x)[0]
        dist = float(from_leaf[x][graph.node_of_leaf(y)])
        if not math.isfinite(dist):
            raise DomainError(f"path {x}-{y} is beyond float range")
        dist = quantize(dist, mode)
        coin = chronometry.svodesh_to_coincidence(dist, mode)
        out.append(Prediction((x, y), dist, coin, coin < COINCIDENCE_THRESHOLD))
    return tuple(out)


def cross_pairs(graph: SegmentGraph) -> tuple[tuple[str, str], ...]:
    """Leaf pairs spanning the two source dendrograms of a merged graph."""
    only_a = [x for x in graph.leaves_a if x not in graph.leaves_b]
    only_b = [x for x in graph.leaves_b if x not in graph.leaves_a]
    return tuple((x, y) for x in only_a for y in only_b)


# -- serialization ----------------------------------------------------------


def serialize_graph(graph: SegmentGraph) -> str:
    """Serialize to the versioned segment-graph document (stable field order).

    Written directly, byte for byte as ``json.dumps(doc, indent=2,
    ensure_ascii=False)`` lays the document out (see ``docs/schema.md``).
    """
    text = encode_basestring
    languages, nodes = [], []
    for n in graph.nodes:
        depth = _json_number(n.depth)
        leaf = "null"
        if n.leaf is not None:
            leaf = text(n.leaf)
            languages.append(f'{{\n      "name": {leaf},\n      "depth": {depth}\n    }}')
        nodes.append(f'{{\n      "id": {text(n.id)},\n      "depth": {depth}'
                     f',\n      "leaf": {leaf}\n    }}')
    edges = [
        f'{{\n      "a": {text(e.a)},\n      "b": {text(e.b)}'
        f',\n      "length": {_json_number(e.length)},\n      "kind": {text(e.kind)}'
        f',\n      "provenance": {text(e.provenance)}\n    }}'
        for e in graph.edges
    ]
    return (
        f'{{\n  "format": {text(FORMAT_NAME)},\n  "version": {FORMAT_VERSION}'
        f',\n  "kind": "segment-graph",\n  "mode": {text(graph.mode)}'
        f',\n  "languages": {_json_list(languages, "  ")}'
        f',\n  "leaves_a": {_json_list(list(map(text, graph.leaves_a)), "  ")}'
        f',\n  "leaves_b": {_json_list(list(map(text, graph.leaves_b)), "  ")}'
        f',\n  "nodes": {_json_list(nodes, "  ")}'
        f',\n  "edges": {_json_list(edges, "  ")}\n}}\n'
    )


def _leaf_names(doc: dict, key: str, leaves: set[str]) -> tuple[str, ...]:
    """A list of leaf labels that name leaf nodes of the graph (absent: none)."""
    names = doc.get(key, [])
    if not isinstance(names, list):
        raise ParseError(f"{key} must be a list of leaf names", key)
    for i, name in enumerate(names):
        if not isinstance(name, str) or name not in leaves:
            raise ParseError(f"unknown leaf {name!r}", f"{key}[{i}]")
    return tuple(names)


def deserialize_graph(text: str) -> SegmentGraph:
    """Parse a segment-graph document (see ``read_graph``)."""
    return read_graph(load_document(text))


def read_graph(doc: dict) -> SegmentGraph:
    """The segment graph of a decoded document (see ``load_document``); every
    edge must join declared nodes, each pair at most once, and ``languages``
    must list the leaf nodes as ``serialize_graph`` writes them.  An absent
    ``mode`` is precise."""
    _expect_kind(doc, "segment-graph")
    mode = _expect_mode(doc, PRECISE)
    nodes, ids = [], set()
    for location, n in _objects(doc, "nodes", "node"):
        leaf = n.get("leaf")
        if not (leaf is None or isinstance(leaf, str)):
            raise ParseError("leaf must be a string or null", f"{location}.leaf")
        nodes.append(SegmentNode(_expect_string(n, "id", location),
                                 _expect_number(n, "depth", location), leaf))
        ids.add(nodes[-1].id)
    edges, pairs = [], set()
    for location, e in _objects(doc, "edges", "edge"):
        try:
            edge = SegmentEdge(
                _expect_string(e, "a", location), _expect_string(e, "b", location),
                _expect_number(e, "length", location),
                _expect_string(e, "kind", location, EDGE_KINDS),
                _expect_string(e, "provenance", location, PROVENANCES, default=PROV_A),
            )
        except DomainError as exc:
            raise ParseError(f"bad segment-graph payload: {exc}", location) from None
        for end, node in (("a", edge.a), ("b", edge.b)):
            if node not in ids:
                raise ParseError(f"edge names undeclared node {node!r}",
                                 f"{location}.{end}")
        pair = frozenset((edge.a, edge.b))
        if pair in pairs:
            raise ParseError(f"edge {edge.a!r}-{edge.b!r} is listed twice", location)
        pairs.add(pair)
        edges.append(edge)
    leaves = [n for n in nodes if n.leaf is not None]
    count = 0
    for count, (location, name, depth) in enumerate(
            _languages(doc, "a list of the leaf nodes"), 1):
        if count > len(leaves):
            raise ParseError(f"more languages than the {len(leaves)} leaf nodes", location)
        leaf = leaves[count - 1]
        if name != leaf.leaf or depth != leaf.depth:
            raise ParseError(
                f"must name leaf {leaf.leaf!r} at depth "
                f"{_json_number(leaf.depth)}, as the nodes do", location)
    if count < len(leaves):
        raise ParseError(
            f"languages lists {count} of the {len(leaves)} leaf nodes", "languages")
    labels = {n.leaf for n in leaves}
    try:
        return SegmentGraph(
            tuple(nodes), tuple(edges),
            _leaf_names(doc, "leaves_a", labels), _leaf_names(doc, "leaves_b", labels),
            mode,
        )
    except DomainError as exc:
        raise ParseError(f"bad segment-graph payload: {exc}") from None
