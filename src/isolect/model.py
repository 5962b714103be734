"""Core data model: labeled matrices, dendrograms, path distances, serialization.

A dendrogram here is a binary merge tree whose junctions carry two geometric
quantities: a depth ``D`` (svodesh before present, measured down the time
axis) and a lateral width ``h`` (svodesh along the synchronic chain axis).
The junction's anchor point sits on the *near* child's lineage at depth
``D``; the far child's lineage rises vertically to depth ``D`` and then runs
laterally ``h`` svodesh to the anchor.  Path lengths between leaves are sums
of vertical and lateral segment lengths.  A ``Dendrogram`` walks its
junctions once, at construction, and records each node's parent, carrier
and anchor depth and each junction's near and far gains; the tree queries,
the merger and the CLI read that record.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParseError
from .modes import MODES, PRECISE, check_mode

FORMAT_NAME = "isolect-dendrogram"
FORMAT_VERSION = 1

RESOLVED = "resolved"
UNRESOLVED = "unresolved"

# Junction flags emitted by the builder.
FLAG_PURE_VERTICAL = "pure-vertical"
FLAG_INFEASIBLE = "infeasible"
FLAG_NEGATIVE_REDUCED = "negative-reduced"
FLAG_CROSS_CHECKED = "cross-checked"
FLAG_UNRESOLVED_DECOMPOSITION = "unresolved-decomposition"

CLAMP_FLAGS = (FLAG_PURE_VERTICAL, FLAG_INFEASIBLE, FLAG_NEGATIVE_REDUCED)


@dataclass(frozen=True)
class LanguageSet:
    """Ordered set of unique language labels with optional attestation depths.

    The attestation depth of a language is how far before present it is
    recorded, in svodesh; contemporary languages sit at depth 0.
    """

    labels: tuple[str, ...]
    depths: tuple[float, ...] = ()

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if not labels:
            raise DomainError("language set must not be empty")
        if any(not lab for lab in labels):
            raise DomainError("language labels must be non-empty")
        if len(set(labels)) != len(labels):
            raise DomainError("language labels must be unique")
        depths = tuple(float(d) for d in self.depths) or (0.0,) * len(labels)
        if len(depths) != len(labels):
            raise DomainError("one attestation depth per language required")
        if any(not np.isfinite(d) or d < 0 for d in depths):
            raise DomainError("attestation depths must be finite and >= 0")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "_ids", {label: i for i, label in enumerate(labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._ids[label]
        except (KeyError, TypeError):
            raise DomainError(f"unknown language {label!r}") from None


@dataclass(frozen=True)
class _LabeledMatrix:
    """Symmetric matrix over a language set; NaN marks an unobserved pair.

    Each subclass's ``__post_init__`` calls ``_check`` with its diagonal and
    its value domain, and its ``_cell`` names one entry in messages.
    """

    languages: LanguageSet
    values: np.ndarray

    def _check(self, diagonal: float, diagonal_rule: str, domain_rule: str, outside) -> None:
        """Check shape, symmetry (the first asymmetric pair in row-major upper
        triangle order is reported), the diagonal (absent or ``diagonal``) and
        the cells, rejecting the first where ``outside(values)`` holds; then
        store a read-only copy with ``diagonal`` set."""
        labels = self.languages.labels
        k = len(labels)
        arr = np.array(self.values, dtype=float)
        if arr.shape != (k, k):
            raise DomainError(f"matrix must be {k}x{k}, got {arr.shape}")
        absent = np.isnan(arr)
        with np.errstate(invalid="ignore"):
            apart = np.abs(arr - arr.T) > 1e-9
        bad = np.triu((absent != absent.T) | apart, 1)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            if absent[i, j] != absent[j, i]:
                raise DomainError(f"asymmetric presence at ({labels[i]}, {labels[j]})")
            raise DomainError(
                f"asymmetric at ({labels[i]}, {labels[j]}): {arr[i, j]} vs {arr[j, i]}"
            )
        wrong = np.flatnonzero(np.abs(arr.diagonal() - diagonal) > 1e-9)
        if wrong.size:
            raise DomainError(
                f"diagonal of a {self._cell} matrix must be {diagonal_rule} "
                f"(language {labels[wrong[0]]})"
            )
        np.fill_diagonal(arr, diagonal)
        bad = outside(arr)  # false at NaN
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DomainError(f"{domain_rule} at ({labels[i]}, {labels[j]}): {arr[i, j]}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def value(self, a: str, b: str) -> float:
        return float(self.values[self.languages.index(a), self.languages.index(b)])

    def is_complete(self) -> bool:
        return not np.isnan(self.values).any()

    def with_value(self, a: str, b: str, value: float):
        """Return a copy, of the same class, with one symmetric entry replaced."""
        i, j = self.languages.index(a), self.languages.index(b)
        if i == j:
            raise DomainError(f"cannot set a diagonal {self._cell}")
        arr = np.array(self.values)
        arr[i, j] = arr[j, i] = value
        return type(self)(self.languages, arr)


@dataclass(frozen=True)
class CoincidenceMatrix(_LabeledMatrix):
    """Symmetric matrix of coincidence percentages over a language set.

    Entries are percentages in (0, 100]; NaN marks an unobserved pair.
    """

    _cell = "coincidence"

    def __post_init__(self):
        self._check(100.0, "absent or 100", "coincidence out of (0, 100]",
                    lambda v: (v <= 0) | (v > 100))


@dataclass(frozen=True)
class DistanceMatrix(_LabeledMatrix):
    """Symmetric matrix of svodesh distances; NaN marks an unobserved pair."""

    _cell = "distance"

    def __post_init__(self):
        self._check(0.0, "0", "distances must be finite and >= 0",
                    lambda v: (v < 0) | np.isinf(v))


@dataclass(frozen=True)
class WeightVector:
    """Positive per-language weights, aligned with a language set."""

    languages: LanguageSet
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) != len(self.languages):
            raise DomainError("one weight per language required")
        if any(not np.isfinite(v) or v <= 0 for v in vals):
            raise DomainError("weights must be finite and > 0")
        object.__setattr__(self, "values", vals)

    @classmethod
    def unit(cls, languages: LanguageSet) -> "WeightVector":
        return cls(languages, (1.0,) * len(languages))

    def value(self, label: str) -> float:
        return self.values[self.languages.index(label)]


@dataclass(frozen=True)
class Junction:
    """One merge event of the dendrogram.

    ``near`` and ``far`` are node ids: leaves are indexed 0..k-1 in language
    order, junction j has node id k+j.  The anchor lies on the near child's
    lineage.  An unresolved junction knows only the total path length between
    its children's anchors; ``depth``/``lateral`` then hold the maximum-depth
    nominal decomposition and ``depth_range`` the feasible depth interval.
    """

    near: int
    far: int
    depth: float
    lateral: float
    status: str = RESOLVED
    total_length: float | None = None
    depth_range: tuple[float, float] | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        depth, lateral, total, span = self.depth, self.lateral, self.total_length, self.depth_range
        if isinstance(self.flags, str):
            raise DomainError("flags must be a sequence of strings, not a string", "flags")
        if self.flags.__class__ is not tuple:
            try:
                object.__setattr__(self, "flags", tuple(self.flags))
            except TypeError:
                raise DomainError("flags must be a sequence of strings", "flags") from None
        for i, flag in enumerate(self.flags):
            if not isinstance(flag, str):
                raise DomainError("flag must be a string", f"flags[{i}]")
        if self.status not in (RESOLVED, UNRESOLVED):
            raise DomainError(f"unknown junction status {self.status!r}", "status")
        isfinite = math.isfinite
        if not (isfinite(depth) and isfinite(lateral)
                and (total is None or isfinite(total))
                and (not span or all(map(isfinite, span)))):
            raise DomainError("junction geometry must be finite")
        if lateral < 0:
            raise DomainError("lateral width must be >= 0", "lateral")
        if depth < 0:
            raise DomainError("junction depth must be >= 0", "depth")
        if self.status == UNRESOLVED:
            if total is None or total <= 0:
                raise DomainError("unresolved junction requires total_length > 0")
            if span is None or span[0] > span[1]:
                raise DomainError("unresolved junction requires a depth range min <= max")

    @property
    def resolved(self) -> bool:
        return self.status == RESOLVED


class _Layout(NamedTuple):
    """Leaves in near-first order: each junction's near members, then its far
    members, recursively from the root."""

    position: tuple[int, ...]  # leaf id -> its place in that order
    blocks: tuple[tuple[int, int, int], ...]  # per junction: (lo, mid, hi), near [lo, mid)


@dataclass(frozen=True)
class Dendrogram:
    """A complete binary merge tree over a language set."""

    languages: LanguageSet
    junctions: tuple[Junction, ...]
    mode: str = PRECISE
    weights: WeightVector | None = None

    def __post_init__(self):
        """One walk in junction order checks each junction's children, the
        unresolved-root rule and its anchors, so the first fault in that
        order is reported, and records each node's parent (-1 at the root),
        carrier and anchor depth and each junction's gains."""
        check_mode(self.mode)
        k = len(self.languages)
        junctions = tuple(self.junctions)
        if len(junctions) != k - 1:
            raise DomainError(f"{k} languages require {k - 1} junctions, got {len(junctions)}")
        parent = [-1] * (2 * k - 1)
        carrier = list(range(k))
        depth = list(self.languages.depths)
        gains = []
        for nid, jn in enumerate(junctions, start=k):
            for child in (jn.near, jn.far):
                if not (0 <= child < nid):
                    raise DomainError(f"junction {nid - k} references node {child} out of order")
                if parent[child] >= 0:
                    raise DomainError(f"node {child} used as a child twice")
                parent[child] = nid
            if jn.status == UNRESOLVED and nid != 2 * k - 2:
                raise DomainError("only the root junction may be unresolved",
                                  f"junctions[{nid - k}].status")
            a, b = depth[jn.near], depth[jn.far]
            if jn.resolved and jn.depth < max(a, b) - 1e-9:
                raise DomainError(
                    f"junction {nid - k} depth {jn.depth} above a child anchor ({max(a, b)})")
            carrier.append(carrier[jn.near])
            depth.append(jn.depth)
            gains.append((jn.total_length, 0.0) if jn.status == UNRESOLVED
                         else (jn.depth - a, (jn.depth - b) + jn.lateral))
        for name, record in (("junctions", junctions), ("_parent", parent),
                             ("_carrier", carrier), ("_depth", depth), ("_gains", gains)):
            object.__setattr__(self, name, tuple(record))

    # -- tree queries -------------------------------------------------------

    def _node(self, node_id: int) -> int:
        if not 0 <= node_id < len(self._parent):  # a negative id would wrap to the root
            raise DomainError(f"node ids must lie in 0..{len(self._parent) - 1} (got {node_id})")
        return node_id

    def anchor_depth(self, node_id: int) -> float:
        """Depth of a node's anchor: a leaf's attestation depth or a junction's D."""
        return self._depth[self._node(node_id)]

    def gains(self) -> tuple[tuple[float, float], ...]:
        """Per junction: near gain ``D - a``, far gain ``(D - b) + h``; at an
        unresolved root, whose total alone is known, ``(total_length, 0.0)``."""
        return self._gains

    @cached_property
    def _members(self) -> tuple[tuple[int, ...], ...]:
        members = [(i,) for i in range(len(self.languages))]
        for jn in self.junctions:
            members.append(tuple(sorted(members[jn.near] + members[jn.far])))
        return tuple(members)

    @cached_property
    def _anchor_tables(self) -> tuple[dict[int, float], ...]:
        """Summed up the junctions' ``gains``: an unresolved root's near side gains its total."""
        tables = [{i: 0.0} for i in range(len(self.languages))]
        for jn, (gain_near, gain_far) in zip(self.junctions, self._gains):
            table = {leaf: d + gain_near for leaf, d in tables[jn.near].items()}
            table.update({leaf: d + gain_far for leaf, d in tables[jn.far].items()})
            tables.append(table)
        return tuple(tables)

    def junction_at(self, node_id: int) -> Junction:
        if self._node(node_id) < len(self.languages):
            raise DomainError(f"node {node_id} is a leaf")
        return self.junctions[node_id - len(self.languages)]

    def members(self, node_id: int) -> tuple[int, ...]:
        """Leaf ids under a node, in language order."""
        return self._members[self._node(node_id)]

    def carrier(self, node_id: int) -> int:
        """The leaf whose lineage carries the node's anchor."""
        return self._carrier[self._node(node_id)]

    def anchor_tables(self) -> tuple[dict[int, float], ...]:
        """Per node id: leaf id -> path length from the leaf to the node's anchor.

        Each junction adds its ``gains``, so an unresolved root's table holds
        paths to its far child's anchor, a near leaf's across the whole link.
        Each table lists near members before far ones.  Filled on first
        call and cached, so a build that never asks pays nothing: read only.
        """
        return self._anchor_tables

    @cached_property
    def _layout(self) -> _Layout:
        """The near-first leaf order, swept down from the root; block sizes
        are read through ``members``."""
        k = len(self.languages)
        start = [0] * (k + len(self.junctions))
        blocks = [(0, 0, 0)] * len(self.junctions)
        for idx in reversed(range(len(self.junctions))):
            jn = self.junctions[idx]
            lo = start[k + idx]
            mid = lo + len(self.members(jn.near))
            blocks[idx] = (lo, mid, mid + len(self.members(jn.far)))
            start[jn.near], start[jn.far] = lo, mid
        return _Layout(tuple(start[:k]), tuple(blocks))

    @cached_property
    def _meeting(self) -> np.ndarray:
        """Leaf pair -> node id where the pair first meets; a leaf's parent if
        equal.  Filled from the layout's blocks by ``meeting_junctions``."""
        k = len(self.languages)
        layout = self._layout
        table = np.empty((k, k), dtype=np.intp)
        for nid, (lo, mid, hi) in enumerate(layout.blocks, start=k):
            table[lo:mid, mid:hi] = table[mid:hi, lo:mid] = nid
        table = table[np.ix_(layout.position, layout.position)]
        np.fill_diagonal(table, self._parent[:k])
        return table

    def lca_junction(self, a: int, b: int) -> int:
        """Node id of the lowest junction containing both leaves (a == b: the parent).

        Read from the k x k meeting table when the tree holds one (only
        ``meeting_junctions``, the batch query, builds it); otherwise found by
        walking parent links up from both leaves.
        """
        k = len(self.languages.labels)
        if not (0 <= a < k and 0 <= b < k):  # numpy would wrap a negative id
            raise DomainError(f"leaf ids must lie in 0..{k - 1} (got {a}, {b})")
        table = self.__dict__.get("_meeting")
        if table is not None:
            node = table.item(a, b)
        else:
            # A parent's id exceeds its children's, so the lower of two ids
            # cannot be an ancestor of the other and is the one to step up.
            parent = self._parent
            node, y = parent[a], parent[b]
            while node != y:
                if node < y:
                    node = parent[node]
                else:
                    y = parent[y]
        if node < 0:
            raise DomainError("leaves do not share a junction")
        return node

    def meeting_junctions(self, labels: Sequence[str]) -> list[list[Junction]]:
        """The junction where each pair of the given leaves first meets, read
        as one block of the k x k meeting table (built here if the tree has
        none): entry [i][j] for ``labels[i]`` and ``labels[j]``, a leaf's
        parent on the diagonal.  The tree needs two or more leaves."""
        if not self.junctions:
            raise DomainError("leaves do not share a junction")
        ids = [self.languages.index(label) for label in labels]
        junctions = np.empty(len(self.junctions), dtype=object)
        junctions[:] = self.junctions
        return junctions[self._meeting[np.ix_(ids, ids)] - len(self.languages.labels)].tolist()

    def meeting_junction(self, a: str, b: str) -> Junction:
        """The junction where leaves ``a`` and ``b`` first share a cluster."""
        return self.junction_at(
            self.lca_junction(self.languages.index(a), self.languages.index(b))
        )


# -- path-distance operations ---------------------------------------------


def anchor_distance(dendrogram: Dendrogram, node_id: int, leaf: str) -> float:
    """Path length from a leaf up to the anchor of the cluster at ``node_id``;
    an unresolved root, whose total alone is known, has no anchor."""
    i, k = dendrogram.languages.index(leaf), len(dendrogram.languages)
    if dendrogram._node(node_id) >= k and not dendrogram.junction_at(node_id).resolved:
        raise DomainError(f"node {node_id} is an unresolved root and has no anchor")
    table = dendrogram.anchor_tables()[node_id]
    if i not in table:
        raise DomainError(f"leaf {leaf!r} is not in the requested cluster")
    return table[i]


def leaf_distance(dendrogram: Dendrogram, a: str, b: str) -> float:
    """Tree-path distance between two leaves, in svodesh: the sum of their
    entries in the anchor table of the junction where they meet.  An
    unresolved root's table carries its fixed total length, whatever its split.
    """
    ia = dendrogram.languages.index(a)
    ib = dendrogram.languages.index(b)
    if ia == ib:
        return 0.0
    table = dendrogram.anchor_tables()[dendrogram.lca_junction(ia, ib)]
    return table[ia] + table[ib]


def restore_distance_matrix(dendrogram: Dendrogram) -> DistanceMatrix:
    """All-pairs leaf distances measured on the dendrogram.

    Reads the tree's near-first leaf layout, not its anchor tables or its
    meeting table, so it builds neither.  Each leaf pair crosses exactly one
    junction (its lowest common one), where its distance is the sum of the
    two anchor distances; in the layout the pairs meeting at a junction
    form one near x far block.  One sweep up the junctions adds each one's
    ``gains`` (an unresolved root's total on its near side) to its near and
    far leaves in place, the same sums in the same order as the anchor
    tables, and fills the junction's block.
    """
    k = len(dendrogram.languages)
    layout = dendrogram._layout
    to_anchor = np.zeros(k)  # per place in the layout: path length to the current anchor
    out = np.zeros((k, k))
    with np.errstate(over="ignore"):  # inf beyond float range, rejected below
        for (gain_near, gain_far), (lo, mid, hi) in zip(dendrogram.gains(), layout.blocks):
            near, far = to_anchor[lo:mid], to_anchor[mid:hi]
            near += gain_near
            far += gain_far
            np.add.outer(near, far, out=out[lo:mid, mid:hi])
        out += out.T  # each block was filled above the diagonal only
    where = np.array(layout.position)
    return DistanceMatrix(dendrogram.languages, out[where[:, None], where])


def restore_coincidence_matrix(dendrogram: Dendrogram) -> CoincidenceMatrix:
    """Leaf distances converted back to coincidence percentages."""
    from . import chronometry

    return chronometry.matrix_to_coincidences(
        restore_distance_matrix(dendrogram), dendrogram.mode
    )


# -- serialization ----------------------------------------------------------


def _number(x: float):
    """Render integral floats as ints so documents diff cleanly."""
    f = float(x)
    return int(f) if f.is_integer() else f


def _json_number(x: float) -> str:
    return repr(_number(x))


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of written items, one per line, closing at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def serialize(dendrogram: Dendrogram) -> str:
    """Serialize to the versioned JSON document format (stable field order).

    Written directly, byte for byte as ``json.dumps(doc, indent=2,
    ensure_ascii=False)`` lays the document out (see ``docs/schema.md``).
    """
    text = encode_basestring
    names = list(map(text, dendrogram.languages.labels))
    k = len(names)

    def ref(node_id: int) -> str:
        return names[node_id] if node_id < k else repr(node_id - k)

    languages = [
        f'{{\n      "name": {name},\n      "depth": {_json_number(depth)}\n    }}'
        for name, depth in zip(names, dendrogram.languages.depths)
    ]
    weights = (
        "null" if dendrogram.weights is None
        else _json_list(list(map(_json_number, dendrogram.weights.values)), "  ")
    )
    junctions = []
    for jn in dendrogram.junctions:
        status = f'{{\n        "state": {text(jn.status)}'
        if jn.status == UNRESOLVED:
            status += (
                f',\n        "total_length": {_json_number(jn.total_length)}'
                f',\n        "depth_min": {_json_number(jn.depth_range[0])}'
                f',\n        "depth_max": {_json_number(jn.depth_range[1])}'
            )
        junctions.append(
            f'{{\n      "near": {ref(jn.near)},\n      "far": {ref(jn.far)}'
            f',\n      "depth": {_json_number(jn.depth)}'
            f',\n      "lateral": {_json_number(jn.lateral)}'
            f',\n      "status": {status}\n      }}'
            f',\n      "flags": {_json_list(list(map(text, jn.flags)), "      ")}'
            "\n    }"
        )
    return (
        f'{{\n  "format": {text(FORMAT_NAME)},\n  "version": {FORMAT_VERSION}'
        f',\n  "kind": "dendrogram",\n  "mode": {text(dendrogram.mode)}'
        f',\n  "languages": {_json_list(languages, "  ")}'
        f',\n  "weights": {weights}'
        f',\n  "junctions": {_json_list(junctions, "  ")}\n}}\n'
    )


def _expect(doc: dict, key: str, location: str):
    if key not in doc:
        raise ParseError(f"missing field {key!r}", location)
    return doc[key]


def _expect_number(doc: dict, key: str, location: str, default=None) -> float:
    """A finite JSON number; ``default`` stands in for an absent optional field."""
    value = _expect(doc, key, location) if default is None else doc.get(key, default)
    return _as_number(value, key, f"{location}.{key}")


def _expect_string(doc: dict, key: str, location: str, choices=(), default=None) -> str:
    """A JSON string, one of ``choices`` when given; ``default`` stands in for
    an absent optional field."""
    value = _expect(doc, key, location) if default is None else doc.get(key, default)
    if choices and value not in choices:
        raise ParseError(f"{key} must be one of {', '.join(choices)}", f"{location}.{key}")
    if not isinstance(value, str):
        raise ParseError(f"{key} must be a string", f"{location}.{key}")
    return value


def _expect_mode(doc: dict, default: str | None = None) -> str:
    """The document's arithmetic mode; ``default`` stands in for an absent field."""
    mode = _expect(doc, "mode", "mode") if default is None else doc.get("mode", default)
    if mode not in MODES:
        raise ParseError(f"unknown mode {mode!r}", "mode")
    return mode


def _as_number(value, name: str, location: str) -> float:
    """``value`` as a float if it is a finite JSON number (not a boolean or string)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise ParseError(f"{name} must be a finite number", location)


def _objects(doc: dict, key: str, entry: str, listed: str = "a list"):
    """Each entry of the list field ``key`` with its location, in document
    order.  An entry is checked to be an object (``entry`` names it) only when
    the walk reaches it, so the first fault in document order is reported."""
    items = _expect(doc, key, key)
    if not isinstance(items, list):
        raise ParseError(f"{key} must be {listed}", key)
    for i, item in enumerate(items):
        location = f"{key}[{i}]"
        if not isinstance(item, dict):
            raise ParseError(f"{entry} must be an object", location)
        yield location, item


def _languages(doc: dict, listed: str):
    """Each ``languages`` entry as its location, name and depth, in document
    order; an entry without ``depth`` has depth 0."""
    for location, entry in _objects(doc, "languages", "language entry", listed):
        yield (location, _expect_string(entry, "name", location),
               _expect_number(entry, "depth", location, default=0.0))


def load_document(text: str) -> dict:
    """Decode a document and check its format and version; each kind's
    reader (``read_dendrogram``, ``merger.read_graph``) checks its ``kind``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg}", f"line {exc.lineno}") from None
    except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object", "$")
    if doc.get("format") != FORMAT_NAME:
        raise ParseError(f"unknown format {doc.get('format')!r}", "format")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # not true, not 1.0
        raise ParseError(f"unsupported version {version!r}", "version")
    return doc


def _expect_kind(doc: dict, kind: str) -> None:
    """A document without ``kind`` is a dendrogram."""
    if doc.get("kind", "dendrogram") != kind:
        raise ParseError(f"not a {kind} document: kind={doc.get('kind')!r}", "kind")


def deserialize(text: str) -> Dendrogram:
    """Parse a dendrogram document, enforcing all structural invariants."""
    return read_dendrogram(load_document(text))


def read_dendrogram(doc: dict) -> Dendrogram:
    """The dendrogram of a decoded document (see ``load_document``),
    enforcing all structural invariants."""
    _expect_kind(doc, "dendrogram")
    mode = _expect_mode(doc)

    entries = [(name, depth) for _, name, depth in _languages(doc, "a non-empty list")]
    if not entries:
        raise ParseError("languages must be a non-empty list", "languages")
    try:
        languages = LanguageSet(*zip(*entries))
    except DomainError as exc:
        raise ParseError(str(exc), "languages") from None

    weights_doc = doc.get("weights")
    weights = None
    if weights_doc is not None:
        if not isinstance(weights_doc, list):
            raise ParseError("weights must be a list of numbers", "weights")
        values = [_as_number(w, "weight", f"weights[{i}]") for i, w in enumerate(weights_doc)]
        try:
            weights = WeightVector(languages, tuple(values))
        except DomainError as exc:
            raise ParseError(f"bad weights: {exc}", "weights") from None

    k = len(languages)

    def node_ref(value, location):
        if isinstance(value, str):
            try:
                return languages.index(value)
            except DomainError:
                raise ParseError(f"unknown leaf {value!r}", location) from None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError("node reference must be a leaf name or junction index", location)
        if not (0 <= value < len(doc["junctions"])):  # a list once its walk has begun
            raise ParseError(f"junction index {value} out of range", location)
        return k + value

    junctions = []
    for loc, entry in _objects(doc, "junctions", "junction"):
        near = node_ref(_expect(entry, "near", loc), f"{loc}.near")
        far = node_ref(_expect(entry, "far", loc), f"{loc}.far")
        depth = _expect_number(entry, "depth", loc)
        lateral = _expect_number(entry, "lateral", loc)
        status_doc = _expect(entry, "status", loc)
        if not isinstance(status_doc, dict) or "state" not in status_doc:
            raise ParseError("status must carry a state", f"{loc}.status")
        state = status_doc["state"]
        total = None
        depth_range = None
        if state == UNRESOLVED:
            total = _expect_number(status_doc, "total_length", f"{loc}.status")
            depth_range = (
                _expect_number(status_doc, "depth_min", f"{loc}.status"),
                _expect_number(status_doc, "depth_max", f"{loc}.status"),
            )
        flags = entry.get("flags", [])
        if not isinstance(flags, list):
            raise ParseError("flags must be a list", f"{loc}.flags")
        try:
            junctions.append(
                Junction(
                    near=near,
                    far=far,
                    depth=depth,
                    lateral=lateral,
                    status=state,
                    total_length=total,
                    depth_range=depth_range,
                    flags=tuple(flags),
                )
            )
        except DomainError as exc:
            raise ParseError(str(exc), f"{loc}.{exc.field}" if exc.field else loc) from None
    try:
        return Dendrogram(languages, tuple(junctions), mode=mode, weights=weights)
    except DomainError as exc:
        raise ParseError(str(exc), exc.field or "junctions") from None
