"""Core data model: labeled matrices, dendrograms, path distances, serialization.

A dendrogram here is a binary merge tree whose junctions carry two geometric
quantities: a depth ``D`` (svodesh before present, measured down the time
axis) and a lateral width ``h`` (svodesh along the synchronic chain axis).
The junction's anchor point sits on the *near* child's lineage at depth
``D``; the far child's lineage rises vertically to depth ``D`` and then runs
laterally ``h`` svodesh to the anchor.  Path lengths between leaves are sums
of vertical and lateral segment lengths.
"""

from __future__ import annotations

import json
import math
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
        if self.status not in (RESOLVED, UNRESOLVED):
            raise DomainError(f"unknown junction status {self.status!r}")
        numbers = (self.depth, self.lateral, self.total_length, *(self.depth_range or ()))
        if not all(x is None or math.isfinite(x) for x in numbers):
            raise DomainError("junction geometry must be finite")
        if self.lateral < 0:
            raise DomainError("lateral width must be >= 0")
        if self.depth < 0:
            raise DomainError("junction depth must be >= 0")
        if self.status == UNRESOLVED:
            if self.total_length is None or self.total_length <= 0:
                raise DomainError("unresolved junction requires total_length > 0")
            if self.depth_range is None or self.depth_range[0] > self.depth_range[1]:
                raise DomainError("unresolved junction requires a depth range min <= max")
        object.__setattr__(self, "flags", tuple(self.flags))

    @property
    def resolved(self) -> bool:
        return self.status == RESOLVED


class _TreeIndex(NamedTuple):
    members: tuple[tuple[int, ...], ...]  # all per node id
    parent: tuple[int, ...]  # -1 at the root
    carrier: tuple[int, ...]


@dataclass(frozen=True)
class Dendrogram:
    """A complete binary merge tree over a language set."""

    languages: LanguageSet
    junctions: tuple[Junction, ...]
    mode: str = PRECISE
    weights: WeightVector | None = None

    def __post_init__(self):
        check_mode(self.mode)
        k = len(self.languages)
        if len(self.junctions) != k - 1:
            raise DomainError(
                f"{k} languages require {k - 1} junctions, got {len(self.junctions)}"
            )
        object.__setattr__(self, "junctions", tuple(self.junctions))
        seen_child: set[int] = set()
        for idx, jn in enumerate(self.junctions):
            nid = k + idx
            for child in (jn.near, jn.far):
                if not (0 <= child < nid):
                    raise DomainError(
                        f"junction {idx} references node {child} out of order"
                    )
                if child in seen_child:
                    raise DomainError(f"node {child} used as a child twice")
                seen_child.add(child)
            if jn.near == jn.far:
                raise DomainError(f"junction {idx} joins a node with itself")
            if jn.status == UNRESOLVED and idx != len(self.junctions) - 1:
                raise DomainError("only the root junction may be unresolved")
        # Exactly one root: every node except the last junction is a child.
        if k > 1 and len(seen_child) != k + len(self.junctions) - 1:
            raise DomainError("dendrogram must have exactly one root")
        for idx, jn in enumerate(self.junctions):
            lo = max(self.anchor_depth(jn.near), self.anchor_depth(jn.far))
            if jn.resolved and jn.depth < lo - 1e-9:
                raise DomainError(
                    f"junction {idx} depth {jn.depth} above a child anchor ({lo})"
                )

    # -- tree queries -------------------------------------------------------

    def anchor_depth(self, node_id: int) -> float:
        """Depth of a node's anchor: a leaf's attestation depth or a junction's D."""
        k = len(self.languages)
        if node_id < k:
            return self.languages.depths[node_id]
        return self.junctions[node_id - k].depth

    @cached_property
    def _index(self) -> _TreeIndex:
        """Members, parents and carriers, built in one sweep."""
        k = len(self.languages)
        members = [(i,) for i in range(k)]
        parent = [-1] * (k + len(self.junctions))
        carrier = list(range(k))
        for idx, jn in enumerate(self.junctions):
            parent[jn.near] = parent[jn.far] = k + idx
            members.append(tuple(sorted(members[jn.near] + members[jn.far])))
            carrier.append(carrier[jn.near])
        return _TreeIndex(tuple(members), tuple(parent), tuple(carrier))

    @cached_property
    def _anchor_tables(self) -> tuple[dict[int, float], ...]:
        tables = [{i: 0.0} for i in range(len(self.languages))]
        for jn in self.junctions:
            gain_near = jn.depth - self.anchor_depth(jn.near)
            gain_far = (jn.depth - self.anchor_depth(jn.far)) + jn.lateral
            table = {leaf: d + gain_near for leaf, d in tables[jn.near].items()}
            table.update({leaf: d + gain_far for leaf, d in tables[jn.far].items()})
            tables.append(table)
        return tuple(tables)

    def root_id(self) -> int:
        return len(self.languages) + len(self.junctions) - 1

    def junction_at(self, node_id: int) -> Junction:
        k = len(self.languages)
        if node_id < k:
            raise DomainError(f"node {node_id} is a leaf")
        return self.junctions[node_id - k]

    def members(self, node_id: int) -> tuple[int, ...]:
        """Leaf ids under a node, in language order."""
        return self._index.members[node_id]

    def carrier(self, node_id: int) -> int:
        """The leaf whose lineage carries the node's anchor."""
        return self._index.carrier[node_id]

    def anchor_tables(self) -> tuple[dict[int, float], ...]:
        """Per node id: leaf id -> path length from the leaf to the node's anchor.

        Unresolved junctions contribute their nominal decomposition here;
        ``leaf_distance`` never consults the table across an unresolved root.
        Each table lists near members before far ones.  Filled on first
        call and cached, so a build that never asks pays nothing: read only.
        """
        return self._anchor_tables

    @cached_property
    def _meeting(self) -> np.ndarray:
        """Leaf pair -> node id where the pair first meets; a leaf's parent if equal."""
        k = len(self.languages)
        start = [0] * (k + len(self.junctions))  # each node's block in near-first leaf order
        table = np.empty((k, k), dtype=np.intp)
        for nid, jn in reversed(tuple(enumerate(self.junctions, start=k))):
            lo = start[nid]  # the pairs meeting at nid: its near x far members
            mid = lo + len(self.members(jn.near))
            end = mid + len(self.members(jn.far))
            start[jn.near], start[jn.far] = lo, mid
            table[lo:mid, mid:end] = table[mid:end, lo:mid] = nid
        table = table[np.ix_(start[:k], start[:k])]
        np.fill_diagonal(table, self._index.parent[:k])
        return table

    def lca_junction(self, a: int, b: int) -> int:
        """Node id of the lowest junction containing both leaves (a == b: the parent)."""
        node = int(self._meeting[a, b])
        if node < 0:
            raise DomainError("leaves do not share a junction")
        return node

    def meeting_junction(self, a: str, b: str) -> Junction:
        """The junction where leaves ``a`` and ``b`` first share a cluster."""
        return self.junction_at(
            self.lca_junction(self.languages.index(a), self.languages.index(b))
        )


# -- path-distance operations ---------------------------------------------


def anchor_distance(dendrogram: Dendrogram, node_id: int, leaf: str) -> float:
    """Path length from a leaf up to the anchor of the cluster at ``node_id``."""
    i = dendrogram.languages.index(leaf)
    table = dendrogram.anchor_tables()[node_id]
    if i not in table:
        raise DomainError(f"leaf {leaf!r} is not in the requested cluster")
    return table[i]


def leaf_distance(dendrogram: Dendrogram, a: str, b: str) -> float:
    """Tree-path distance between two leaves, in svodesh.

    An unresolved root contributes its fixed total length, which makes the
    result independent of how that link would split into vertical and
    lateral parts.
    """
    ia = dendrogram.languages.index(a)
    ib = dendrogram.languages.index(b)
    if ia == ib:
        return 0.0
    tables = dendrogram.anchor_tables()
    lca = dendrogram.lca_junction(ia, ib)
    jn = dendrogram.junction_at(lca)
    if jn.status == UNRESOLVED:
        near_t, far_t = tables[jn.near], tables[jn.far]
        first, second = (ia, ib) if ia in near_t else (ib, ia)
        return near_t[first] + jn.total_length + far_t[second]
    table = tables[lca]
    return table[ia] + table[ib]


def restore_distance_matrix(dendrogram: Dendrogram) -> DistanceMatrix:
    """All-pairs leaf distances measured on the dendrogram.

    One sweep over junctions: each leaf pair crosses exactly one junction
    (its lowest common one), where its distance is the sum of the two
    anchor distances.  The root's anchor table lists the leaves so that
    every junction's near members are followed by its far members, so each
    junction fills one near x far block of that order at once.
    """
    k = len(dendrogram.languages)
    tables = dendrogram.anchor_tables()
    at = {leaf: i for i, leaf in enumerate(tables[-1])}
    out = np.zeros((k, k))
    for idx, jn in enumerate(dendrogram.junctions):
        near_t, far_t = tables[jn.near], tables[jn.far]
        if jn.status == UNRESOLVED:
            to_near = [da + jn.total_length for da in near_t.values()]
            to_far = list(far_t.values())
        else:
            both = list(tables[k + idx].values())
            to_near, to_far = both[: len(near_t)], both[len(near_t) :]
        start = at[next(iter(near_t))]
        mid = start + len(near_t)
        end = mid + len(far_t)
        with np.errstate(over="ignore"):  # inf beyond float range, rejected below
            block = np.add.outer(to_near, to_far)
        out[start:mid, mid:end] = block
        out[mid:end, start:mid] = block.T
    where = np.array([at[leaf] for leaf in range(k)])
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


def load_document(text: str, kind: str) -> dict:
    """Decode a document and check its format, version and kind.

    A document without a ``kind`` is a dendrogram.
    """
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
    if doc.get("kind", "dendrogram") != kind:
        raise ParseError(f"not a {kind} document: kind={doc.get('kind')!r}", "kind")
    return doc


def deserialize(text: str) -> Dendrogram:
    """Parse a dendrogram document, enforcing all structural invariants."""
    doc = load_document(text, "dendrogram")
    mode = _expect_mode(doc)

    langs_doc = _expect(doc, "languages", "languages")
    if not isinstance(langs_doc, list) or not langs_doc:
        raise ParseError("languages must be a non-empty list", "languages")
    names, depths = [], []
    for i, entry in enumerate(langs_doc):
        loc = f"languages[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("language entry must be an object", loc)
        names.append(_expect_string(entry, "name", loc))
        depths.append(_expect_number(entry, "depth", loc, default=0.0))
    try:
        languages = LanguageSet(tuple(names), tuple(depths))
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
    juncs_doc = _expect(doc, "junctions", "junctions")
    if not isinstance(juncs_doc, list):
        raise ParseError("junctions must be a list", "junctions")
    junctions = []
    unresolved_seen = 0
    for idx, entry in enumerate(juncs_doc):
        loc = f"junctions[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError("junction must be an object", loc)

        def node_ref(value, field_name):
            if isinstance(value, str):
                try:
                    return languages.index(value)
                except DomainError:
                    raise ParseError(
                        f"unknown leaf {value!r}", f"{loc}.{field_name}"
                    ) from None
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParseError(
                    "node reference must be a leaf name or junction index",
                    f"{loc}.{field_name}",
                )
            if not (0 <= value < len(juncs_doc)):
                raise ParseError(
                    f"junction index {value} out of range", f"{loc}.{field_name}"
                )
            return k + value

        near = node_ref(_expect(entry, "near", loc), "near")
        far = node_ref(_expect(entry, "far", loc), "far")
        depth = _expect_number(entry, "depth", loc)
        lateral = _expect_number(entry, "lateral", loc)
        if lateral < 0:
            raise ParseError("lateral width must be >= 0", f"{loc}.lateral")
        status_doc = _expect(entry, "status", loc)
        if not isinstance(status_doc, dict) or "state" not in status_doc:
            raise ParseError("status must carry a state", f"{loc}.status")
        state = status_doc["state"]
        total = None
        depth_range = None
        if state == UNRESOLVED:
            unresolved_seen += 1
            if unresolved_seen > 1:
                raise ParseError(
                    "at most one junction may be unresolved", f"{loc}.status"
                )
            total = _expect_number(status_doc, "total_length", f"{loc}.status")
            depth_range = (
                _expect_number(status_doc, "depth_min", f"{loc}.status"),
                _expect_number(status_doc, "depth_max", f"{loc}.status"),
            )
        elif state != RESOLVED:
            raise ParseError(f"unknown state {state!r}", f"{loc}.status")
        flags = entry.get("flags", [])
        if not isinstance(flags, list):
            raise ParseError("flags must be a list", f"{loc}.flags")
        for i, flag in enumerate(flags):
            if not isinstance(flag, str):
                raise ParseError("flag must be a string", f"{loc}.flags[{i}]")
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
            raise ParseError(str(exc), loc) from None
    try:
        return Dendrogram(languages, tuple(junctions), mode=mode, weights=weights)
    except DomainError as exc:
        raise ParseError(str(exc), "junctions") from None
