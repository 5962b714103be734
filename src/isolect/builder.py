"""Agglomerative construction of chain-aware dendrograms.

The builder repeatedly joins the two closest clusters.  Unlike plain
average-linkage clustering, a join is allowed to be asymmetric: the member
whose mean distance to the outside world is larger is taken to branch off
*laterally* from the other's lineage.  With near anchor depth ``a``, far
anchor depth ``b``, link length ``L`` and external-mean difference ``dL``,
the junction geometry follows from two constraints (the anchor-to-anchor
path runs through the junction, and leaves are synchronous):

    lateral  h = dL + b - a
    depth    D = a + (L - dL) / 2

which is the deepest placement compatible with the observed offset.  The
final link of a build has no external points left to compute an offset
from; it is stored by total length and cross-checked by rebuilding with
that link joined first (see ``resolve_last_link``).

The reduced distances live in one float table indexed by node id, sized
(2k-1) x (2k-1) because node ids are never reused.  ``reduce`` writes only
the new node's row and column, cells no earlier state reads (it only reads
pairs of its own active nodes, all older than the new node), so every state
of a build shares the one table and no join copies it.  ``min_link`` finds
the shortest link over the active block in numpy.  ``lateral_offset`` and
``reduce`` work on whole rows of externals in cluster order, and two rules
keep every result equal to a per-external Python loop's: sums run left to
right through ``np.add.accumulate`` (never the pairwise ``np.sum``), and
``reduce`` rounds its whole row at once with the scalar rounding's IEEE
operations (``quantize_array``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from types import MappingProxyType

import numpy as np

from .errors import DomainError, IsolectError
from .model import (
    FLAG_CROSS_CHECKED,
    FLAG_INFEASIBLE,
    FLAG_NEGATIVE_REDUCED,
    FLAG_PURE_VERTICAL,
    FLAG_UNRESOLVED_DECOMPOSITION,
    Dendrogram,
    DistanceMatrix,
    Junction,
    RESOLVED,
    UNRESOLVED,
    WeightVector,
)
from .modes import PAPER, PRECISE, check_mode, quantize, quantize_array

EXTERNAL_MEANS = ("weighted", "simple")

DEFAULT_RESOLVE_TOLERANCE = 2.0


class FinalLinkError(IsolectError):
    """No external cluster exists: the pair under consideration is the root link."""


@dataclass(frozen=True)
class Cluster:
    """An active cluster during agglomeration.

    ``key`` is the sorted member-label tuple used for deterministic
    tie-breaking.  ``children`` pairs each joined child with its gain, the
    path length from the child's anchor up to this cluster's (empty for a
    leaf).
    """

    node: int
    members: tuple[int, ...]
    anchor_depth: float
    weight: float
    key: tuple[str, ...]
    children: tuple[tuple["Cluster", float], ...] = field(
        default=(), compare=False, repr=False
    )

    @cached_property
    def anchor_dist(self) -> dict[int, float]:
        """Member leaf -> path length up to the cluster anchor, near members
        first; computed on access from the children, read only."""
        if not self.children:
            return {leaf: 0.0 for leaf in self.members}
        # Fill the uncomputed descendants bottom-up, so no access recurses deeply.
        pending = [self]
        for cluster in pending:
            pending.extend(c for c, _ in cluster.children if "anchor_dist" not in vars(c))
        for cluster in reversed(pending[1:]):
            cluster.anchor_dist
        return {
            leaf: d + gain
            for child, gain in self.children
            for leaf, d in child.anchor_dist.items()
        }


@dataclass(frozen=True, eq=False)
class ClusterState:
    """Active clusters plus the reduced distances between them.

    ``table[x, y]`` is the reduced distance between nodes ``x`` and ``y``.
    States of one build share the table: a reduce fills the new node's row
    and column, which no earlier state reads, and marks the row taken by a
    zero on the diagonal.  A reduce that would write a taken row (an id
    reused, or a second branch from one state) writes into a copy instead.
    """

    clusters: tuple[Cluster, ...]
    table: np.ndarray
    mode: str

    @cached_property
    def _active(self) -> frozenset[int]:
        return frozenset(self._nodes.tolist())

    @cached_property
    def _nodes(self) -> np.ndarray:
        """Node ids of the active clusters, in cluster order."""
        return np.array([c.node for c in self.clusters], dtype=np.intp)

    def _externals(self, a: Cluster, b: Cluster) -> np.ndarray:
        """Mask over the active clusters: True except at ``a`` and ``b``."""
        return (self._nodes != a.node) & (self._nodes != b.node)

    @property
    def dist(self) -> Mapping[frozenset, float]:
        """Read-only view of the active pairs' distances, built on access."""
        nodes = [c.node for c in self.clusters]
        block = self.table[np.ix_(nodes, nodes)].tolist()
        return MappingProxyType({
            frozenset((x, y)): block[i][j]
            for i, x in enumerate(nodes)
            for j, y in enumerate(nodes[i + 1 :], i + 1)
        })

    def distance(self, a: Cluster, b: Cluster) -> float:
        pair = frozenset((a.node, b.node))
        if len(pair) != 2 or not pair <= self._active:
            raise KeyError(pair)
        return float(self.table[a.node, b.node])


@dataclass(frozen=True)
class JoinGeometry:
    """Resolved geometry of one join."""

    near: Cluster
    far: Cluster
    link_length: float
    offset: float
    depth: float
    lateral: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ResolutionResult:
    """Outcome of the final-link cross-check."""

    resolved: bool
    depth: float
    lateral: float
    total_length: float
    depth_range: tuple[float, float]
    simple_candidate: tuple[float, float]
    alternate_candidate: tuple[float, float] | None
    deviation: tuple[float, float] | None
    reason: str


def initial_state(
    matrix: DistanceMatrix, weights: WeightVector | None, mode: str
) -> ClusterState:
    """Singleton clusters over the matrix languages."""
    check_mode(mode)
    langs = matrix.languages
    if weights is None:
        weights = WeightVector.unit(langs)
    if weights.languages.labels != langs.labels:
        raise DomainError("weight vector does not match the matrix languages")
    if not matrix.is_complete():
        raise DomainError("the builder requires a complete distance matrix")
    clusters = tuple(
        Cluster(
            node=i,
            members=(i,),
            anchor_depth=langs.depths[i],
            weight=weights.values[i],
            key=(langs.labels[i],),
        )
        for i in range(len(langs))
    )
    k = len(langs)
    table = np.full((2 * k - 1, 2 * k - 1), np.nan)
    # The upper triangle is authoritative: symmetry is checked only to 1e-9.
    table[:k, :k] = np.where(np.tri(k, k, -1, dtype=bool), matrix.values.T, matrix.values)
    return ClusterState(clusters, table, mode)


def min_link(state: ClusterState) -> tuple[Cluster, Cluster]:
    """Closest active pair; ties broken on the sorted label-pair key."""
    clusters = state.clusters
    n = len(clusters)
    if n < 2:
        raise DomainError("need at least two active clusters")
    nodes = state._nodes
    # The block is symmetric: take the minimum over all of it but the
    # diagonal, and keep each tied pair once, as (i, j) with i < j.
    links = state.table.take(nodes, 0).take(nodes, 1)
    links.flat[:: n + 1] = np.inf
    tied = (divmod(at, n) for at in np.flatnonzero(links == links.min()).tolist())
    i, j = min(
        ((i, j) for i, j in tied if i < j),
        key=lambda ij: sorted((clusters[ij[0]].key, clusters[ij[1]].key)),
    )
    return clusters[i], clusters[j]


def lateral_offset(
    state: ClusterState,
    pair: tuple[Cluster, Cluster],
    external_means: str = "weighted",
) -> tuple[float, Cluster, Cluster]:
    """Offset between the pair's mean distances to all external clusters.

    Returns ``(dL, near, far)`` where ``far`` is the member with the larger
    external mean.  With ``external_means="weighted"`` every external
    cluster contributes proportionally to its total weight; ``"simple"``
    counts each external cluster once.
    """
    if external_means not in EXTERNAL_MEANS:
        raise DomainError(f"external_means must be one of {EXTERNAL_MEANS}")
    a, b = pair
    external = state._externals(a, b)
    rows = state.table.take((a.node, b.node), 0).take(state._nodes[external], 1)
    if not rows.shape[1]:
        raise FinalLinkError(
            "no external clusters: the pair forms the final (root) link"
        )
    if external_means == "weighted":
        weights = np.array([c.weight for c in state.clusters])[external]
    else:
        weights = np.ones(rows.shape[1])
    # Sequential sums, left to right as ``num += w * d`` would add them.
    num = np.add.accumulate(weights * rows, axis=1)[:, -1]
    den = np.add.accumulate(weights)[-1]
    means = [quantize(mean, state.mode) for mean in (num / den).tolist()]
    if means[0] == means[1]:
        # Equidistant pair: the lexicographically larger key goes far.
        near, far = (a, b) if a.key < b.key else (b, a)
        return 0.0, near, far
    if means[0] < means[1]:
        return means[1] - means[0], a, b
    return means[0] - means[1], b, a


def join_geometry(
    link_length: float,
    offset: float,
    near_depth: float,
    far_depth: float,
    mode: str = PRECISE,
) -> tuple[float, float, tuple[str, ...], float]:
    """Depth, lateral width, clamp flags and the (possibly adjusted) offset.

    In integer ("paper") mode an odd ``link_length - offset`` would leave a
    half-integer depth; the offset is decremented by one to restore parity
    (when the offset is already 0, the depth itself rounds, ties away).
    """
    check_mode(mode)
    if link_length < 0 or offset < 0:
        raise DomainError("link length and offset must be >= 0")
    a, b = near_depth, far_depth
    flags: list[str] = []
    if mode == PAPER and (round(link_length) - round(offset)) % 2 == 1:
        if offset >= 1:
            offset -= 1
    lateral = offset + b - a
    depth = a + (link_length - offset) / 2.0
    if lateral < 0:
        # Offset smaller than the anchor-depth gap: treat as purely vertical.
        flags.append(FLAG_PURE_VERTICAL)
        lateral = 0.0
        depth = (link_length + a + b) / 2.0
    depth = quantize(depth, mode)
    if depth < max(a, b):
        # Keep the anchor no shallower than either child; preserve the
        # anchor-to-anchor path length through the junction.
        flags.append(FLAG_INFEASIBLE)
        depth = max(a, b)
        lateral = link_length - 2 * depth + a + b
        if lateral < 0:
            lateral = 0.0
    return depth, lateral, tuple(flags), offset


def reduce(
    state: ClusterState,
    geometry: JoinGeometry,
    new_node: int,
) -> tuple[ClusterState, tuple[str, ...]]:
    """Replace the joined pair by the merged cluster.

    Each external entry becomes the weight-weighted mean of the two
    anchor-corrected child distances; the merged cluster keeps each child
    with its child-to-new-anchor increment.
    """
    near, far = geometry.near, geometry.far
    delta_near = geometry.depth - near.anchor_depth
    delta_far = (geometry.depth - far.anchor_depth) + geometry.lateral
    merged = Cluster(
        node=new_node,
        members=tuple(sorted(near.members + far.members)),
        anchor_depth=geometry.depth,
        weight=near.weight + far.weight,
        key=tuple(sorted(near.key + far.key)),
        children=((near, delta_near), (far, delta_far)),
    )
    external = state._externals(near, far)
    clusters = list(compress(state.clusters, external.tolist()))
    ext_nodes = state._nodes[external]
    table = state.table
    d_near, d_far = table.take((near.node, far.node), 0).take(ext_nodes, 1)
    d_near -= delta_near
    d_far -= delta_far
    values = quantize_array(
        (near.weight * d_near + far.weight * d_far) / merged.weight, state.mode
    )
    negative = values < 0
    values[negative] = 0.0
    flags = (FLAG_NEGATIVE_REDUCED,) * int(np.count_nonzero(negative))
    if new_node >= len(table) or table[new_node, new_node] == 0.0:
        # Another state owns this row: write into a copy of the table.
        size = max(len(table), new_node + 1)
        table = np.full((size, size), np.nan)
        table[: len(state.table), : len(state.table)] = state.table
    table[new_node, ext_nodes] = values
    table[ext_nodes, new_node] = values
    table[new_node, new_node] = 0.0
    clusters.append(merged)
    return ClusterState(tuple(clusters), table, state.mode), flags


def _first_join(
    matrix: DistanceMatrix,
    weights: WeightVector | None,
    mode: str,
    pair_labels: tuple[str, str],
    external_means: str,
) -> JoinGeometry:
    """Geometry of a forced first join between two leaves."""
    state = initial_state(matrix, weights, mode)
    by_label = {c.key[0]: c for c in state.clusters}
    pair = (by_label[pair_labels[0]], by_label[pair_labels[1]])
    offset, near, far = lateral_offset(state, pair, external_means)
    link = state.distance(near, far)
    depth, lateral, flags, offset = join_geometry(
        link, offset, near.anchor_depth, far.anchor_depth, mode
    )
    return JoinGeometry(near, far, link, offset, depth, lateral, flags)


def resolve_last_link(
    matrix: DistanceMatrix,
    weights: WeightVector | None,
    mode: str,
    primary: Dendrogram,
    external_means: str = "weighted",
    tolerance: float = DEFAULT_RESOLVE_TOLERANCE,
) -> ResolutionResult:
    """Cross-check the root link of a primary build.

    Two independent placements of the root link are compared: the
    simplest-form hypothesis (junction at the deeper child anchor, all
    remaining length lateral) and the geometry the link acquires when the
    build is redone with that link joined first, so that it picks up a
    lateral offset from the then-external points.  If they agree within
    ``tolerance`` on both depth and lateral width, the simplest form is
    adopted; otherwise the link stays unresolved and only its total length
    and feasible depth range are reported.
    """
    check_mode(mode)
    root = primary.junctions[-1]
    k = len(primary.languages)
    a = primary.anchor_depth(root.near)
    b = primary.anchor_depth(root.far)
    if root.status == UNRESOLVED:
        total = float(root.total_length)
    else:
        total = (root.depth - a) + (root.depth - b) + root.lateral
    depth_simple = max(a, b)
    lateral_simple = total - 2 * depth_simple + a + b
    depth_max = quantize((total + a + b) / 2.0, mode)
    depth_range = (depth_simple, depth_max)
    if lateral_simple < 0:
        return ResolutionResult(
            False, depth_max, 0.0, total, (depth_max, depth_max),
            (depth_simple, lateral_simple), None, None,
            "total length shorter than the child anchor gap",
        )
    if k <= 2:
        return ResolutionResult(
            False, depth_max, 0.0, total, depth_range,
            (depth_simple, lateral_simple), None, None,
            "no external points exist for a cross-check",
        )
    near_rep = primary.languages.labels[primary.carrier(root.near)]
    far_rep = primary.languages.labels[primary.carrier(root.far)]
    alt = _first_join(matrix, weights, mode, (near_rep, far_rep), external_means)
    deviation = (abs(alt.depth - depth_simple), abs(alt.lateral - lateral_simple))
    if deviation[0] <= tolerance and deviation[1] <= tolerance:
        return ResolutionResult(
            True, depth_simple, lateral_simple, total, depth_range,
            (depth_simple, lateral_simple), (alt.depth, alt.lateral), deviation,
            f"alternate-order rebuild from link {near_rep}-{far_rep} agrees",
        )
    return ResolutionResult(
        False, depth_max, 0.0, total, depth_range,
        (depth_simple, lateral_simple), (alt.depth, alt.lateral), deviation,
        f"alternate-order rebuild from link {near_rep}-{far_rep} disagrees",
    )


def build(
    matrix: DistanceMatrix,
    weights: WeightVector | None = None,
    mode: str = PRECISE,
    external_means: str = "weighted",
    resolve_tolerance: float = DEFAULT_RESOLVE_TOLERANCE,
) -> Dendrogram:
    """Construct the dendrogram for a complete distance matrix.

    Joins proceed from the shortest link upward.  The final link, for which
    no lateral offset can be measured, is stored by total length and then
    either resolved through ``resolve_last_link`` or reported unresolved.
    """
    check_mode(mode)
    langs = matrix.languages
    k = len(langs)
    if k < 2:
        raise DomainError("need at least two languages to build a dendrogram")
    if not matrix.is_complete():
        raise DomainError(
            "distance matrix has absent entries; build requires a complete "
            "matrix -- reconstruct per subsystem and use merge to combine"
        )
    if any(d != 0 for d in langs.depths):
        raise DomainError(
            "builder requires synchronous leaves (all attestation depths 0); "
            "use divergence_time for attested-language calculations"
        )
    state = initial_state(matrix, weights, mode)
    junctions: list[Junction] = []
    next_node = k
    while len(state.clusters) > 2:
        pair = min_link(state)
        offset, near, far = lateral_offset(state, pair, external_means)
        link = state.distance(near, far)
        depth, lateral, flags, offset = join_geometry(
            link, offset, near.anchor_depth, far.anchor_depth, mode
        )
        geometry = JoinGeometry(near, far, link, offset, depth, lateral, flags)
        state, reduce_flags = reduce(state, geometry, next_node)
        junctions.append(
            Junction(
                near=near.node,
                far=far.node,
                depth=depth,
                lateral=lateral,
                status=RESOLVED,
                flags=flags + reduce_flags,
            )
        )
        next_node += 1

    first, second = state.clusters
    total = state.distance(first, second)
    # The anchor of a resolved root sits at the deeper child's anchor, so
    # the deeper cluster goes near; ties break lexicographically.
    if first.anchor_depth != second.anchor_depth:
        near_c, far_c = (
            (first, second)
            if first.anchor_depth > second.anchor_depth
            else (second, first)
        )
    else:
        near_c, far_c = (first, second) if first.key < second.key else (second, first)
    a, b = near_c.anchor_depth, far_c.anchor_depth
    if total <= 0:
        # Coinciding anchors: a zero-length root link is not ambiguous.
        root = Junction(
            near=near_c.node,
            far=far_c.node,
            depth=a,
            lateral=0.0,
            status=RESOLVED,
            flags=(FLAG_INFEASIBLE,) if a != b else (),
        )
        return Dendrogram(langs, tuple(junctions) + (root,), mode=mode, weights=weights)
    nominal_depth = max(quantize((total + a + b) / 2.0, mode), a)
    provisional_root = Junction(
        near=near_c.node,
        far=far_c.node,
        depth=nominal_depth,
        lateral=0.0,
        status=UNRESOLVED,
        total_length=total,
        depth_range=(a, nominal_depth),
        flags=(FLAG_UNRESOLVED_DECOMPOSITION,),
    )
    dendrogram = Dendrogram(
        langs, tuple(junctions) + (provisional_root,), mode=mode, weights=weights
    )
    resolution = resolve_last_link(
        matrix, weights, mode, dendrogram, external_means, resolve_tolerance
    )
    if resolution.resolved:
        root = Junction(
            near=near_c.node,
            far=far_c.node,
            depth=resolution.depth,
            lateral=resolution.lateral,
            status=RESOLVED,
            flags=(FLAG_CROSS_CHECKED,),
        )
        dendrogram = Dendrogram(
            langs, tuple(junctions) + (root,), mode=mode, weights=weights
        )
    return dendrogram
