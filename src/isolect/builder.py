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
from; it is stored by total length and cross-checked by joining that link
first: ``resolve_last_link(start, root, total, external_means, tolerance)``
takes the build's first state, the last state's two clusters and the link
between them, and joins the two clusters' carrier leaves on that first
state through the same ``_join`` as every other join.

The reduced distances live in one float table indexed by node id, sized
(2k-1) x (2k-1) because node ids are never reused.  ``reduce`` writes only
the new node's row and column, cells no earlier state reads (it only reads
pairs of its own active nodes, all older than the new node), so every state
of a build shares the one table and no join copies it.  The leaf block
(ids below k) stays as ``initial_state`` wrote it, which keeps the first
state valid for the cross-check after the build.

A join costs O(n) element work over its n active clusters, so a build
costs O(k^2), as in the generic agglomerative loop with a nearest-neighbour
cache (Muellner 2011, arXiv:1109.2378).  Each state carries every row's
shortest link and its other end: ``min_link`` ranks only the rows whose
minimum is the shortest link, and ``reduce`` searches a row again only when
its shortest link led to a joined node and the new link is longer.  Each
such row costs O(n) more; they are few (none on planted caterpillars), but
inputs where most rows lose their minimum at every join bring a build back
to O(k^3).  ``lateral_offset`` and ``reduce`` work on the pair's two rows
over the externals, in cluster order, and two rules keep every result equal
to a per-external Python loop's: sums run left to right through
``np.add.accumulate`` (never the pairwise ``np.sum``), and ``reduce``
rounds its whole row at once with the scalar rounding's IEEE operations
(``quantize_array``).
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

    ``first_label`` is the smallest member label (a leaf's own label).
    Active clusters are disjoint, so it orders them, and pairs of them, as
    their sorted label tuples ``key`` do: it breaks every tie.  ``children``
    holds the joined near and far clusters (empty for a leaf, whose node id
    is its language index).  The tree's members and anchor distances belong
    to the finished ``Dendrogram``.
    """

    node: int
    anchor_depth: float
    weight: float
    first_label: str
    children: tuple["Cluster", ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def key(self) -> tuple[str, ...]:
        """Sorted member labels, walked on access."""
        labels, pending = [], [self]
        while pending:  # no recursion: a caterpillar is k levels deep
            cluster = pending.pop()
            if cluster.children:
                pending.extend(cluster.children)
            else:
                labels.append(cluster.first_label)
        return tuple(sorted(labels))


@dataclass(frozen=True, eq=False)
class ClusterState:
    """Active clusters plus the reduced distances between them.

    ``table[x, y]`` is the reduced distance between nodes ``x`` and ``y``.
    States of one build share the table: a reduce fills the new node's row
    and column, which no earlier state reads, and marks the row taken by a
    zero on the diagonal.  A reduce that would write a taken row (an id
    reused, or a second branch from one state) writes into a copy instead.

    Four read-only arrays run in cluster order: ``nodes`` (the node ids),
    ``weights``, and each row's shortest link to another active cluster,
    ``row_min``, with the node at its other end, ``row_arg`` (``inf`` and
    -1 for a lone cluster).
    """

    clusters: tuple[Cluster, ...]
    table: np.ndarray
    mode: str
    nodes: np.ndarray
    weights: np.ndarray
    row_min: np.ndarray
    row_arg: np.ndarray

    def __post_init__(self):
        for array in (self.nodes, self.weights, self.row_min, self.row_arg):
            array.setflags(write=False)

    @cached_property
    def _active(self) -> frozenset[int]:
        return frozenset(self.nodes.tolist())

    def _pair_rows(self, x: int, y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mask of the externals of nodes ``x`` and ``y`` over the active
        clusters, the externals' node ids, and the two nodes' rows over them
        (``x`` first)."""
        external = (self.nodes != x) & (self.nodes != y)
        ext_nodes = self.nodes[external]
        return external, ext_nodes, self.table.take((x, y), 0).take(ext_nodes, 1)

    @property
    def dist(self) -> Mapping[frozenset, float]:
        """Read-only view of the active pairs' distances, built on access."""
        nodes = self.nodes.tolist()
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
    k = len(langs)
    if weights is None:
        weights = (1.0,) * k
    elif weights.languages.labels != langs.labels:
        raise DomainError("weight vector does not match the matrix languages")
    else:
        weights = weights.values
    if not matrix.is_complete():
        raise DomainError("the builder requires a complete distance matrix")
    table = np.full((2 * k - 1, 2 * k - 1), np.nan)
    # The upper triangle is authoritative: symmetry is checked only to 1e-9.
    links = np.where(np.tri(k, k, -1, dtype=bool), matrix.values.T, matrix.values)
    table[:k, :k] = links
    np.fill_diagonal(links, np.inf)
    row_arg = links.argmin(1) if k > 1 else np.full(k, -1)
    return ClusterState(
        tuple(
            Cluster(i, langs.depths[i], weights[i], langs.labels[i]) for i in range(k)
        ),
        table,
        mode,
        nodes=np.arange(k),
        weights=np.array(weights),
        row_min=links.min(1),
        row_arg=row_arg,
    )


def min_link(state: ClusterState) -> tuple[Cluster, Cluster]:
    """Closest active pair; ties broken on the sorted pair of smallest labels.

    Both ends of a pair at the shortest link are rows whose minimum is that
    link, so only those rows are ranked: two rows are the pair itself, and
    more are a tie, settled over the tied rows' block.
    """
    clusters = state.clusters
    if len(clusters) < 2:
        raise DomainError("need at least two active clusters")
    shortest = np.minimum.reduce(state.row_min)
    tied = (state.row_min == shortest).nonzero()[0]
    if len(tied) == 2:
        i, j = tied.tolist()
        return clusters[i], clusters[j]
    # The block is symmetric: keep each tied pair once, as (r, c) with r < c.
    t = len(tied)
    tied_nodes = state.nodes[tied]
    links = state.table.take(tied_nodes, 0).take(tied_nodes, 1)
    links.flat[:: t + 1] = np.inf
    tied = tied.tolist()
    at = (divmod(x, t) for x in (links.ravel() == shortest).nonzero()[0].tolist())
    first = [clusters[x].first_label for x in tied]
    r, c = min(
        ((r, c) for r, c in at if r < c),
        key=lambda rc: sorted((first[rc[0]], first[rc[1]])),
    )
    return clusters[tied[r]], clusters[tied[c]]


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
    external, _, rows = state._pair_rows(a.node, b.node)
    if not rows.shape[1]:
        raise FinalLinkError(
            "no external clusters: the pair forms the final (root) link"
        )
    if external_means == "weighted":
        weights = state.weights[external]
    else:
        weights = np.ones(rows.shape[1])
    # Sequential sums, left to right as ``num += w * d`` would add them.
    num = np.add.accumulate(weights * rows, axis=1)[:, -1]
    den = np.add.accumulate(weights)[-1]
    means = [quantize(mean, state.mode) for mean in (num / den).tolist()]
    if means[0] == means[1]:
        # Equidistant pair: the lexicographically larger key goes far.
        near, far = (a, b) if a.first_label < b.first_label else (b, a)
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
    anchor-corrected child distances; the merged cluster keeps both
    children.  An external row keeps its
    shortest link unless the new one is no longer, and is searched again
    only when its shortest link led to a joined node and the new one is
    longer.
    """
    near, far = geometry.near, geometry.far
    delta_near = geometry.depth - near.anchor_depth
    delta_far = (geometry.depth - far.anchor_depth) + geometry.lateral
    merged = Cluster(
        node=new_node,
        anchor_depth=geometry.depth,
        weight=near.weight + far.weight,
        first_label=min(near.first_label, far.first_label),
        children=(near, far),
    )
    external, ext_nodes, (d_near, d_far) = state._pair_rows(near.node, far.node)
    clusters = list(compress(state.clusters, external.tolist()))
    clusters.append(merged)
    values = quantize_array(
        (near.weight * (d_near - delta_near) + far.weight * (d_far - delta_far))
        / merged.weight,
        state.mode,
    )
    clamped, shortest, other = 0, np.inf, -1
    if len(values):
        nearest = values.argmin()
        if values[nearest] < 0:
            negative = values < 0
            clamped = int(np.count_nonzero(negative))
            values[negative] = 0.0
            nearest = values.argmin()
        shortest, other = values[nearest], ext_nodes[nearest]
    table = state.table
    if new_node >= len(table) or table[new_node, new_node] == 0.0:
        # Another state owns this row: write into a copy of the table.
        size = max(len(table), new_node + 1)
        table = np.full((size, size), np.nan)
        table[: len(state.table), : len(state.table)] = state.table
    table[new_node, ext_nodes] = values
    table[ext_nodes, new_node] = values
    table[new_node, new_node] = 0.0

    n = len(clusters)
    nodes, weights = np.empty(n, np.intp), np.empty(n)
    row_min, row_arg = np.empty(n), np.empty(n, np.intp)
    nodes[:-1], nodes[-1] = ext_nodes, new_node
    weights[:-1], weights[-1] = state.weights[external], merged.weight
    row_min[-1], row_arg[-1] = shortest, other
    kept_min, kept_arg = row_min[:-1], row_arg[:-1]
    kept_min[:] = state.row_min[external]
    kept_arg[:] = state.row_arg[external]
    # A row whose shortest link led to a joined node has no shorter link to
    # the others, so a new link no longer than it is the row's new minimum;
    # only a longer one leaves the row to be searched again.
    lost = (kept_arg == near.node) | (kept_arg == far.node)
    closer = values <= kept_min
    kept_min[closer] = values[closer]
    kept_arg[closer] = new_node
    stale = (lost > closer).nonzero()[0]  # lost and not closer
    if len(stale):
        links = table.take(nodes[stale], 0).take(nodes, 1)
        rows = np.arange(len(stale))
        links[rows, stale] = np.inf
        at = links.argmin(1)
        row_min[stale], row_arg[stale] = links[rows, at], nodes[at]
    state = ClusterState(
        tuple(clusters), table, state.mode, nodes, weights, row_min, row_arg
    )
    return state, (FLAG_NEGATIVE_REDUCED,) * clamped


def _join(
    state: ClusterState, pair: tuple[Cluster, Cluster], external_means: str
) -> JoinGeometry:
    """Geometry of joining ``pair`` on ``state``: offset, link, placement."""
    offset, near, far = lateral_offset(state, pair, external_means)
    link = state.table.item(near.node, far.node)
    depth, lateral, flags, offset = join_geometry(
        link, offset, near.anchor_depth, far.anchor_depth, state.mode
    )
    return JoinGeometry(near, far, link, offset, depth, lateral, flags)


def resolve_last_link(
    start: ClusterState,
    root: tuple[Cluster, Cluster],
    total: float,
    external_means: str = "weighted",
    tolerance: float = DEFAULT_RESOLVE_TOLERANCE,
) -> ResolutionResult:
    """Cross-check the root link ``root``, of length ``total``, of a build.

    Two independent placements of the root link are compared: the
    simplest-form hypothesis (junction at the deeper child anchor, all
    remaining length lateral) and the geometry the link acquires when the
    build is redone with that link joined first, so that it picks up a
    lateral offset from the then-external points.  That first join is the
    join of the root clusters' carrier leaves (reached through each near
    child) on ``start``, the build's initial state, which is still valid
    after the build: a reduce writes only the rows and columns of new nodes,
    so the leaf block of the shared table stays as ``initial_state`` wrote
    it.  If the placements agree within ``tolerance`` on both depth and
    lateral width, the simplest form is adopted; otherwise the link stays
    unresolved and only its total length and feasible depth range are
    reported.
    """
    leaves = start.clusters
    if any(c.node != i or c.children for i, c in enumerate(leaves)):
        raise DomainError(
            "resolve_last_link needs an initial state (every cluster a leaf "
            "at its own index)"
        )
    pair = []
    for carrier in root:
        while carrier.children:
            carrier = carrier.children[0]
        if carrier.node >= len(leaves) or carrier != leaves[carrier.node]:
            raise DomainError(
                f"carrier leaf {carrier.first_label!r} of the root is not "
                f"cluster {carrier.node} of the initial state"
            )
        pair.append(carrier)
    a, b = (c.anchor_depth for c in root)
    depth_simple = max(a, b)
    lateral_simple = total - 2 * depth_simple + a + b
    depth_max = quantize((total + a + b) / 2.0, start.mode)
    depth_range = (depth_simple, depth_max)
    if lateral_simple < 0:
        return ResolutionResult(
            False, depth_max, 0.0, total, (depth_max, depth_max),
            (depth_simple, lateral_simple), None, None,
            "total length shorter than the child anchor gap",
        )
    if len(leaves) <= 2:
        return ResolutionResult(
            False, depth_max, 0.0, total, depth_range,
            (depth_simple, lateral_simple), None, None,
            "no external points exist for a cross-check",
        )
    alt = _join(start, tuple(pair), external_means)
    near_rep, far_rep = (c.first_label for c in pair)
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
    start = state = initial_state(matrix, weights, mode)
    junctions: list[Junction] = []
    while len(state.clusters) > 2:
        geometry = _join(state, min_link(state), external_means)
        state, reduce_flags = reduce(state, geometry, k + len(junctions))
        junctions.append(
            Junction(
                near=geometry.near.node,
                far=geometry.far.node,
                depth=geometry.depth,
                lateral=geometry.lateral,
                status=RESOLVED,
                flags=geometry.flags + reduce_flags,
            )
        )

    # The anchor of a resolved root sits at the deeper child's anchor, so
    # the deeper cluster goes near; ties break lexicographically.
    near, far = sorted(state.clusters, key=lambda c: (-c.anchor_depth, c.first_label))
    total = state.table.item(near.node, far.node)
    a, b = near.anchor_depth, far.anchor_depth
    if total <= 0:
        # Coinciding anchors: a zero-length root link is not ambiguous.
        root = Junction(near.node, far.node, a, 0.0, RESOLVED,
                        flags=(FLAG_INFEASIBLE,) if a != b else ())
    else:
        res = resolve_last_link(start, (near, far), total, external_means,
                                resolve_tolerance)
        if res.resolved:
            root = Junction(near.node, far.node, res.depth, res.lateral, RESOLVED,
                            flags=(FLAG_CROSS_CHECKED,))
        else:
            # The deepest form, never above the near anchor.
            depth = max(res.depth, a)
            root = Junction(near.node, far.node, depth, 0.0, UNRESOLVED,
                            total_length=total, depth_range=(a, depth),
                            flags=(FLAG_UNRESOLVED_DECOMPOSITION,))
    return Dendrogram(langs, tuple(junctions) + (root,), mode=mode, weights=weights)
