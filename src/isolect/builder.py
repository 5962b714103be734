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
state through the same ``_join`` as every other join.  Its result holds
the root's whole geometry (depth, lateral width, status and depth range),
which ``build`` stores as it is; only a zero-length root link never reaches
the cross-check.

A build has one working state, indexed by node id as the reduced
distances are: one float table sized (2k-1) x (2k-1), per node its weight
and its ``Cluster`` record (flat: it names its children by node id), and
over all 2k-1 ids a mask of the active nodes and each active row's shortest
link and its other end.  Join j makes node k + j (Muellner's stepwise
numbering, the only one a ``Dendrogram`` accepts), and ``reduce`` takes no
other id.  ``reduce`` updates the state in place: it writes the new node's
row and column, weight and record, and retires the joined pair.  It never
writes the leaf block (ids below k), so ``build`` keeps the initial state
for the cross-check as a snapshot taken before the first join: copies of
the three per-node arrays over the shared table, weights and records.
These node-indexed arrays are the state; its one cluster-order reader,
``clusters`` (ascending node id), is for callers, never the join loop.

A join costs O(n) element work over its n active clusters, so a build
costs O(k^2), as in the generic agglomerative loop with a nearest-neighbour
cache (Muellner 2011, arXiv:1109.2378).  ``min_link`` ranks only the rows
whose minimum is the shortest link, and ``reduce`` searches a row again
only when its shortest link led to a joined node and the new link is
longer.  Each such row costs O(k) more; they are few (none on planted
caterpillars), but inputs where most rows lose their minimum at every join
bring a build back to O(k^3).  ``lateral_offset`` and ``reduce`` work on
the pair's two rows over the externals, gathered in cluster order, and two
rules keep every result equal to a per-external Python loop's: sums run
left to right over exactly the externals through ``np.add.accumulate``
(never the pairwise ``np.sum``), and ``reduce`` rounds its whole row at
once with the scalar rounding's IEEE operations (``quantize_array``).

The rest of a join is per-call overhead, so a join gathers its two rows
once (the state keeps its last gather, keyed by the pair), reads the
scalars it branches on through ``item`` and builds cheap records: named
tuples ``Cluster``, ``JoinGeometry`` and ``ResolutionResult``.
"""

from __future__ import annotations

from itertools import compress
from math import isfinite
from typing import NamedTuple

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


class Cluster(NamedTuple):
    """An active cluster during agglomeration, a flat record.

    ``first_label`` is the smallest member label (a leaf's own label).
    Active clusters are disjoint, so it orders them, and pairs of them, as
    their sorted member labels do: it breaks every tie.  ``children`` holds
    the node ids of the joined near and far clusters, as a ``Junction`` does
    (empty for a leaf, whose node id is its language index); ``carrier`` is
    the record of the leaf whose lineage carries the anchor (None for a
    leaf, which carries its own).  No field nests a deeper record, so
    equality, hash and repr are O(1).  The tree's members and anchor
    distances belong to the finished ``Dendrogram``.
    """

    node: int
    anchor_depth: float
    weight: float
    first_label: str
    children: tuple[int, ...] = ()
    carrier: Cluster | None = None


class ClusterState:
    """The build's working state: active clusters and the reduced distances
    between them.

    Everything is indexed by node id.  ``table[x, y]`` is the reduced
    distance between nodes ``x`` and ``y``; node ``x``'s weight and
    ``Cluster`` record sit at index ``x`` of an array and a list beside it.
    ``alive`` masks the active nodes, ``node_min`` holds each active row's
    shortest link to another active cluster and ``node_arg`` the node at its
    other end (``inf`` and -1 for a lone cluster and for every inactive id);
    ``size`` counts the active clusters.  ``reduce`` updates all of them in
    place and takes only the state's next id, ``len(table) + 1 - size``.
    ``clusters``, the active records in ascending node id, is the one
    cluster-order reader, built on each access and never by the join loop.
    """

    __slots__ = ("table", "mode", "alive", "node_min", "node_arg", "size",
                 "_weight", "_record", "_rows")

    def __init__(self, table, mode, alive, node_min, node_arg, size, weight, record):
        self.table, self.mode, self.size = table, mode, size
        self.alive, self.node_min, self.node_arg = alive, node_min, node_arg
        self._weight, self._record = weight, record
        self._rows = None

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        return tuple(compress(self._record, self.alive.tolist()))

    def _pair_rows(self, x: int, y: int) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the externals of nodes ``x`` and ``y``, in cluster
        order, and the two nodes' read-only rows over them (``x`` first).
        The last pair's arrays are kept, so the join's ``lateral_offset`` and
        ``reduce`` gather them once; the swapped pair gets the rows reversed."""
        if self._rows is not None:
            pair, found = self._rows
            if pair == (x, y):
                return found
            if pair == (y, x):
                return found[0], found[1][::-1]
        if x == y or not (self.alive[x] and self.alive[y]):
            raise DomainError(f"nodes {x} and {y} are not two distinct active clusters")
        external = self.alive.copy()
        external[x] = external[y] = False
        ext_nodes = external.nonzero()[0]
        rows = self.table.take((x, y), 0).take(ext_nodes, 1)
        rows.setflags(write=False)
        self._rows = (x, y), (ext_nodes, rows)
        return ext_nodes, rows


class JoinGeometry(NamedTuple):
    """Resolved geometry of one join."""

    near: Cluster
    far: Cluster
    link_length: float
    offset: float
    depth: float
    lateral: float
    flags: tuple[str, ...] = ()


class ResolutionResult(NamedTuple):
    """Outcome of the final-link cross-check, a named tuple.

    ``depth``, ``lateral`` and ``depth_range`` are what the root junction
    stores: the simplest form when ``resolved``; otherwise the deepest form,
    never above the deeper child's anchor, with lateral width 0 and the
    range from that anchor down to it.
    """

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
    n = 2 * k - 1
    table = np.full((n, n), np.nan)
    # The upper triangle is authoritative: symmetry is checked only to 1e-9.
    links = np.where(np.tri(k, k, -1, dtype=bool), matrix.values.T, matrix.values)
    table[:k, :k] = links
    np.fill_diagonal(links, np.inf)
    alive = np.zeros(n, bool)
    alive[:k] = True
    node_min, node_arg = np.full(n, np.inf), np.full(n, -1, np.intp)
    node_min[:k] = links.min(1)
    if k > 1:
        node_arg[:k] = links.argmin(1)
    weight = np.full(n, np.nan)
    weight[:k] = weights
    record = [Cluster(i, langs.depths[i], weights[i], langs.labels[i]) for i in range(k)]
    return ClusterState(table, mode, alive, node_min, node_arg, k, weight,
                        record + [None] * (n - k))


def min_link(state: ClusterState) -> tuple[Cluster, Cluster]:
    """Closest active pair; ties broken on the sorted pair of smallest labels.

    Both ends of a pair at the shortest link are rows whose minimum is that
    link, so only those rows are ranked: two rows are the pair itself, and
    more are a tie.  The tied rows are scanned in label order, each against
    the later ones, and the first pair at the shortest link is the one with
    the smallest sorted labels; it is returned in node order.
    """
    if state.size < 2:
        raise DomainError("need at least two active clusters")
    clusters = state._record
    shortest = np.minimum.reduce(state.node_min)
    tied = (state.node_min == shortest).nonzero()[0].tolist()
    if len(tied) == 2:
        i, j = tied
        return clusters[i], clusters[j]
    tied.sort(key=lambda x: clusters[x].first_label)
    link = state.table.item
    for at, x in enumerate(tied, 1):
        for y in tied[at:]:
            if link(x, y) == shortest:
                return (clusters[x], clusters[y]) if x < y else (clusters[y], clusters[x])


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
    ext_nodes, rows = state._pair_rows(a.node, b.node)
    if not rows.shape[1]:
        raise FinalLinkError(
            "no external clusters: the pair forms the final (root) link"
        )
    if external_means == "weighted":
        weights = state._weight.take(ext_nodes)
    else:
        weights = np.ones(rows.shape[1])
    # Sequential sums, left to right as ``num += w * d`` would add them.
    num = np.add.accumulate(weights * rows, axis=1)
    den = np.add.accumulate(weights).item(-1)
    mean_a = quantize(num.item(0, -1) / den, state.mode)
    mean_b = quantize(num.item(1, -1) / den, state.mode)
    if mean_a == mean_b:
        # Equidistant pair: the lexicographically larger key goes far.
        near, far = (a, b) if a.first_label < b.first_label else (b, a)
        return 0.0, near, far
    if mean_a < mean_b:
        return mean_b - mean_a, a, b
    return mean_a - mean_b, b, a


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
    if not (isfinite(link_length) and isfinite(offset) and isfinite(near_depth)
            and isfinite(far_depth)):
        raise DomainError("link length, offset and anchor depths must be finite")
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
    """Replace the joined pair by the merged cluster, in place on ``state``.

    Each external entry becomes the weight-weighted mean of the two
    anchor-corrected child distances; the merged cluster names both
    children by node id and takes its near child's carrier leaf.  An
    external row keeps its shortest link unless the new one is no longer,
    and is searched again only when its shortest link led to a joined node
    and the new one is longer.  The pair must be two distinct active
    clusters and ``new_node`` the state's next id,
    ``len(state.table) + 1 - state.size``, so the merged cluster comes last
    in cluster order; either refusal comes before any write.  Returns the
    updated state itself and the clamp flags.
    """
    next_node = len(state.table) + 1 - state.size
    if new_node != next_node:
        raise DomainError(f"node id {new_node} is not the state's next node id {next_node}")
    near, far = geometry.near, geometry.far
    delta_near = geometry.depth - near.anchor_depth
    delta_far = (geometry.depth - far.anchor_depth) + geometry.lateral
    merged = Cluster(new_node, geometry.depth, near.weight + far.weight,
                     min(near.first_label, far.first_label), (near.node, far.node),
                     near.carrier or near)
    ext_nodes, (d_near, d_far) = state._pair_rows(near.node, far.node)
    values = quantize_array(
        (near.weight * (d_near - delta_near) + far.weight * (d_far - delta_far))
        / merged.weight,
        state.mode,
    )
    clamped, shortest, other = 0, np.inf, -1
    if len(values):
        nearest = values.argmin()
        if values.item(nearest) < 0:
            negative = values < 0
            clamped = int(np.count_nonzero(negative))
            values[negative] = 0.0
            nearest = values.argmin()
        shortest, other = values.item(nearest), ext_nodes.item(nearest)
    table = state.table
    table[new_node][ext_nodes] = values  # a row view: no mixed indexing
    table[:, new_node][ext_nodes] = values
    table[new_node, new_node] = 0.0
    state._weight[new_node] = merged.weight
    state._record[new_node] = merged

    alive, node_min, node_arg = state.alive, state.node_min, state.node_arg
    alive[near.node] = alive[far.node] = False
    node_min[near.node] = node_min[far.node] = np.inf
    node_arg[near.node] = node_arg[far.node] = -1
    alive[new_node] = True
    node_min[new_node], node_arg[new_node] = shortest, other
    kept_min = node_min[ext_nodes]
    closer = values <= kept_min
    np.copyto(kept_min, values, where=closer)
    node_min[ext_nodes] = kept_min
    node_arg[ext_nodes[closer]] = new_node
    # A row whose shortest link led to a joined node, now inactive, has no
    # shorter link to the others, so a new link no longer than it is the
    # row's new minimum; only a longer one leaves the row to be searched again.
    kept = alive[node_arg[ext_nodes]]
    stale = ext_nodes[~(kept | closer)]
    if len(stale):
        links = np.where(alive, table.take(stale, 0), np.inf)
        rows = np.arange(len(stale))
        links[rows, stale] = np.inf
        at = links.argmin(1)
        node_min[stale], node_arg[stale] = links[rows, at], at
    state.size -= 1
    state._rows = None  # the pair's gather
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
    join of the root clusters' carrier leaves (each record's ``carrier``)
    on ``start``, the build's initial state: ``build`` passes the
    snapshot it took before the first join, which is still valid after the
    build, because a reduce writes only the rows and columns of new nodes
    and the leaf block of the shared table stays as ``initial_state`` wrote
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
    pair = tuple(c.carrier or c for c in root)
    for carrier in pair:
        if carrier.node >= len(leaves) or carrier != leaves[carrier.node]:
            raise DomainError(
                f"carrier leaf {carrier.first_label!r} of the root is not "
                f"cluster {carrier.node} of the initial state"
            )
    a, b = (c.anchor_depth for c in root)
    depth_simple = max(a, b)
    lateral_simple = total - 2 * depth_simple + a + b
    # The deepest form, never above the deeper child's anchor.
    depth_max = max(quantize((total + a + b) / 2.0, start.mode), depth_simple)
    resolved, alternate, deviation = False, None, None
    if lateral_simple < 0:
        reason = "total length shorter than the child anchor gap"
    elif len(leaves) <= 2:
        reason = "no external points exist for a cross-check"
    else:
        alt = _join(start, pair, external_means)
        alternate = (alt.depth, alt.lateral)
        deviation = (abs(alt.depth - depth_simple), abs(alt.lateral - lateral_simple))
        resolved = deviation[0] <= tolerance and deviation[1] <= tolerance
        near_rep, far_rep = (c.first_label for c in pair)
        reason = (f"alternate-order rebuild from link {near_rep}-{far_rep} "
                  f"{'agrees' if resolved else 'disagrees'}")
    return ResolutionResult(
        resolved, depth_simple if resolved else depth_max,
        lateral_simple if resolved else 0.0, total, (depth_simple, depth_max),
        (depth_simple, lateral_simple), alternate, deviation, reason,
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
    if external_means not in EXTERNAL_MEANS:
        raise DomainError(f"external_means must be one of {EXTERNAL_MEANS}", "external_means")
    if not 0 < resolve_tolerance < np.inf:
        raise DomainError("resolve_tolerance must be a finite number > 0", "resolve_tolerance")
    langs = matrix.languages
    k = len(langs)
    if k < 2:
        raise DomainError("need at least two languages to build a dendrogram")
    if not matrix.is_complete():
        i, j = np.argwhere(np.isnan(matrix.values))[0]  # row-major: always i < j
        raise DomainError(
            f"distance matrix has absent entries, the first at ({langs.labels[i]}, "
            f"{langs.labels[j]}); build requires a complete matrix -- reconstruct "
            "per subsystem and use merge to combine"
        )
    if any(d != 0 for d in langs.depths):
        raise DomainError(
            "builder requires synchronous leaves (all attestation depths 0); "
            "use divergence_time for attested-language calculations"
        )
    state = initial_state(matrix, weights, mode)
    # The joins update ``state`` in place: the cross-check gets a snapshot.
    start = ClusterState(state.table, mode, state.alive.copy(), state.node_min.copy(),
                         state.node_arg.copy(), k, state._weight, state._record)
    junctions: list[Junction] = []
    while state.size > 2:
        geometry = _join(state, min_link(state), external_means)
        _, reduce_flags = reduce(state, geometry, k + len(junctions))
        junctions.append(Junction(geometry.near.node, geometry.far.node, geometry.depth,
                                  geometry.lateral, flags=geometry.flags + reduce_flags))

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
        resolved = res.resolved
        root = Junction(
            near.node, far.node, res.depth, res.lateral,
            RESOLVED if resolved else UNRESOLVED,
            total_length=None if resolved else total,
            depth_range=None if resolved else res.depth_range,
            flags=(FLAG_CROSS_CHECKED if resolved else FLAG_UNRESOLVED_DECOMPOSITION,),
        )
    return Dendrogram(langs, tuple(junctions) + (root,), mode=mode, weights=weights)
