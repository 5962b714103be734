"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain arrays
plus the planted answer; nothing here imports ``isolect``.  The program under
test only ever sees the CSV files written by ``write_matrix_csv``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Planted:
    """Leaf labels and the planted all-pairs leaf distances (svodesh)."""

    labels: tuple[str, ...]
    distances: np.ndarray


def caterpillar(rng: np.random.Generator, k: int) -> Planted:
    """A planted caterpillar whose greedy join order is forced.

    Same geometry as the test suite's ``sample_caterpillar``: a cherry grows
    one leaf per join, link lengths increase join by join and every lateral
    exceeds the previous anchor depth.  Draws repeat until each intended join
    is the strict minimum (by more than 0.5 svodesh) at its step.
    """
    if k < 4:
        raise ValueError("a caterpillar needs at least 4 leaves")
    while True:
        depths = [float(rng.uniform(5.0, 15.0))]
        laterals = [float(rng.uniform(2.0, 20.0))]
        links = [2 * depths[0] + laterals[0]]
        for _ in range(1, k - 2):
            b = depths[-1]
            d = b + float(rng.uniform(2.0, 15.0))
            h = max(b + 1.0, links[-1] + 1.0 - 2 * d + b) + float(rng.uniform(1.0, 25.0))
            depths.append(d)
            laterals.append(h)
            links.append(2 * d - b + h)
        root_lateral = max(2.0, links[-1] + 1.0 - depths[-1]) + float(rng.uniform(1.0, 30.0))
        links.append(depths[-1] + root_lateral)

        # Leaf i >= 2 hangs vertically from spine anchor i-1; leaf 1 is the
        # far side of the first cherry and the last leaf the root's far side.
        pend = np.array([depths[0], depths[0] + laterals[0], *depths[1:],
                         depths[-1] + root_lateral])
        anchor_of = np.array([0, 0, *range(1, k - 2), k - 3])
        steps = [(depths[i] - depths[i - 1]) + laterals[i] for i in range(1, k - 2)]
        pos = np.concatenate(([0.0], np.cumsum(steps)))[anchor_of]
        dist = pend[:, None] + pend[None, :] + np.abs(pos[:, None] - pos[None, :])
        np.fill_diagonal(dist, 0.0)
        if _order_is_forced(dist, links):
            labels = tuple(f"L{i:03d}" for i in range(k))
            return Planted(labels, dist)


def _order_is_forced(dist: np.ndarray, links: list[float]) -> bool:
    """At join s, every pair of leaves still unjoined is longer than link s."""
    k = dist.shape[0]
    upper = np.where(np.triu(np.ones((k, k), dtype=bool), 1), dist, np.inf)
    row_min = upper.min(axis=1)
    # suffix[x] = shortest pair among leaves x..k-1
    suffix = np.minimum.accumulate(row_min[::-1])[::-1]
    return all(suffix[s + 2] > links[s] + 0.5 for s in range(k - 2))


def chain_tree(rng: np.random.Generator, k: int, longest: float = 200.0) -> Planted:
    """A random-shape chain tree: random pairs of clusters join until one is left.

    Each join sits 1-8 svodesh above the deeper child anchor; the far child
    branches off laterally by 0-12 svodesh (exactly 0 for a quarter of the
    joins).  The tree is scaled so its longest leaf distance is ``longest``.
    """
    members = [np.array([i]) for i in range(k)]
    to_anchor = [np.zeros(1) for _ in range(k)]
    anchor_depth = [0.0] * k
    dist = np.zeros((k, k))
    while len(members) > 1:
        i, j = (int(x) for x in rng.choice(len(members), size=2, replace=False))
        depth = max(anchor_depth[i], anchor_depth[j]) + float(rng.uniform(1.0, 8.0))
        lateral = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 12.0))
        near = to_anchor[i] + (depth - anchor_depth[i])
        far = to_anchor[j] + (depth - anchor_depth[j]) + lateral
        block = near[:, None] + far[None, :]
        dist[np.ix_(members[i], members[j])] = block
        dist[np.ix_(members[j], members[i])] = block.T
        merged = (np.concatenate((members[i], members[j])), np.concatenate((near, far)))
        for idx in sorted((i, j), reverse=True):
            del members[idx], to_anchor[idx], anchor_depth[idx]
        members.append(merged[0])
        to_anchor.append(merged[1])
        anchor_depth.append(depth)
    dist *= longest / dist.max()
    labels = tuple(f"T{i:03d}" for i in range(k))
    return Planted(labels, dist)


def noisy_percent(rng: np.random.Generator, dist: np.ndarray, sigma: float = 0.03) -> np.ndarray:
    """Integer-percent coincidences with multiplicative log-normal noise."""
    k = dist.shape[0]
    noise = np.exp(rng.normal(0.0, sigma, size=(k, k)))
    noise = np.triu(noise, 1)
    noise = noise + noise.T + np.eye(k)
    pct = 100.0 * np.exp(-dist / 100.0) * noise
    pct = np.clip(np.floor(pct + 0.5), 1.0, 99.0)
    np.fill_diagonal(pct, 100.0)
    return pct


@dataclass(frozen=True)
class MergePair:
    """One planted caterpillar seen by two studies.

    Study A labels every leaf ``L###``; study B relabels the leaves in
    ``relabelled`` to ``M###``, so each such leaf is exclusive to one study
    and has a twin in the other.
    """

    planted: Planted
    relabelled: tuple[int, ...]

    def labels_b(self) -> tuple[str, ...]:
        return tuple(
            f"M{i:03d}" if i in self.relabelled else lab
            for i, lab in enumerate(self.planted.labels)
        )


def merge_pair(rng: np.random.Generator, k: int, n_relabelled: int) -> MergePair:
    """Relabel one random leaf per equal stretch of the spine.

    The first cherry and the root's far leaf are never relabelled.  One leaf
    per stretch keeps the shared leaves spread along the spine, so the cost
    of the merge's tree queries varies little from seed to seed.
    """
    planted = caterpillar(rng, k)
    bounds = np.ceil(np.linspace(2, k - 1, n_relabelled + 1)).astype(int)
    picks = (int(rng.integers(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
    return MergePair(planted, tuple(picks))


def write_matrix_csv(path: Path, labels, values: np.ndarray, integer: bool) -> None:
    """The labelled square CSV format ``isolect`` reads, "-" on the diagonal."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["", *labels])
        for i, label in enumerate(labels):
            cells = [
                "-" if i == j else (str(int(v)) if integer else repr(float(v)))
                for j, v in enumerate(values[i])
            ]
            writer.writerow([label, *cells])
