"""Leaf path-sum oracle over a ``dendrogram.json`` document.

Distances are summed straight from the junction list: each junction adds
``depth - child anchor depth`` to every leaf below its near child, and that
plus ``lateral`` to every leaf below its far child.  An unresolved junction
contributes its fixed ``total_length`` between the two child anchors.  None
of ``isolect``'s tree code is used, so the result can check it.
"""

from __future__ import annotations

import json

import numpy as np


def leaf_distances(document: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels in document order and the all-pairs leaf distance matrix."""
    doc = json.loads(document)
    labels = tuple(entry["name"] for entry in doc["languages"])
    k = len(labels)
    index = {label: i for i, label in enumerate(labels)}
    # node -> (leaf ids below it, their path lengths up to its anchor, anchor depth)
    nodes: list[tuple[np.ndarray, np.ndarray, float]] = [
        (np.array([i]), np.zeros(1), float(entry.get("depth", 0.0)))
        for i, entry in enumerate(doc["languages"])
    ]

    def node(ref) -> tuple[np.ndarray, np.ndarray, float]:
        return nodes[index[ref]] if isinstance(ref, str) else nodes[k + ref]

    dist = np.zeros((k, k))
    for jn in doc["junctions"]:
        near_leaves, near_below, near_depth = node(jn["near"])
        far_leaves, far_below, far_depth = node(jn["far"])
        depth, lateral = float(jn["depth"]), float(jn["lateral"])
        near_up = near_below + (depth - near_depth)
        far_up = far_below + (depth - far_depth) + lateral
        if jn["status"]["state"] == "unresolved":
            total = float(jn["status"]["total_length"])
            block = near_below[:, None] + total + far_below[None, :]
        else:
            block = near_up[:, None] + far_up[None, :]
        dist[np.ix_(near_leaves, far_leaves)] = block
        dist[np.ix_(far_leaves, near_leaves)] = block.T
        nodes.append(
            (np.concatenate((near_leaves, far_leaves)), np.concatenate((near_up, far_up)), depth)
        )
    return labels, dist
