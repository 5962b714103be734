from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from isolect import merger
from isolect.model import CoincidenceMatrix, LanguageSet

DATA = Path(__file__).parent / "data"
BUNDLED = Path(__file__).parent.parent / "data"

# Classic four-language Salish coincidence table (Lillooet, Shuswap,
# Okanagan, Columbian) and the overlapping second group (Lillooet, Shuswap,
# Lower Fraser, Nooksack), numbered 1-4 and 1-2-5-6.
SALISH_A_LABELS = ("1", "2", "3", "4")
SALISH_A = [
    [100, 48, 33, 25],
    [48, 100, 50, 34],
    [33, 50, 100, 54],
    [25, 34, 54, 100],
]

SALISH_B_LABELS = ("1", "2", "5", "6")
SALISH_B = [
    [100, 48, 28, 26],
    [48, 100, 19, 19],
    [28, 19, 100, 58],
    [26, 19, 58, 100],
]

# Expected integer-mode distances for the two tables above (hand-checked
# against -100*ln(C/100)).
SALISH_A_DISTANCES = [
    [0, 73, 111, 139],
    [73, 0, 69, 108],
    [111, 69, 0, 62],
    [139, 108, 62, 0],
]

SALISH_B_DISTANCES = [
    [0, 73, 127, 135],
    [73, 0, 166, 166],
    [127, 166, 0, 54],
    [135, 166, 54, 0],
]

# Distances measured back off the reconstructed four-language dendrogram,
# and their conversion to percentages.
SALISH_A_RESTORED = [
    [0, 74, 108, 142],
    [74, 0, 72, 106],
    [108, 72, 0, 62],
    [142, 106, 62, 0],
]

SALISH_A_RESTORED_C = [
    [100, 48, 34, 24],
    [48, 100, 49, 35],
    [34, 49, 100, 54],
    [24, 35, 54, 100],
]

BALTOSLAVIC_LABELS = (
    "Lithuanian", "Latvian", "Prussian", "Russian", "Ukrainian",
    "Belarusian", "Polish", "Czech", "Slovak", "Lower-Sorbian",
    "Upper-Sorbian", "Slovenian", "Serbian", "Macedonian", "Bulgarian",
)

BALTOSLAVIC = [
    [100, 68, 49, 47, 47, 47, 43, 44, 46, 46, 46, 44, 44, 45, 46],
    [68, 100, 44, 45, 40, 44, 40, 41, 42, 43, 45, 40, 41, 41, 42],
    [49, 44, 100, 41, 41, 40, 39, 42, 42, 42, 42, 40, 41, 39, 40],
    [47, 45, 41, 100, 86, 92, 77, 74, 74, 73, 74, 74, 71, 70, 74],
    [47, 40, 41, 86, 100, 92, 76, 73, 76, 74, 74, 71, 73, 71, 72],
    [47, 44, 40, 92, 92, 100, 80, 77, 80, 78, 78, 76, 77, 74, 77],
    [43, 40, 39, 77, 76, 80, 100, 81, 85, 83, 80, 79, 75, 71, 74],
    [44, 41, 42, 74, 73, 77, 81, 100, 92, 87, 87, 84, 79, 75, 74],
    [46, 42, 42, 74, 76, 80, 85, 92, 100, 87, 86, 80, 80, 76, 75],
    [46, 43, 42, 73, 74, 78, 83, 87, 87, 100, 94, 78, 74, 73, 71],
    [46, 45, 42, 74, 74, 78, 80, 87, 86, 94, 100, 78, 77, 76, 73],
    [44, 40, 40, 74, 71, 76, 79, 84, 80, 78, 78, 100, 85, 75, 76],
    [44, 41, 41, 71, 73, 77, 75, 79, 80, 74, 77, 85, 100, 84, 80],
    [45, 41, 39, 70, 71, 74, 71, 75, 76, 73, 76, 75, 84, 100, 86],
    [46, 42, 40, 74, 72, 77, 74, 74, 75, 71, 73, 76, 80, 86, 100],
]

# Published per-language weights for the fifteen-language dataset, used as
# a ranking reference for the derived inverse-dispersion weights.
BALTOSLAVIC_REFERENCE_WEIGHTS = {
    "Lithuanian": 8, "Latvian": 5, "Prussian": 13, "Russian": 5,
    "Ukrainian": 10, "Belarusian": 16, "Polish": 10, "Czech": 9,
    "Slovak": 21, "Lower-Sorbian": 13, "Upper-Sorbian": 11,
    "Slovenian": 4, "Serbian": 3, "Macedonian": 7, "Bulgarian": 16,
}


def coincidence(labels, rows) -> CoincidenceMatrix:
    return CoincidenceMatrix(LanguageSet(tuple(labels)), np.array(rows, float))


@pytest.fixture
def salish_a() -> CoincidenceMatrix:
    return coincidence(SALISH_A_LABELS, SALISH_A)


@pytest.fixture
def salish_b() -> CoincidenceMatrix:
    return coincidence(SALISH_B_LABELS, SALISH_B)


@pytest.fixture
def baltoslavic() -> CoincidenceMatrix:
    return coincidence(BALTOSLAVIC_LABELS, BALTOSLAVIC)


def cyclic_graph_text() -> str:
    """A segment-graph document whose three edges over four nodes form the
    cycle 1-j0-j1 and leave leaf 2 isolated."""
    nodes = (merger.SegmentNode("1", 0.0, "1"), merger.SegmentNode("j0", 5.0),
             merger.SegmentNode("j1", 9.0), merger.SegmentNode("2", 0.0, "2"))
    edges = (merger.SegmentEdge("1", "j0", 5.0, merger.VERTICAL),
             merger.SegmentEdge("j0", "j1", 4.0, merger.VERTICAL),
             merger.SegmentEdge("j1", "2", 9.0, merger.VERTICAL))
    doc = json.loads(merger.serialize_graph(merger.SegmentGraph(nodes, edges, ("1", "2"), ())))
    doc["edges"][2]["b"] = "1"
    return json.dumps(doc)
