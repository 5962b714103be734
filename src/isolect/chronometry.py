"""Conversions between coincidence percentages, svodesh distances, and times.

The svodesh (Svod) is the hundredth part of the time unit fixed by setting
the log retention rate of the basic vocabulary to -1 per unit.  On that
scale a coincidence percentage C maps to the distance

    L = -100 * ln(C / 100)

and back via C = 100 * exp(-L / 100).  For directly related isolects L is
the time separation; for two synchronous relatives it is the distance
through their common ancestor, so L/2 is the divergence time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .modes import PRECISE, check_mode, quantize, quantize_array
from .model import CoincidenceMatrix, DistanceMatrix


def coincidence_to_svodesh(c: float, mode: str = PRECISE) -> float:
    """Svodesh distance for a coincidence percentage in (0, 100]."""
    check_mode(mode)
    if not np.isfinite(c):
        raise DomainError(f"coincidence must be a finite number (got {c})")
    if c <= 0:
        raise DomainError(f"coincidence must be > 0 (got {c}); distance is infinite at 0")
    if c > 100:
        raise DomainError(f"coincidence must be <= 100 (got {c})")
    return quantize(_svodesh(c), mode)


def svodesh_to_coincidence(length: float, mode: str = PRECISE) -> float:
    """Coincidence percentage for a nonnegative svodesh distance."""
    check_mode(mode)
    if not np.isfinite(length) or length < 0:
        raise DomainError(f"svodesh distance must be finite and >= 0 (got {length})")
    return quantize(_coincidence(length), mode)


def _svodesh(c: float) -> float:
    return -100.0 * math.log(c / 100.0)


def _coincidence(length: float) -> float:
    return 100.0 * math.exp(-length / 100.0)


def divergence_time(
    c: float, t1: float = 0.0, t2: float = 0.0, mode: str = PRECISE
) -> float:
    """Divergence time before present of two attested languages.

    ``t1`` and ``t2`` are the attestation depths of the two languages in
    svodesh (0 for contemporary ones); the distance through the common
    ancestor plus both depths, halved.
    """
    check_mode(mode)
    if not (0 <= t1 < math.inf and 0 <= t2 < math.inf):  # nan fails both
        raise DomainError("attestation depths must be finite and >= 0")
    time = (coincidence_to_svodesh(c, PRECISE) + t1 + t2) / 2.0
    if not math.isfinite(time):
        raise DomainError(f"divergence time is not finite (got {time})")
    return quantize(time, mode)


def pair_count(k: int) -> int:
    """Number of distinct unordered pairs among k languages."""
    if k < 2:
        raise DomainError(f"need at least 2 languages (got {k})")
    return k * (k - 1) // 2


def _observed_pairs(matrix, invalid, scalar, mode: str):
    """Row, column and value of each observed (non-NaN) upper-triangle pair.

    ``invalid`` flags the values the scalar conversion ``scalar`` rejects;
    the first flagged pair in row-major order raises ``scalar``'s error,
    prefixed with the pair's labels.
    """
    rows, cols = np.triu_indices(len(matrix.languages), 1)
    cells = matrix.values[rows, cols]
    observed = ~np.isnan(cells)
    flagged = np.flatnonzero(observed & invalid(cells))
    if flagged.size:
        n = flagged[0]
        try:
            scalar(cells[n], mode)
        except DomainError as exc:
            labels = matrix.languages.labels
            raise DomainError(
                f"pair ({labels[rows[n]]}, {labels[cols[n]]}): {exc}"
            ) from None
    return rows[observed], cols[observed], cells[observed]


def _each(convert, cells: np.ndarray) -> np.ndarray:
    """``convert`` of each cell, one scalar call per distinct value."""
    distinct, inverse = np.unique(cells, return_inverse=True)
    return np.array([convert(c) for c in distinct.tolist()])[inverse]


def _symmetric(k: int, rows, cols, values, diagonal: float) -> np.ndarray:
    """A k x k matrix: ``values`` at (row, col) and (col, row), ``diagonal`` on
    the diagonal, NaN at every other cell."""
    out = np.full((k, k), np.nan)
    np.fill_diagonal(out, diagonal)
    out[rows, cols] = values
    out[cols, rows] = values
    return out


def matrix_to_distances(matrix: CoincidenceMatrix, mode: str = PRECISE) -> DistanceMatrix:
    """Elementwise conversion of coincidences to svodesh distances.

    Reads the observed upper-triangle cells and converts each distinct value once.
    """
    check_mode(mode)
    rows, cols, cells = _observed_pairs(
        matrix,
        lambda c: ~np.isfinite(c) | (c <= 0) | (c > 100),
        coincidence_to_svodesh,
        mode,
    )
    values = quantize_array(_each(_svodesh, cells), mode)
    out = _symmetric(len(matrix.languages), rows, cols, values, 0.0)
    return DistanceMatrix(matrix.languages, out)


def matrix_to_coincidences(matrix: DistanceMatrix, mode: str = PRECISE) -> CoincidenceMatrix:
    """Elementwise conversion of svodesh distances to coincidences.

    Reads the observed upper-triangle cells and converts each distinct value once.
    """
    check_mode(mode)
    rows, cols, cells = _observed_pairs(
        matrix,
        lambda length: ~np.isfinite(length) | (length < 0),
        svodesh_to_coincidence,
        mode,
    )
    exact = _each(_coincidence, cells)
    values = quantize_array(exact, mode)
    # Integer rounding of a sub-half-percent coincidence would leave the
    # (0, 100] range; keep the fractional value.
    values = np.where(values == 0.0, exact, values)
    out = _symmetric(len(matrix.languages), rows, cols, values, 100.0)
    return CoincidenceMatrix(matrix.languages, out)
