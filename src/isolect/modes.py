"""Arithmetic modes.

Every quantity derived along the reconstruction pipeline is either kept at
full double precision ("precise") or rounded to the nearest integer at each
step, ties away from zero ("paper").  The integer mode reproduces hand
calculations done on whole svodesh values; the precise mode is the one with
clean numerical invariants (round trips, tree metrics, equivariance).
"""

from __future__ import annotations

import math

import numpy as np

PRECISE = "precise"
PAPER = "paper"

MODES = (PRECISE, PAPER)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


def round_half_away(x: float) -> float:
    """Round to the nearest integer with ties away from zero."""
    return math.copysign(math.floor(abs(x) + 0.5), x)


def quantize(value: float, mode: str) -> float:
    """Apply the mode's per-step rounding to a derived value."""
    if mode == PAPER:
        return round_half_away(value)
    if mode == PRECISE:
        return float(value)
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def quantize_array(values: np.ndarray, mode: str) -> np.ndarray:
    """``quantize`` on every element of a float array.

    The paper-mode rounding runs the scalar ``round_half_away``'s IEEE
    operations elementwise, so each element equals the scalar result, -0.0
    included.  Precise mode returns the values as a float array, unchanged.
    """
    if mode == PAPER:
        return np.copysign(np.floor(np.abs(values) + 0.5), values)
    if mode == PRECISE:
        return np.asarray(values, dtype=float)
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
