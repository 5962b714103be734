"""Evaluation of a dendrogram against measured data, and iterative reweighting.

Segment lengths are additive, so restored minus measured distances behave
like ordinary residuals: per language we take the spread of its residual row
as a reliability score and feed inverse dispersions back into the next build
pass as weights.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import builder, chronometry
from .errors import DomainError
from .model import (
    CoincidenceMatrix,
    Dendrogram,
    DistanceMatrix,
    LanguageSet,
    WeightVector,
    restore_distance_matrix,
)
from .modes import PAPER, PRECISE, check_mode, quantize_array

DISPERSION_FLOOR = 0.5  # svodesh^2; keeps weights finite on perfect fits
WEIGHT_MEAN = 10.0
WEIGHT_CHANGE_TOL = 0.05  # relative; iterate_build stops below it
MAX_PASSES = 3  # iterate_build stops after at most this many builds


class EvaluationReport(NamedTuple):
    """Restored distances, per-pair residuals, per-language dispersions."""

    languages: LanguageSet
    restored: DistanceMatrix
    residuals: np.ndarray  # restored - measured, NaN where measured absent
    dispersions: tuple[float, ...]
    worst_pairs: tuple[tuple[str, str, float], ...]

    def dispersion(self, label: str) -> float:
        return self.dispersions[self.languages.index(label)]

    def max_abs_residual(self) -> float:
        finite = self.residuals[~np.isnan(self.residuals)]
        return float(np.max(np.abs(finite))) if finite.size else 0.0


class BuildPass(NamedTuple):
    """One pass of the iterated build."""

    dendrogram: Dendrogram
    weights: WeightVector
    report: EvaluationReport
    weight_change: float | None  # max relative change vs the previous pass


class IterationTrace(NamedTuple):
    passes: tuple[BuildPass, ...]

    @property
    def final(self) -> Dendrogram:
        return self.passes[-1].dendrogram


class PerturbationRow(NamedTuple):
    delta: float
    coincidence: float
    depth: float
    lateral: float
    status: str
    flags: tuple[str, ...]


class PerturbationReport(NamedTuple):
    perturbed_pair: tuple[str, str]
    tracked_pair: tuple[str, str]
    rows: tuple[PerturbationRow, ...]  # first row is the unperturbed baseline


def evaluate(dendrogram: Dendrogram, measured: DistanceMatrix) -> EvaluationReport:
    """Residuals of the dendrogram's restored distances against measured ones.

    The dispersion of a language is the sample variance of its residual row
    about the row mean: the reconstruction is unbiased on average, so bias
    is removed before spread is measured.
    """
    langs = dendrogram.languages
    if set(measured.languages.labels) != set(langs.labels):
        raise DomainError("measured matrix covers a different language set")
    order = [measured.languages.index(lab) for lab in langs.labels]
    measured_values = measured.values[np.ix_(order, order)]
    restored = restore_distance_matrix(dendrogram)
    residuals = restored.values - measured_values
    np.fill_diagonal(residuals, 0.0)
    residuals.setflags(write=False)
    return EvaluationReport(
        languages=langs,
        restored=restored,
        residuals=residuals,
        dispersions=_dispersions(residuals),
        worst_pairs=_worst_pairs(residuals, langs.labels),
    )


@np.errstate(over="ignore", invalid="ignore")  # inf beyond float range, rejected later
def _dispersions(residuals: np.ndarray) -> tuple[float, ...]:
    """Sample variance of each residual row without its diagonal cell.

    Complete rows share one ``np.var`` over the off-diagonal block; a row
    with absent cells drops them first.  Fewer than two cells give 0.
    """
    k = len(residuals)
    off = residuals[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    absent = np.isnan(off).any(axis=1)
    dispersions = np.zeros(k)
    if k >= 3:
        dispersions[~absent] = np.var(off[~absent], axis=1, ddof=1)
    for i in np.flatnonzero(absent).tolist():
        row = off[i][~np.isnan(off[i])]
        dispersions[i] = np.var(row, ddof=1) if row.size >= 2 else 0.0
    return tuple(dispersions.tolist())


def _worst_pairs(residuals: np.ndarray, labels) -> tuple[tuple[str, str, float], ...]:
    """The three pairs of largest |residual|; ties go to the smaller label pair.

    Only pairs at least as large as the third largest are sorted, with the
    key a sort of every pair would use.
    """
    rows, cols = np.nonzero(np.triu(~np.isnan(residuals), 1))
    values = residuals[rows, cols]
    size = np.abs(values)
    if size.size > 3:
        keep = size >= np.partition(size, size.size - 3)[size.size - 3]
        rows, cols, values = rows[keep], cols[keep], values[keep]
    pairs = [
        (labels[i], labels[j], r)
        for i, j, r in zip(rows.tolist(), cols.tolist(), values.tolist())
    ]
    pairs.sort(key=lambda p: (-abs(p[2]), p[0], p[1]))
    return tuple(pairs[:3])


def weights_from_dispersions(
    languages: LanguageSet, dispersions, mode: str = PRECISE
) -> WeightVector:
    """Inverse-dispersion weights, normalized to a mean of ``WEIGHT_MEAN``.

    Only ratios matter downstream; the normalization keeps integer-mode
    weights in a legible range.  Dispersions below ``DISPERSION_FLOOR`` are
    floored so perfectly fitted languages do not get infinite weight.
    """
    check_mode(mode)
    disp = np.asarray(list(dispersions), dtype=float)
    if disp.shape != (len(languages),):
        raise DomainError("one dispersion per language required")
    bad = np.flatnonzero(~(disp >= 0) | np.isinf(disp))
    if bad.size:
        raise DomainError(f"dispersions must be finite and >= 0 (language "
                          f"{languages.labels[bad[0]]}: {disp[bad[0]]})")
    inverse = 1.0 / np.maximum(disp, DISPERSION_FLOOR)
    scaled = WEIGHT_MEAN * inverse / inverse.mean()
    if mode == PAPER:
        scaled = np.maximum(1.0, quantize_array(scaled, PAPER))
    return WeightVector(languages, tuple(float(w) for w in scaled))


def iterate_build(
    measured: DistanceMatrix,
    mode: str = PRECISE,
    external_means: str = "weighted",
    resolve_tolerance: float = builder.DEFAULT_RESOLVE_TOLERANCE,
) -> IterationTrace:
    """Build, evaluate, reweight, repeat.

    Pass 1 is unweighted; each subsequent pass uses inverse-dispersion
    weights from the previous evaluation.  Stops at ``MAX_PASSES`` or when
    the maximum relative weight change drops below ``WEIGHT_CHANGE_TOL``.
    """
    langs = measured.languages
    weights = WeightVector.unit(langs)
    passes: list[BuildPass] = []
    change: float | None = None
    for _ in range(MAX_PASSES):
        dendrogram = builder.build(
            measured, weights, mode=mode, external_means=external_means,
            resolve_tolerance=resolve_tolerance,
        )
        report = evaluate(dendrogram, measured)
        passes.append(BuildPass(dendrogram, weights, report, change))
        if len(langs) < 3:
            break  # one residual per row: no degrees of freedom to reweight
        next_weights = weights_from_dispersions(langs, report.dispersions, mode)
        change = max(
            abs(nw - w) / w for nw, w in zip(next_weights.values, weights.values)
        )
        if change < WEIGHT_CHANGE_TOL:
            break
        weights = next_weights
    return IterationTrace(tuple(passes))


def perturb(
    measured: CoincidenceMatrix,
    pair: tuple[str, str],
    deltas,
    track: tuple[str, str] | None = None,
    mode: str = PRECISE,
    external_means: str = "weighted",
) -> PerturbationReport:
    """Rebuild the dendrogram with one coincidence nudged by each delta.

    Reports the geometry of the junction where the ``track`` pair (default:
    the perturbed pair) first shares a cluster, next to the baseline.
    """
    if pair[0] == pair[1]:
        raise DomainError(f"pair {tuple(pair)} is a diagonal cell: it names one language twice")
    track = tuple(track) if track is not None else tuple(pair)
    baseline_c = measured.value(*pair)
    if np.isnan(baseline_c):
        raise DomainError(f"pair {tuple(pair)} is absent from the matrix: nothing to perturb")
    baseline = chronometry.matrix_to_distances(measured, mode)
    rows = []
    for delta in (0.0, *deltas):
        c = baseline_c + delta
        if not (0 < c <= 100):
            raise DomainError(
                f"perturbed coincidence {c} for pair {pair} leaves (0, 100]"
            )
        distances = baseline
        if delta:
            # The one changed cell, converted as the whole matrix would be.
            distances = baseline.with_value(*pair, chronometry.coincidence_to_svodesh(c, mode))
        dendrogram = builder.build(
            distances, None, mode=mode, external_means=external_means
        )
        jn = dendrogram.meeting_junction(*track)
        rows.append(
            PerturbationRow(
                delta=float(delta),
                coincidence=float(c),
                depth=jn.depth,
                lateral=jn.lateral,
                status=jn.status,
                flags=jn.flags,
            )
        )
    return PerturbationReport(tuple(pair), track, tuple(rows))
