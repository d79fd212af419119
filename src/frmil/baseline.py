"""Non-parametric magnitude baseline.

A bag's mean feature magnitude, optionally after subtracting the largest
instance (by norm), is turned into a positive-class probability by
clipping against a margin: P(y=1 | mu) = min(tau, mu) / tau. The margin
itself is read off the point where the per-class magnitude densities
first cross, estimated on the train set only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .bagdata import InstanceBag, SingleClassError, write_csv


@dataclass
class MagnitudeRecord:
    bag_id: str
    label: int
    mu_raw: float
    mu_recal: float


@dataclass
class TauEstimate:
    tau: float
    method: str  # "density-crossing" or "midpoint-fallback"


# float64 bytes per band of the magnitude passes: a band of converted rows,
# or of (grid point, bag) kernel values, stays in a 2 MB L2 cache instead
# of the whole (n, D) or (bins, bags) array going through memory.
_MAG_BAND_BYTES = 256 * 1024


def _band(width: int) -> int:
    """Rows of ``width`` float64 values in one band."""
    return max(1, _MAG_BAND_BYTES // (8 * width))


def _real_rows(bag: InstanceBag) -> np.ndarray:
    """The bag's unmasked float32 rows: the features themselves when no
    row is masked, so a loaded bag is not copied."""
    if bag.mask.all():
        return bag.features
    rows = bag.real_features()
    if not len(rows):
        raise ValueError(f"bag {bag.bag_id}: every row is masked")
    return rows


def _squared_norms(rows: np.ndarray, shift=None, out=None) -> np.ndarray:
    """The float64 squared Euclidean norm of every row of ``rows`` (of
    ``row - shift`` when the float64 shift is given), written into out
    (n,) when given.

    Rows are read in bands of ``_MAG_BAND_BYTES``, each converted to
    float64, shifted and squared in place and summed along the row: each
    norm is the ``sum(axis=1)`` of that row's squares, so the bytes equal
    one pass over a whole-bag float64 copy, which is never made."""
    band = _band(rows.shape[1])
    if out is None:
        out = np.empty(len(rows))
    for lo in range(0, len(rows), band):
        blk = rows[lo:lo + band].astype(np.float64)
        if shift is not None:
            blk -= shift
        np.square(blk, out=blk)
        blk.sum(axis=1, out=out[lo:lo + band])
    return out


def _recalibrated_norms(rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Overwrite norms, the rows' squared norms, with those of every row
    less the largest-norm row (ties: the lowest index). Unlike the model's
    re-calibration, the baseline applies no ReLU."""
    top = rows[int(norms.argmax())].astype(np.float64)
    return _squared_norms(rows, top, out=norms)


def _mean_magnitude(norms: np.ndarray, squared: bool = True) -> float:
    """Mean over instances of the squared norms, or of the norms."""
    return float((norms if squared else np.sqrt(norms)).mean())


def bag_probability(mu: float, tau: float) -> float:
    """min(tau, mu) / tau, clamped into [0, 1] and 1 whenever mu >= tau."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return min(tau, max(mu, 0.0)) / tau


def compute_magnitudes(bags: Sequence[InstanceBag],
                       squared: bool = True) -> List[MagnitudeRecord]:
    """Raw and recalibrated magnitudes per bag (real instances only): one
    pass gives every row's norm, read by both the raw magnitude and the
    pick of the top row, and a second the norms of the shifted rows."""
    records = []
    for bag in bags:
        rows = _real_rows(bag)
        norms = _squared_norms(rows)
        mu_raw = _mean_magnitude(norms, squared)
        mu_recal = _mean_magnitude(_recalibrated_norms(rows, norms), squared)
        records.append(MagnitudeRecord(bag.bag_id, bag.label, mu_raw, mu_recal))
    return records


def _silverman_bandwidth(values: np.ndarray, scale: float) -> float:
    n = len(values)
    std = float(values.std(ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    spread = min(s for s in (std, iqr / 1.34) if s > 0) \
        if (std > 0 or iqr > 0) else 0.0
    bw = 0.9 * spread * n ** (-0.2)
    return max(bw, 1e-6 * max(scale, 1.0))


def _kde(values: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian-kernel density of values at every grid point, in bands of
    grid points: a band's (points, values) kernel block is summed along
    its rows before the next is built, so memory does not grow with the
    grid and each point's sum is the one a whole-grid block gives."""
    band = _band(len(values))
    dens = np.empty(len(grid))
    for lo in range(0, len(grid), band):
        z = (grid[lo:lo + band, None] - values[None, :]) / bandwidth
        np.exp(-0.5 * z ** 2).sum(axis=1, out=dens[lo:lo + band])
    return dens / (len(values) * bandwidth * math.sqrt(2.0 * math.pi))


def estimate_tau(records: Sequence[MagnitudeRecord],
                 bins: int = 256,
                 recalibrated: bool = True) -> TauEstimate:
    """Margin from the first genuine crossing of the class densities.

    Gaussian-kernel densities of per-bag magnitudes are evaluated on a
    shared grid over [0, 1.05 * max]. Scanning upward past the negative
    class's mode, tau is the first grid point where the positive density,
    having been strictly below, meets or exceeds the negative density.
    When the curves never cross (e.g. identical classes) the midpoint of
    the class means is returned instead.
    """
    if bins < 2:
        raise ValueError("need at least 2 grid points")
    mus = {0: [], 1: []}
    for rec in records:
        mu = rec.mu_recal if recalibrated else rec.mu_raw
        mus[rec.label].append(mu)
    for label in (0, 1):
        if len(mus[label]) < 2:
            raise SingleClassError(
                f"tau estimation needs >= 2 bags of label {label}, "
                f"got {len(mus[label])}")
    neg = np.asarray(mus[0], dtype=np.float64)
    pos = np.asarray(mus[1], dtype=np.float64)
    top = float(max(neg.max(), pos.max()))
    grid = np.linspace(0.0, top * 1.05 if top > 0 else 1.0, bins)
    d_neg = _kde(neg, grid, _silverman_bandwidth(neg, top))
    d_pos = _kde(pos, grid, _silverman_bandwidth(pos, top))
    mode = int(np.argmax(d_neg))
    was_below = False
    for i in range(mode + 1, bins):
        if was_below and d_pos[i] >= d_neg[i]:
            return TauEstimate(tau=float(grid[i]), method="density-crossing")
        if d_pos[i] < d_neg[i]:
            was_below = True
    mid = 0.5 * (float(neg.mean()) + float(pos.mean()))
    return TauEstimate(tau=mid, method="midpoint-fallback")


@dataclass
class BaselineReport:
    tau: float
    accuracy: float
    rows: List[Tuple[str, int, float, float, int]] = field(default_factory=list)
    # rows: (bag_id, label, mu, probability, prediction)


def baseline_classify(bags: Sequence[InstanceBag], tau: float,
                      recalibrate: bool) -> BaselineReport:
    """Classify each bag by its margin-clipped squared-magnitude
    probability; a probability of 0.5 or more predicts positive."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rows = []
    correct = 0
    for bag in bags:
        real = _real_rows(bag)
        norms = _squared_norms(real)
        if recalibrate:
            norms = _recalibrated_norms(real, norms)
        mu = _mean_magnitude(norms)
        prob = bag_probability(mu, tau)
        pred = 1 if prob >= 0.5 else 0
        correct += int(pred == bag.label)
        rows.append((bag.bag_id, bag.label, mu, prob, pred))
    accuracy = correct / len(bags) if bags else 0.0
    return BaselineReport(tau=tau, accuracy=accuracy, rows=rows)


def write_density_csv(records: Sequence[MagnitudeRecord], path) -> None:
    """Per-bag magnitude export for external density plotting."""
    write_csv(path, [["bag_id", "label", "mu_raw", "mu_recal"]]
              + [[rec.bag_id, rec.label, f"{rec.mu_raw:.6f}",
                  f"{rec.mu_recal:.6f}"] for rec in records])
