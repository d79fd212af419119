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


def mean_magnitude(features: np.ndarray, squared: bool = True) -> float:
    """Mean over instances of the per-row (squared) Euclidean norm."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("mean_magnitude needs a non-empty (n, D) array")
    sq = (feats ** 2).sum(axis=1)
    return float(np.mean(sq if squared else np.sqrt(sq)))


def recalibrate_by_norm_max(features: np.ndarray) -> np.ndarray:
    """Subtract the largest-norm row from every row (ties: lowest index).

    Unlike the model's re-calibration, the baseline applies no ReLU.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("recalibrate_by_norm_max needs a non-empty (n, D) array")
    norms = (feats ** 2).sum(axis=1)
    return feats - feats[int(np.argmax(norms))]


def bag_probability(mu: float, tau: float) -> float:
    """min(tau, mu) / tau, clamped into [0, 1] and 1 whenever mu >= tau."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return min(tau, max(mu, 0.0)) / tau


def compute_magnitudes(bags: Sequence[InstanceBag],
                       squared: bool = True) -> List[MagnitudeRecord]:
    """Raw and recalibrated magnitudes per bag (real instances only)."""
    records = []
    for bag in bags:
        feats = bag.real_features()
        mu_raw = mean_magnitude(feats, squared=squared)
        mu_recal = mean_magnitude(recalibrate_by_norm_max(feats),
                                  squared=squared)
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
    z = (grid[:, None] - values[None, :]) / bandwidth
    dens = np.exp(-0.5 * z ** 2).sum(axis=1)
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
    recalibrated: bool
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
        feats = bag.real_features()
        if recalibrate:
            feats = recalibrate_by_norm_max(feats)
        mu = mean_magnitude(feats)
        prob = bag_probability(mu, tau)
        pred = 1 if prob >= 0.5 else 0
        correct += int(pred == bag.label)
        rows.append((bag.bag_id, bag.label, mu, prob, pred))
    accuracy = correct / len(bags) if bags else 0.0
    return BaselineReport(tau=tau, recalibrated=recalibrate,
                          accuracy=accuracy, rows=rows)


def write_density_csv(records: Sequence[MagnitudeRecord], path) -> None:
    """Per-bag magnitude export for external density plotting."""
    write_csv(path, [["bag_id", "label", "mu_raw", "mu_recal"]]
              + [[rec.bag_id, rec.label, f"{rec.mu_raw:.6f}",
                  f"{rec.mu_recal:.6f}"] for rec in records])
