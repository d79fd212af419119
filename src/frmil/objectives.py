"""Training losses: bag and max-instance cross-entropy plus the
feature-magnitude margin loss, combined with balancing weights.

The margin loss hinges every real positive-bag instance's recalibrated
norm against the margin from below and pulls every negative-bag norm
toward zero. No term couples the two bags of a balanced pair, so the
pair's loss is the sum of one loss per bag (``bag_loss``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ForwardTrace

PROB_EPS = 1e-7  # BCE probability clamp


class BalancedBatchError(ValueError):
    """A balanced batch must contain exactly one bag of each label."""


@dataclass(frozen=True)
class LossWeights:
    """The term weights and the margin, checked once when built."""

    gamma_bag: float = 0.33
    gamma_max: float = 0.33
    gamma_fm: float = 0.33
    tau: float = 8.48

    def __post_init__(self) -> None:
        for name in ("gamma_bag", "gamma_max", "gamma_fm"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not np.isfinite(self.tau) or self.tau <= 0:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")


def _as_tensor(p: Union[Tensor, float]) -> Tensor:
    return p if isinstance(p, Tensor) else Tensor(np.asarray([[float(p)]]))


def bce_loss(p: Union[Tensor, float], y: int) -> Tensor:
    """-[y log p + (1-y) log(1-p)] with p clamped into [eps, 1-eps]."""
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    pt = ad.clamp(_as_tensor(p), PROB_EPS, 1.0 - PROB_EPS)
    if y == 0:
        pt = ad.mul(ad.sub(pt, 1.0), -1.0)  # 1 - p
    return ad.mul(ad.log(pt), -1.0)


def bce_values(probs, labels) -> np.ndarray:
    """``bce_loss`` of each probability against its label, as one float64
    vector with the same bytes, built with no graph."""
    if not set(labels) <= {0, 1}:
        raise ValueError(f"labels must be 0 or 1, got {sorted(set(labels))}")
    pt = np.clip(np.array(probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    neg = np.equal(labels, 0)
    pt[neg] = (pt[neg] - 1.0) * -1.0  # 1 - p
    return np.log(pt) * -1.0


def magnitude_term(h: Tensor, mask: np.ndarray, label: int, tau: float,
                   squared: bool = False) -> Tensor:
    """One bag's share of the margin loss: the mean over its real rows of
    max(0, tau - ||row||) for a positive bag (label 1), of ||row|| for a
    negative one. Norms are unsquared by default."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    norms = ad.l2_norm_rows(h, squared=squared)
    if label == 1:
        norms = ad.relu(ad.add(ad.mul(norms, -1.0), tau))
    return ad.masked_reduce("mean", norms, np.asarray(mask, dtype=bool))


def bag_loss(trace: ForwardTrace, label: int, weights: LossWeights,
             fm_squared: bool = False) -> Tuple[Tensor, Dict[str, np.ndarray]]:
    """One bag's weighted share of a balanced pair's loss and its
    unweighted float32 parts: each cross-entropy halved, as the pair's
    mean, and the bag's ``magnitude_term``."""
    l_bag = ad.mul(bce_loss(trace.bag_prob, label), 0.5)
    l_max = ad.mul(bce_loss(trace.a_max, label), 0.5)
    l_fm = magnitude_term(trace.h_recal, trace.mask, label, weights.tau,
                          squared=fm_squared)
    loss = ad.add(ad.add(ad.mul(l_bag, weights.gamma_bag),
                         ad.mul(l_max, weights.gamma_max)),
                  ad.mul(l_fm, weights.gamma_fm))
    return loss, {"bag": l_bag.data, "max": l_max.data, "fm": l_fm.data}


def pair_parts(pos: Dict[str, np.ndarray], neg: Dict[str, np.ndarray],
               weights: LossWeights) -> Dict[str, float]:
    """A pair's loss parts from its two bags' float32 parts (``bag_loss``),
    plus the weighted total."""
    parts = {k: (pos[k] + neg[k]).item() for k in ("bag", "max", "fm")}
    # recombine in float64 so the logged terms sum to the logged total
    parts["total"] = (weights.gamma_bag * parts["bag"]
                      + weights.gamma_max * parts["max"]
                      + weights.gamma_fm * parts["fm"])
    return parts


def total_loss(trace_pos: ForwardTrace, trace_neg: ForwardTrace,
               labels: Tuple[int, int], weights: LossWeights,
               fm_squared: bool = False) -> Tuple[Tensor, Dict[str, float]]:
    """Weighted sum over one balanced batch, plus per-term breakdown.

    Returns (scalar tensor, breakdown) where the breakdown holds the
    unweighted values of each term and the weighted total.
    """
    if labels != (1, 0):
        raise BalancedBatchError(f"a balanced batch is one (positive, negative) "
                                 f"pair, labels (1, 0), got {labels}")
    (pos, pos_parts), (neg, neg_parts) = (
        bag_loss(trace, label, weights, fm_squared)
        for trace, label in zip((trace_pos, trace_neg), labels))
    return ad.add(pos, neg), pair_parts(pos_parts, neg_parts, weights)
