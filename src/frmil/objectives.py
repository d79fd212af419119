"""Training losses: bag and max-instance cross-entropy plus the
feature-magnitude margin loss, combined with balancing weights.

The margin loss needs one positive and one negative bag at a time: it
hinges every real positive-bag instance's recalibrated norm against the
margin from below and pulls every negative-bag norm toward zero.
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


def pair_bce(p_pos: Tensor, p_neg: Tensor) -> Tensor:
    """Cross-entropy of a balanced pair, 0.5 (BCE(p_pos, 1) + BCE(p_neg, 0))."""
    return ad.mul(ad.add(bce_loss(p_pos, 1), bce_loss(p_neg, 0)), 0.5)


def feature_magnitude_loss(h_pos: Tensor, mask_pos: np.ndarray,
                           h_neg: Tensor, mask_neg: np.ndarray,
                           tau: float, squared: bool = False) -> Tensor:
    """Margin hinge on positive-bag norms plus plain negative-bag norms.

    mean over real positive rows of max(0, tau - ||row||) plus the mean
    over real negative rows of ||row||. Norms are unsquared by default.
    Means are taken per bag, which matches the single shared-N sum exactly
    when the bags have equal size and stays well defined otherwise.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    mask_pos = np.asarray(mask_pos, dtype=bool)
    mask_neg = np.asarray(mask_neg, dtype=bool)
    pos_norms = ad.l2_norm_rows(h_pos, squared=squared)
    neg_norms = ad.l2_norm_rows(h_neg, squared=squared)
    hinge = ad.relu(ad.add(ad.mul(pos_norms, -1.0), tau))
    pos_term = ad.masked_reduce("mean", hinge, mask_pos)
    neg_term = ad.masked_reduce("mean", neg_norms, mask_neg)
    return ad.add(pos_term, neg_term)


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
    l_bag = pair_bce(trace_pos.bag_prob, trace_neg.bag_prob)
    l_max = pair_bce(trace_pos.a_max, trace_neg.a_max)
    l_fm = feature_magnitude_loss(trace_pos.h_recal, trace_pos.mask,
                                  trace_neg.h_recal, trace_neg.mask,
                                  weights.tau, squared=fm_squared)
    total = ad.add(ad.add(ad.mul(l_bag, weights.gamma_bag),
                          ad.mul(l_max, weights.gamma_max)),
                   ad.mul(l_fm, weights.gamma_fm))
    parts = {"bag": l_bag.item(), "max": l_max.item(), "fm": l_fm.item()}
    # recombine in float64 so the logged terms sum to the logged total
    parts["total"] = (weights.gamma_bag * parts["bag"]
                      + weights.gamma_max * parts["max"]
                      + weights.gamma_fm * parts["fm"])
    return total, parts
