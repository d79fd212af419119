"""The feature re-calibration MIL network and its pooling comparators.

Pipeline per bag: a linear instance scorer picks the highest-probability
(critical) instance; every instance is shifted by that instance's raw
feature and rectified; the shifted features are laid out on a square
grid, filtered by a depthwise 3x3 convolution (an additive positional
perturbation), flattened back, and prefixed with a learnable class token;
a single multi-head attention block then pools the tokens into one bag
feature using the critical instance as the query, and a linear head turns
that into the bag probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import MaskError, ShapeError, Tensor
from .bagdata import InstanceBag

MIN_DIM = 2  # channels layer_norm and grid_positional need; the heads take 1


def param_shapes(dim: int) -> Dict[str, Tuple[int, ...]]:
    """Name -> shape of every ModelParams parameter, in checkpoint order.

    The one description of the parameter layout: ``init_params``,
    ``ModelParams.named`` and the checkpoint format all follow it.
    """
    d, dd = (dim,), (dim, dim)
    return {"scorer_w": (dim, 1), "scorer_b": (1,),
            "conv_w": (dim, 3, 3), "conv_b": d,
            "class_token": (1, dim),
            "q_w": dd, "q_b": d, "k_w": dd, "k_b": d,
            "v_w": dd, "v_b": d, "o_w": dd, "o_b": d,
            "ln_gain": d, "ln_bias": d,
            "clf_w": (dim, 1), "clf_b": (1,)}


@dataclass
class ModelParams:
    """Every learnable parameter; shapes and order are ``param_shapes``."""

    dim: int
    heads: int
    scorer_w: Tensor   # instance scorer
    scorer_b: Tensor
    conv_w: Tensor     # depthwise positional filter
    conv_b: Tensor
    class_token: Tensor
    q_w: Tensor        # query projection, and so on
    q_b: Tensor
    k_w: Tensor
    k_b: Tensor
    v_w: Tensor
    v_b: Tensor
    o_w: Tensor
    o_b: Tensor
    ln_gain: Tensor
    ln_bias: Tensor
    clf_w: Tensor      # bag classifier
    clf_b: Tensor

    def named(self) -> Dict[str, Tensor]:
        return {k: getattr(self, k) for k in param_shapes(self.dim)}


# Every view of an arena starts on a cache line: score-wsi scoring read 8%
# fewer bags per second from parameter views 4 bytes apart.
ARENA_ALIGN = 64


def arena(shapes: Dict[str, Tuple[int, ...]], dtype=np.float32,
          flat: Optional[np.ndarray] = None):
    """A flat array and a view of it per shape, in order, each starting a
    whole number of ``ARENA_ALIGN``-byte blocks into it; nothing writes the
    pads between them. A new flat array is zeroed, starts on an
    ``ARENA_ALIGN`` boundary and is built over a memoryview, so that it
    stays its views' ``base``. None when a given one is not as long as the
    layout."""
    itemsize = np.dtype(dtype).itemsize
    block, offsets, size = ARENA_ALIGN // itemsize, {}, 0
    for name, shape in shapes.items():
        offsets[name], size = size, size - (-math.prod(shape) // block) * block
    if flat is None:
        raw = np.zeros(size * itemsize + ARENA_ALIGN, np.uint8)
        flat = np.frombuffer(raw.data, dtype, size,
                             -raw.ctypes.data % ARENA_ALIGN)
    elif flat.shape != (size,):
        return None
    return flat, {name: flat[at:at + math.prod(shapes[name])]
                  .reshape(shapes[name]) for name, at in offsets.items()}


def arena_of(arrays: Dict[str, np.ndarray]) -> Optional[np.ndarray]:
    """The flat array of the arena whose views the arrays are, or None."""
    flat = next(iter(arrays.values())).base
    found = isinstance(flat, np.ndarray) and arena(
        {name: a.shape for name, a in arrays.items()}, flat.dtype, flat)
    return flat if found and all(
        a.__array_interface__ == found[1][name].__array_interface__
        for name, a in arrays.items()) else None


def init_params(dim: int, heads: int, seed: int,
                dtype=np.float32) -> ModelParams:
    """Deterministic initialization under seed, drawn in table order into
    one arena (``_init_tensors``)."""
    if dim < MIN_DIM:
        raise ShapeError(f"feature dim {dim} is below the model's floor of "
                         f"{MIN_DIM} channels")
    if dim % heads != 0:
        raise ValueError(f"feature dim {dim} is not divisible by {heads} heads")
    return ModelParams(dim=dim, heads=heads,
                       **_init_tensors(param_shapes(dim), dim, seed, dtype))


def _init_tensors(shapes: Dict[str, Tuple[int, ...]], dim: int, seed: int,
                 dtype) -> Dict[str, Tensor]:
    """Leaves over one new arena, drawn under seed in table order: the
    class token is standard normal; linear and convolution weights are
    uniform in +-1/sqrt(fan_in); biases start at zero; layer-norm gain at
    one."""
    rng = np.random.default_rng(seed)
    _, views = arena(shapes, dtype)
    for name, view in views.items():
        if name.endswith("w"):
            bound = 1.0 / math.sqrt(9 if name == "conv_w" else dim)  # fan-in
            view[...] = rng.uniform(-bound, bound, size=view.shape)
        elif name == "class_token":
            view[...] = rng.standard_normal(size=view.shape)
        elif name == "ln_gain":
            view[...] = 1
    return {name: Tensor(view, requires_grad=True)
            for name, view in views.items()}


@dataclass
class ForwardTrace:
    """Everything one bag forward produced, for losses and inspection."""

    scores: np.ndarray        # (n,) instance probabilities (detached)
    max_index: int
    a_max: Tensor             # (1, 1) probability of the critical instance
    h_q: Tensor               # (1, D) raw critical feature
    h_recal: Tensor           # (n, D) rectified shifted features
    tokens: Tensor            # (n+1, D) class token + positional output
    attention: np.ndarray     # (heads, 1, n+1) weights (detached)
    z: Tensor                 # (1, D) bag feature
    bag_logit: Tensor         # (1, 1)
    bag_prob: Tensor          # (1, 1)
    mask: np.ndarray          # (n,) validity of instance rows


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, w), b)


def select_max_instance(h: Tensor, mask: np.ndarray,
                        params: ModelParams | ComparatorParams
                        ) -> Tuple[np.ndarray, int, Tensor, Tensor]:
    """Instance probabilities and the critical (top-scoring) instance.

    Returns (scores, max_index, h_q, a_max) where h_q is the raw feature
    row of the winner and a_max its probability. Ties break to the lowest
    index; masked rows can never win.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise MaskError("empty bag: no unmasked instances")
    probs = ad.sigmoid(_linear(h, params.scorer_w, params.scorer_b))  # (n, 1)
    flat = probs.data[:, 0]
    ranked = np.where(mask, flat, -np.inf)
    max_index = int(np.argmax(ranked))  # argmax returns the first maximum
    h_q = ad.take_rows(h, [max_index])
    a_max = ad.take_rows(probs, [max_index])
    return flat.copy(), max_index, h_q, a_max


def recalibrate(h: Tensor, h_q: Tensor, mask: np.ndarray) -> Tensor:
    """ReLU(h - h_q) with the critical feature broadcast over rows.

    Masked (padding) rows are forced to exact zero so they cannot leak
    into norms or the positional grid.
    """
    mask = np.asarray(mask, dtype=bool)
    out = ad.relu(ad.sub(h, h_q))
    if mask.all():
        return out
    keep = np.repeat(mask[:, None], h.shape[1], axis=1).astype(h.dtype)
    return ad.mul(out, Tensor(keep))


def pem_forward(h_recal: Tensor, mask: np.ndarray, params: ModelParams,
                training: bool = False,
                rng: Optional[np.random.Generator] = None,
                dropout: float = 0.0,
                residual: bool = True) -> Tensor:
    """Positional encoding over the real instances, class token prepended:
    the (n_rows + 1, D) tokens of ``grid_positional``, which training
    dropout overwrites in place, since no backward reads them."""
    tokens = ad.grid_positional(h_recal, mask, params.conv_w, params.conv_b,
                                params.class_token, residual=residual)
    return ad.dropout(tokens, dropout, training=training, rng=rng,
                      inplace=True)


def pmsa_forward(h_q: Tensor, tokens: Tensor, token_mask: np.ndarray,
                 params: ModelParams, training: bool = False,
                 rng: Optional[np.random.Generator] = None,
                 dropout: float = 0.0) -> Tuple[Tensor, np.ndarray]:
    """Attention pooling: critical instance as query, tokens as keys/values.

    Per head of width D/heads: softmax(Q K^T / sqrt(D/heads)) V with masked
    softmax. Heads are re-joined, a residual adds the projected query, and
    the output passes a rectified feed-forward with layer norm:
    z = LN(phi_hat + ReLU(f_o(phi_hat))).
    """
    q = _linear(h_q, params.q_w, params.q_b)          # (1, D)
    phi, weights = ad.query_attention(q, tokens, params.k_w, params.k_b,
                                      params.v_w, params.v_b, token_mask,
                                      params.heads)
    phi_hat = ad.add(phi, q)
    ff_in = ad.dropout(phi_hat, dropout, training=training, rng=rng)
    ff = ad.relu(_linear(ff_in, params.o_w, params.o_b))
    z = ad.layer_norm(ad.add(phi_hat, ff), params.ln_gain, params.ln_bias)
    return z, weights


def bag_forward(bag: InstanceBag, params: ModelParams,
                training: bool = False,
                rng: Optional[np.random.Generator] = None,
                dropout: float = 0.0,
                pem_residual: bool = True) -> ForwardTrace:
    """Full forward pass over one bag, in the parameters' precision: the
    graph that training differentiates. ``score_bags`` gives the same
    probability with no graph."""
    h = Tensor(np.asarray(bag.features, dtype=params.scorer_w.dtype))
    mask = bag.mask
    scores, max_index, h_q, a_max = select_max_instance(h, mask, params)
    h_recal = recalibrate(h, h_q, mask)
    tokens = pem_forward(h_recal, mask, params, training=training, rng=rng,
                         dropout=dropout, residual=pem_residual)
    token_mask = np.concatenate([[True], mask])
    z, attention = pmsa_forward(h_q, tokens, token_mask, params,
                                training=training, rng=rng, dropout=dropout)
    bag_logit = _linear(z, params.clf_w, params.clf_b)
    bag_prob = ad.sigmoid(bag_logit)
    return ForwardTrace(scores=scores, max_index=max_index, a_max=a_max,
                        h_q=h_q, h_recal=h_recal, tokens=tokens,
                        attention=attention, z=z, bag_logit=bag_logit,
                        bag_prob=bag_prob, mask=np.asarray(mask, bool).copy())


def score_bags(bags: Sequence[InstanceBag], params: ModelParams,
               pem_residual: bool = True,
               run: Optional[Callable] = None) -> List[float]:
    """Eval-mode probabilities of the bags, in order: for each, the bytes of
    ``bag_forward(bag, params).bag_prob``, with no graph. ``evaluate`` scores
    every model bag here: a chunk of small bags at a time, or one large bag.

    A small bag's forward is mostly per-call overhead, so the row-wise and
    (B, D) stages run once over the call's bags: the scorer's bias and
    sigmoid, ``phi + q``, the feed-forward's bias and ReLU, the layer norm
    and the head's bias and sigmoid. Every matrix product runs once per
    bag, on the bag's own rows, into the call's arrays: BLAS rounds a
    product of stacked bags' rows differently from one bag's. The argmax
    and the attention's masked softmax also run per bag.

    The positional encoder is one ``autodiff._tokens`` call over the
    call's bags: each bag's rows are re-calibrated, ``max(row - h_q, 0)``,
    straight into its grid, the bytes of ``recalibrate`` then
    ``grid_positional``, so no (n, D) ``ReLU(H - h_q)`` array is built.
    ``run`` is ``_tokens``' two-CPU split of the fill and the filter.
    Masked rows are handled as in ``bag_forward``: the real rows fill the
    grid, masked token rows are zero, and the softmax runs over the bag's
    n_rows + 1 tokens.
    """
    p = {name: t.data for name, t in params.named().items()}
    dtype, d = p["scorer_w"].dtype, params.dim
    hs = [np.asarray(bag.features, dtype=dtype) for bag in bags]
    ends = np.cumsum([len(h) for h in hs]).tolist()
    starts = [0] + ends[:-1]
    probs = np.empty((ends[-1], 1), dtype)
    for h, lo, hi in zip(hs, starts, ends):
        np.matmul(h, p["scorer_w"], out=probs[lo:hi])
    probs += p["scorer_b"]
    probs = ad._sigmoid(probs)[:, 0]

    # per bag: the critical row, its query projection and its real rows
    n_bags = len(bags)
    h_q, q = np.empty((n_bags, d), dtype), np.empty((n_bags, d), dtype)
    reals = []
    for i, (bag, h, lo, hi) in enumerate(zip(bags, hs, starts, ends)):
        mask = np.asarray(bag.mask, dtype=bool)
        real = None if mask.all() else np.flatnonzero(mask)
        ranked = probs[lo:hi] if real is None else np.where(
            mask, probs[lo:hi], -np.inf)
        h_q[i] = h[int(np.argmax(ranked))]  # the first maximum
        np.matmul(h_q[i:i + 1], p["q_w"], out=q[i:i + 1])
        reals.append(real)
    q += p["q_b"]

    taps = np.ascontiguousarray(p["conv_w"].transpose(1, 2, 0))  # (3, 3, D)
    tokens = ad._tokens(hs, reals, h_q, taps, p["conv_b"], p["class_token"],
                        pem_residual, run)[1]
    phi = np.empty((n_bags, d), dtype)
    for i, (bag, x) in enumerate(zip(bags, tokens)):
        phi[i] = ad._attention(q[i:i + 1], x, p["k_w"], p["k_b"], p["v_w"],
                               p["v_b"], np.concatenate([[True], bag.mask]),
                               params.heads)[0][0]
    phi_hat = phi + q
    ff = np.empty((n_bags, d), dtype)
    for i in range(n_bags):
        np.matmul(phi_hat[i:i + 1], p["o_w"], out=ff[i:i + 1])
    ff += p["o_b"]
    z = ad._layer_norm(phi_hat + np.maximum(ff, 0), p["ln_gain"],
                       p["ln_bias"])[0]
    logits = np.empty((n_bags, 1), dtype)
    for i in range(n_bags):
        np.matmul(z[i:i + 1], p["clf_w"], out=logits[i:i + 1])
    logits += p["clf_b"]
    return ad._sigmoid(logits)[:, 0].tolist()


# ---------------------------------------------------------------------------
# classic pooling comparators


COMPARATOR_KINDS = ("mean_pool", "max_pool")
SCORER = ("scorer_w", "scorer_b")  # the param_shapes rows a pooling head has


@dataclass
class ComparatorParams:
    """The model's instance scorer alone; all either pooling needs."""

    kind: str  # "mean_pool" or "max_pool"
    dim: int
    scorer_w: Tensor  # (D, 1)
    scorer_b: Tensor  # (1,)

    def named(self) -> Dict[str, Tensor]:
        return {k: getattr(self, k) for k in SCORER}


def init_comparator(kind: str, dim: int, seed: int,
                    dtype=np.float32) -> ComparatorParams:
    """The scorer rows of ``param_shapes``, drawn as ``init_params`` draws
    them."""
    if kind not in COMPARATOR_KINDS:
        raise ValueError(f"unknown comparator {kind!r}")
    shapes = param_shapes(dim)
    return ComparatorParams(kind=kind, dim=dim, **_init_tensors(
        {k: shapes[k] for k in SCORER}, dim, seed, dtype))


def comparator_forward(cparams: ComparatorParams, bag: InstanceBag) -> Tensor:
    """Bag probability under mean pooling or max pooling of the scorer.

    mean_pool: the scorer's probability of the mean instance feature.
    max_pool: the critical instance's probability, ``a_max`` of
    ``select_max_instance``. Masked rows are excluded from both, and a bag
    with no unmasked row raises MaskError.
    """
    h = Tensor(np.asarray(bag.features, dtype=cparams.scorer_w.dtype))
    if cparams.kind == "max_pool":
        return select_max_instance(h, bag.mask, cparams)[3]
    return ad.sigmoid(_linear(ad.masked_reduce("mean", h, bag.mask),
                              cparams.scorer_w, cparams.scorer_b))
