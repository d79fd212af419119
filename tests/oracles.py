"""Reference implementations that the product code is tested against.

General autodiff ops that no product path uses, built on
``autodiff._result`` and ``autodiff._accumulate`` like the product ops:
``reshape``, ``softmax_lastdim``, ``depthwise_conv2d_3x3``,
``concat_rows``, ``concat_cols``, ``transpose2d`` and ``slice_cols``.

``pem_composite`` and ``pmsa_composite`` build the positional encoder and
the attention pooling from those general ops (gather, transpose,
depthwise conv, per-head slices, softmax, concat), projecting every token
through the full K and V matrices. They are the eval-mode forwards of
``model.pem_forward`` and ``model.pmsa_forward`` before those moved onto
``autodiff.grid_positional`` and ``autodiff.query_attention``.

``reference_op_checks`` runs the finite-difference checks of the general
ops above, in the format of ``selftest.gradient_checks``.

``pairwise_auc`` is the Mann-Whitney statistic as a double loop over
(positive, negative) pairs, and ``brute_force_baseline`` the magnitude
baseline's predictions as plain per-bag Python loops.

``mean_magnitude`` and ``recalibrate_by_norm_max`` are the baseline's
formulas over a whole-bag float64 copy, and ``kde_whole_grid`` its class
density as one (grid points, values) block: the banded passes of
``frmil.baseline`` must give their bytes.

``adam_step_reference`` is ``training.adam_step`` as it was before it
moved onto in-place ufuncs, one temporary array per operation.

``pad_to`` appends masked zero rows to a bag, which no product path
does: the tests use it to check that padding changes nothing.

``joint_pair_loss`` is a balanced pair's loss as one joint graph: each
term the pair's mean over both bags, then weighted. ``objectives.bag_loss``
splits it into one loss per bag, and the two bags' parts and gradients
must give its bytes.

``pair_step_reference`` is the model's training step over one balanced
pair as one graph over both bags, on one thread, each bag's dropout masks
drawn from a generator of its own. ``training._pair_step`` runs forward,
loss and backward for each bag on its own, on one CPU or two, and must
give its bytes.
"""

import math
from typing import Optional, Sequence

import numpy as np

from frmil import autodiff as ad
from frmil.autodiff import (
    MaskError,
    ShapeError,
    Tensor,
    _accumulate,
    _masked_softmax,
    _result,
)
from frmil.bagdata import InstanceBag
from frmil.model import bag_forward
from frmil.objectives import bce_loss, magnitude_term, total_loss
from frmil.selftest import _check, _dims, _scalarize, _t


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.data.shape} ({a.data.size} values) "
                         f"to {shape}")
    out = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _result(out, (a,), backward)


def softmax_lastdim(a: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax over the last axis; masked entries get exactly zero weight."""
    if mask is None:
        mask = np.ones(a.data.shape[-1], bool)
    out = _masked_softmax(a.data, mask)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(a, out * (g - dot))

    return _result(out, (a,), backward)


def depthwise_conv2d_3x3(a: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Per-channel 3x3 convolution with one ring of zero padding.

    a: (B, C, H, W), w: (C, 3, 3), bias: (C,). Groups equal the channel
    count, so each channel is filtered independently and the spatial size
    is preserved.
    """
    x = a.data
    if x.ndim != 4:
        raise ShapeError(f"conv input must be (B, C, H, W), got {x.shape}")
    if w.data.shape != (x.shape[1], 3, 3):
        raise ShapeError(f"conv weight shape {w.data.shape} does not match "
                         f"{x.shape[1]} input channels")
    B, C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    # the nine taps from 0 in (dy, dx) order, then the bias
    out = np.zeros_like(x)
    for dy in range(3):
        for dx in range(3):
            out += w.data[:, dy, dx][None, :, None, None] * xp[:, :, dy:dy + H, dx:dx + W]
    out += bias.data[None, :, None, None]

    def backward(g):
        _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for dy in range(3):
                for dx in range(3):
                    gw[:, dy, dx] = (g * xp[:, :, dy:dy + H, dx:dx + W]).sum(axis=(0, 2, 3))
            _accumulate(w, gw)
        if a.requires_grad:
            gp = np.zeros_like(xp)
            for dy in range(3):
                for dx in range(3):
                    gp[:, :, dy:dy + H, dx:dx + W] += w.data[:, dy, dx][None, :, None, None] * g
            _accumulate(a, gp[:, :, 1:H + 1, 1:W + 1])

    return _result(out, (a, w, bias), backward)


def _concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def backward(g):
        start = 0
        for p, size in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            _accumulate(p, g[tuple(sl)])
            start += size

    return _result(out, tuple(parts), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack along the leading (token/row) axis."""
    return _concat(parts, axis=0)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Stack along the trailing (feature) axis; used to rejoin heads."""
    return _concat(parts, axis=1)


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d expects 2-D input, got {a.data.shape}")
    out = np.ascontiguousarray(a.data.T)

    def backward(g):
        _accumulate(a, g.T)

    return _result(out, (a,), backward)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= lo < hi <= a.data.shape[1]):
        raise ShapeError(f"invalid column slice [{lo}:{hi}] of {a.data.shape}")
    out = np.ascontiguousarray(a.data[:, lo:hi])

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[:, lo:hi] += g

    return _result(out, (a,), backward)


def pem_composite(h_recal, mask, params, residual=True):
    """model.pem_forward in eval mode, as take/pad/transpose/conv/route."""
    mask = np.asarray(mask, dtype=bool)
    n_rows = h_recal.shape[0]
    real = np.flatnonzero(mask)
    n = len(real)
    if n == 0:
        raise MaskError("empty bag: no unmasked instances")
    d = params.dim
    g = math.isqrt(n)
    if g * g < n:
        g += 1
    rows = ad.take_rows(h_recal, real)
    if g * g > n:
        pad = Tensor(np.zeros((g * g - n, d), dtype=h_recal.dtype))
        rows = concat_rows([rows, pad])
    grid = reshape(transpose2d(rows), (1, d, g, g))
    conv = depthwise_conv2d_3x3(grid, params.conv_w, params.conv_b)
    if residual:
        conv = ad.add(conv, grid)
    flat = transpose2d(reshape(conv, (d, g * g)))
    restored = ad.take_rows(flat, np.arange(n))
    if n < n_rows:
        zero_row = Tensor(np.zeros((1, d), dtype=h_recal.dtype))
        stacked = concat_rows([restored, zero_row])
        route = np.full(n_rows, n, dtype=np.intp)
        route[real] = np.arange(n)
        restored = ad.take_rows(stacked, route)
    return concat_rows([params.class_token, restored])


def pmsa_composite(h_q, tokens, token_mask, params):
    """model.pmsa_forward in eval mode, one slice/matmul/softmax per head."""
    token_mask = np.asarray(token_mask, dtype=bool)
    q = ad.add(ad.matmul(h_q, params.q_w), params.q_b)
    k = ad.add(ad.matmul(tokens, params.k_w), params.k_b)
    v = ad.add(ad.matmul(tokens, params.v_w), params.v_b)
    dh = params.dim // params.heads
    pooled = []
    weights = []
    for head in range(params.heads):
        lo, hi = head * dh, (head + 1) * dh
        qi = slice_cols(q, lo, hi)
        ki = slice_cols(k, lo, hi)
        vi = slice_cols(v, lo, hi)
        logits = ad.mul(ad.matmul(qi, transpose2d(ki)), 1.0 / math.sqrt(dh))
        attn = softmax_lastdim(logits, mask=token_mask)
        pooled.append(ad.matmul(attn, vi))
        weights.append(attn.data.copy())
    phi_hat = ad.add(concat_cols(pooled), q)
    ff = ad.relu(ad.add(ad.matmul(phi_hat, params.o_w), params.o_b))
    z = ad.layer_norm(ad.add(phi_hat, ff), params.ln_gain, params.ln_bias)
    return z, np.stack(weights)


def reference_op_checks():
    """Finite-difference checks of the general ops above, seeds 0-3 each."""

    def b_softmax(rng):
        n, d = _dims(rng)
        a = _t(rng, (n, d + 1))
        mask = rng.random(d + 1) < 0.7
        mask[0] = True
        return lambda: _scalarize(softmax_lastdim(a, mask=mask)), [a]

    def b_conv(rng):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(1, 4))
        a = _t(rng, (1, c, h, h))
        w = _t(rng, (c, 3, 3))
        b = _t(rng, (c,))
        def f():
            out = depthwise_conv2d_3x3(a, w, b)
            return _scalarize(reshape(out, (c, h * h)))
        return f, [a, w, b]

    def b_structural(rng):
        n, d = _dims(rng)
        a, b = _t(rng, (n, d)), _t(rng, (n, d))
        idx = rng.integers(0, 2 * n, size=n + 1)
        def f():
            cat = concat_rows([a, b])
            picked = ad.take_rows(cat, idx)
            wide = concat_cols([picked, ad.mul(picked, 0.5)])
            cols = slice_cols(wide, 1, d + 1)
            back = transpose2d(reshape(cols, (d, n + 1)))
            return _scalarize(back)
        return f, [a, b]

    return [_check("softmax_lastdim (masked)", b_softmax),
            _check("depthwise_conv2d_3x3", b_conv),
            _check("concat/reshape/transpose/gather", b_structural)]


def pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def brute_force_baseline(bags, tau, recalibrate):
    preds = []
    for bag in bags:
        h = bag.features[bag.mask].astype(np.float64)
        if recalibrate:
            norms = [float(sum(v * v for v in row)) for row in h]
            h = h - h[norms.index(max(norms))].copy()
        mu = sum(float(sum(v * v for v in row)) for row in h) / len(h)
        preds.append(1 if min(tau, mu) / tau >= 0.5 else 0)
    return preds


def mean_magnitude(features, squared=True):
    """Mean over instances of the per-row (squared) Euclidean norm."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("mean_magnitude needs a non-empty (n, D) array")
    sq = (feats ** 2).sum(axis=1)
    return float(np.mean(sq if squared else np.sqrt(sq)))


def recalibrate_by_norm_max(features):
    """Subtract the largest-norm row from every row (ties: lowest index)."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("recalibrate_by_norm_max needs a non-empty (n, D) "
                         "array")
    norms = (feats ** 2).sum(axis=1)
    return feats - feats[int(np.argmax(norms))]


def kde_whole_grid(values, grid, bandwidth):
    """Gaussian-kernel density of values at every grid point at once."""
    z = (grid[:, None] - values[None, :]) / bandwidth
    dens = np.exp(-0.5 * z ** 2).sum(axis=1)
    return dens / (len(values) * bandwidth * math.sqrt(2.0 * math.pi))


def adam_step_reference(named, grads, state, lr):
    """One bias-corrected Adam update, allocating every intermediate."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, tensor in named.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        tensor.data = tensor.data - update.astype(tensor.data.dtype)


def joint_pair_loss(trace_pos, trace_neg, weights, fm_squared=False):
    """(scalar, parts): 0.5 (BCE(p_pos, 1) + BCE(p_neg, 0)) for the bag
    and the max terms, the positive bag's margin term plus the negative
    bag's, weighted and added, with the unweighted parts as floats."""
    def pair_mean(root):
        return ad.mul(ad.add(bce_loss(getattr(trace_pos, root), 1),
                             bce_loss(getattr(trace_neg, root), 0)), 0.5)

    l_bag, l_max = pair_mean("bag_prob"), pair_mean("a_max")
    l_fm = ad.add(*(magnitude_term(t.h_recal, t.mask, label, weights.tau,
                                   fm_squared)
                    for t, label in ((trace_pos, 1), (trace_neg, 0))))
    loss = ad.add(ad.add(ad.mul(l_bag, weights.gamma_bag),
                         ad.mul(l_max, weights.gamma_max)),
                  ad.mul(l_fm, weights.gamma_fm))
    return loss, {"bag": l_bag.item(), "max": l_max.item(), "fm": l_fm.item()}


def pair_step_reference(pos, neg, params, rngs, config, neg_first=False):
    """Both training forwards in turn, the positive bag's first unless
    ``neg_first``, each drawing from its own generator in ``rngs`` (positive,
    negative), then ``total_loss`` and one backward from it: leaves every
    parameter's gradient in its grad, returns the loss parts."""
    order = (1, 0) if neg_first else (0, 1)
    traces = [None, None]
    for i in order:
        traces[i] = bag_forward((pos, neg)[i], params, training=True,
                                rng=rngs[i], dropout=config.dropout,
                                pem_residual=config.pem_residual)
    loss, parts = total_loss(*traces, (1, 0), config.loss_weights(),
                             fm_squared=config.fm_squared)
    for t in params.named().values():
        t.grad = None
    ad.backward(loss)
    return parts


def pad_to(bag: InstanceBag, target_n: int) -> InstanceBag:
    """Append zero rows up to target_n; the mask marks them invalid."""
    n_rows = bag.features.shape[0]
    if target_n < n_rows:
        raise ValueError(f"cannot pad bag {bag.bag_id} of {n_rows} rows "
                         f"down to {target_n}")
    extra = target_n - n_rows
    feats = np.vstack([bag.features,
                       np.zeros((extra, bag.dim), dtype=np.float32)])
    mask = np.concatenate([bag.mask, np.zeros(extra, dtype=bool)])
    return InstanceBag(bag.bag_id, bag.label, feats, mask)
