"""Reference implementations that the fused model ops are tested against.

``pem_composite`` and ``pmsa_composite`` build the positional encoder and
the attention pooling from the general autodiff ops (gather, transpose,
depthwise conv, per-head slices, softmax, concat), projecting every token
through the full K and V matrices. They are the eval-mode forwards of
``model.pem_forward`` and ``model.pmsa_forward`` before those moved onto
``autodiff.grid_positional`` and ``autodiff.query_attention``.

``adam_step_reference`` is ``training.adam_step`` as it was before it
moved onto in-place ufuncs, one temporary array per operation.
"""

import math

import numpy as np

from frmil import autodiff as ad
from frmil.autodiff import MaskError, Tensor


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
        rows = ad.concat_rows([rows, pad])
    grid = ad.reshape(ad.transpose2d(rows), (1, d, g, g))
    conv = ad.depthwise_conv2d_3x3(grid, params.conv_w, params.conv_b)
    if residual:
        conv = ad.add(conv, grid)
    flat = ad.transpose2d(ad.reshape(conv, (d, g * g)))
    restored = ad.take_rows(flat, np.arange(n))
    if n < n_rows:
        zero_row = Tensor(np.zeros((1, d), dtype=h_recal.dtype))
        stacked = ad.concat_rows([restored, zero_row])
        route = np.full(n_rows, n, dtype=np.intp)
        route[real] = np.arange(n)
        restored = ad.take_rows(stacked, route)
    return ad.concat_rows([params.class_token, restored])


def pmsa_composite(h_q, tokens, token_mask, params):
    """model.pmsa_forward in eval mode, one slice/matmul/softmax per head."""
    token_mask = np.asarray(token_mask, dtype=bool)
    q = ad.add(ad.matmul(h_q, params.q_w), params.q_b)
    k = ad.add(ad.matmul(tokens, params.k_w), params.k_b)
    v = ad.add(ad.matmul(tokens, params.v_w), params.v_b)
    dh = params.head_dim
    pooled = []
    weights = []
    for head in range(params.heads):
        lo, hi = head * dh, (head + 1) * dh
        qi = ad.slice_cols(q, lo, hi)
        ki = ad.slice_cols(k, lo, hi)
        vi = ad.slice_cols(v, lo, hi)
        logits = ad.scale(ad.matmul(qi, ad.transpose2d(ki)), 1.0 / math.sqrt(dh))
        attn = ad.softmax_lastdim(logits, mask=token_mask)
        pooled.append(ad.matmul(attn, vi))
        weights.append(attn.data.copy())
    phi_hat = ad.add(ad.concat_cols(pooled), q)
    ff = ad.relu(ad.add(ad.matmul(phi_hat, params.o_w), params.o_b))
    z = ad.layer_norm(ad.add(phi_hat, ff), params.ln_gain, params.ln_bias)
    return z, np.stack(weights)


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
