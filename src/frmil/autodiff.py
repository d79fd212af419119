"""Dense tensors with reverse-mode automatic differentiation.

Just enough machinery to express the model forward pass and get exact
gradients for every parameter: 2-D matmul, broadcast-aware elementwise
arithmetic (add, sub, mul), relu, sigmoid, log, clamp, layer norm,
masked reductions and row norms, row gather, dropout, the two fused
ops below, and a finite-difference gradient checker.

Two fused ops carry the model's positional encoder and attention pooling,
each one graph node with a hand-written backward:

- ``grid_positional`` builds the attention tokens: the class token, then
  the depthwise 3x3 filter run channels-last. The (n, D) instance rows
  already are a row-major (g, g, D) grid, so they are copied, with no
  transpose, into a buffer with a zero ring. The forward and the input
  gradient run one einsum per L2-sized band of grid rows over a strided
  view of the 3x3 windows, the gradient with the taps flipped; the bias
  is added after the taps. The filter writes into the token buffer.
  Below D = 2 channels it raises ``ShapeError``.
- ``query_attention`` pools the tokens with a single query row. With one
  query the K and V projections regroup: per head h,
  ``logits_h = tokens @ (W_k,h q_h^T) + b_k,h . q_h`` and
  ``out_h = (A_h @ tokens) W_v,h + b_v,h`` since the weights A_h sum to 1.
  That costs n x D x heads instead of the n x D x D of projecting every
  token.

The numeric cores of the sigmoid, the layer norm, the attention forward,
the grid fill and the filter are module-level helpers (``_sigmoid``,
``_layer_norm``, ``_attention``, ``_fill``, ``_filter``) that the ops and
``model.score_bags``, the graph-free eval forward, both call, so each
stage's arithmetic is written once. ``_fill`` also re-calibrates as it
copies, ``max(row - h_q, 0)``, for ``score_bags``, which never builds the
(n, D) ``ReLU(H - h_q)`` array.

Convention: training runs in float32, gradient checks in float64. The
graph is carried by the tensors themselves (each records its parents and
a backward closure), so there is no global tape and read-only tensors are
safe to share across threads. Threads may build and differentiate graphs
at the same time when each thread's graph has leaf tensors of its own:
``backward`` writes the ``grad`` of every tensor it reaches, so no two
threads may reach one tensor. ``training`` steps a pair of bags as two
graphs over the same parameter arrays: on two threads, over two sets of
leaves and then adding the gradients, or on one over the same leaves.

Gradient ownership: a tensor's first gradient is ``0 + g``, which turns
-0.0 into +0.0, and later ones add in place. ``_accumulate`` copies g on
the first write, because g may be another tensor's gradient, a view of
one, or a broadcast, and the in-place adds would then write through to
it. A backward closure may hand over an array it has just allocated and
keeps no other reference to, such as a GEMM or einsum result
(``owned=True``): the first write then clears -0.0 in that array and
keeps it, so a gradient costs no copy. A gradient never shares memory
with another tensor's.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class MaskError(ValueError):
    """A mask leaves no valid entries (all-masked row, empty bag, ...)."""


class Tensor:
    """N-dimensional array plus an optional node in the computation graph.

    Leaf tensors created with requires_grad=True accumulate gradients in
    ``grad`` after ``backward``. Tensors produced by operations keep
    references to their parents and a closure that propagates gradients;
    a tensor with requires_grad=False never participates in the graph.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data, dtype=data.dtype)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g to t's gradient. ``owned`` hands g over: the caller has just
    allocated it and keeps no other reference, so a first write may keep
    it instead of copying it."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # 0 + g in one pass: the same cast, broadcast and -0.0 -> +0.0 as
        # zeros_like followed by +=; a copy unless g is handed over
        keep = owned and g.shape == t.data.shape and g.dtype == t.data.dtype
        t.grad = np.add(g, 0, out=g if keep else np.empty_like(t.data))
    else:
        t.grad += g


def _broadcast(a: Tensor, b):
    """The one broadcast rule of ``add``, ``sub`` and ``mul``. Returns b's
    array (a python scalar b in a's dtype), the op's parents, and the map
    of an output gradient, which has a's shape, to b's shape; the map is
    None for a scalar b.

    A tensor b must have a's shape, or one element and no more axes than a,
    or be a (1, D) row or a (D,) vector over a 2-D a. Any other pair raises
    ShapeError here, before a backward could fail on it.
    """
    if not isinstance(b, Tensor):
        return np.asarray(b, dtype=a.data.dtype), (a,), None
    sa, sb = a.data.shape, b.data.shape
    if sb == sa:
        return b.data, (a, b), lambda g: g
    if b.data.size == 1 and len(sb) <= len(sa):
        return b.data, (a, b), lambda g: g.sum().reshape(sb)
    if len(sa) == 2 and sb in ((1, sa[1]), (sa[1],)):
        return b.data, (a, b), lambda g: g.sum(axis=0, keepdims=len(sb) == 2)
    raise ShapeError(f"operand shapes {sa} and {sb} are not equal, "
                     "one-element, or row broadcastable")


# ---------------------------------------------------------------------------
# arithmetic


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y, as a broadcast multiply when the shared dimension is 1.

    An outer product through BLAS costs over three times the multiply at
    (512, 1) @ (1, 512). The values are equal; BLAS gives +0.0 where the
    multiply gives -0.0, and ``_accumulate`` turns -0.0 into +0.0, so a
    gradient gets the same bytes either way.
    """
    return x * y if x.shape[1] == 1 else x @ y


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product (p x q) @ (q x r)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes {a.data.shape} and {b.data.shape} do not chain")
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _product(g, b.data.T), owned=True)
        if b.requires_grad:
            _accumulate(b, _product(a.data.T, g), owned=True)

    return _result(out, (a, b), backward)


def add(a: Tensor, b) -> Tensor:
    bd, parents, reduce = _broadcast(a, b)

    def backward(g):
        _accumulate(a, g)
        if reduce is not None:
            _accumulate(b, reduce(g))

    return _result(a.data + bd, parents, backward)


def sub(a: Tensor, b) -> Tensor:
    bd, parents, reduce = _broadcast(a, b)

    def backward(g):
        _accumulate(a, g)
        if reduce is not None:
            _accumulate(b, -reduce(g))

    return _result(a.data - bd, parents, backward)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; b may be a tensor (``_broadcast``) or a python
    scalar."""
    bd, parents, reduce = _broadcast(a, b)

    def backward(g):
        _accumulate(a, g * bd)
        if reduce is not None:
            _accumulate(b, reduce(g * a.data))

    return _result(a.data * bd, parents, backward)


# ---------------------------------------------------------------------------
# activations and normalization


def relu(a: Tensor) -> Tensor:
    """max(0, x); subgradient at 0 is 0."""
    out = np.maximum(a.data, 0)

    def backward(g):
        _accumulate(a, g * (out > 0))

    return _result(out, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function of x, stable at either extreme."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    out = _sigmoid(a.data)

    def backward(g):
        _accumulate(a, g * out * (1.0 - out))

    return _result(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return _result(out, (a,), backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    out = np.clip(a.data, lo, hi)
    interior = (a.data > lo) & (a.data < hi)

    def backward(g):
        _accumulate(a, g * interior)

    return _result(out, (a,), backward)


def _masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; masked entries get exactly zero weight.

    Masking excludes entries from both the max shift and the normalizer,
    which is equivalent to -inf logits without non-finite arithmetic.
    """
    m = np.asarray(mask, dtype=bool)
    if m.shape != (x.shape[-1],):
        raise ShapeError(f"mask shape {m.shape} does not match last "
                         f"dimension of {x.shape}")
    if not m.any():
        raise MaskError("softmax mask excludes every entry")
    neg_inf = np.asarray(-np.inf, dtype=x.dtype)
    shifted = np.where(m, x, neg_inf)
    hi = shifted.max(axis=-1, keepdims=True)
    # exp(-inf) is exactly 0, so masked entries never overflow
    e = np.exp(np.where(m, x - hi, neg_inf))
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                eps: float = 1e-5) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of x standardized, times gain plus bias; with the
    standardized rows and the inverse standard deviations."""
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    var = (centered ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * gain + bias, xhat, inv_std


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization followed by an affine map."""
    if a.data.ndim != 2 or a.data.shape[1] < 2:
        raise ShapeError(f"layer_norm expects (rows, D >= 2), got {a.data.shape}")
    out, xhat, inv_std = _layer_norm(a.data, gain.data, bias.data, eps)

    def backward(g):
        _accumulate(gain, (g * xhat).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))
        gx = g * gain.data
        # d/dx of (x - mean)/sqrt(var + eps), means taken over each row
        term = gx - gx.mean(axis=1, keepdims=True) \
            - xhat * (gx * xhat).mean(axis=1, keepdims=True)
        _accumulate(a, term * inv_std)

    return _result(out, (a, gain, bias), backward)


# ---------------------------------------------------------------------------
# fused model ops


# Output grid rows per einsum in _filter. The bias and residual passes then
# run over a band still in a 2 MB L2 cache, not over the whole (g, g, D)
# grid of a 1000-instance D=512 bag.
_PEM_BAND_BYTES = 256 * 1024


def _windows(pad: np.ndarray) -> np.ndarray:
    """Read-only (r, c, 3, 3, D) view of the 3x3 neighbourhood of every cell
    of the (r, c, D) interior of a zero-ringed (r + 2, c + 2, D) grid."""
    r, c = pad.shape[0] - 2, pad.shape[1] - 2
    s0, s1, s2 = pad.strides
    return np.lib.stride_tricks.as_strided(
        pad, (r, c, 3, 3, pad.shape[2]), (s0, s1, s0, s1, s2), writeable=False)


def _filter(pad: np.ndarray, taps: np.ndarray, bias, residual: bool,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """taps (3, 3, D) over the (r, c, D) interior of a zero-ringed
    (r + 2, c + 2, D) grid, then bias, then the interior when residual,
    written into out (r, c, D) when given. Output rows lo..hi of a larger
    grid are the filter of its padded rows lo..hi + 2.

    One einsum per band of ``_PEM_BAND_BYTES`` of output rows: it starts
    each output at 0 and adds the nine taps in (dy, dx) order, the channel
    axis innermost, so the bytes do not depend on the band size. At D = 1
    numpy would sum a cell's taps in another order; the caller needs D >= 2.
    """
    r, c, d = pad.shape[0] - 2, pad.shape[1] - 2, pad.shape[2]
    if out is None:
        out = np.empty((r, c, d), dtype=pad.dtype)
    win = _windows(pad)
    band = max(1, _PEM_BAND_BYTES // (c * d * pad.itemsize))
    for lo in range(0, r, band):
        hi = min(lo + band, r)
        np.einsum("yxijc,ijc->yxc", win[lo:hi], taps, out=out[lo:hi])
        out[lo:hi] += bias
        if residual:
            out[lo:hi] += pad[lo + 1:hi + 1, 1:c + 1]
    return out


def _fill(pad: np.ndarray, rows: np.ndarray, real: Optional[np.ndarray],
          n: int, lo: int, hi: int, shift: Optional[np.ndarray] = None) -> None:
    """Grid rows lo..hi of a (g + 2, g + 2, D) zero-ringed pad: the n
    rows ``rows[real]`` (all of rows when real is None) in grid order, less
    shift and rectified when given, trailing cells and the ring's side cells
    zero. A shifted fill runs in bands of ``_PEM_BAND_BYTES``, so that each
    band is still in cache for its second pass; a plain copy is one pass."""
    g, d = pad.shape[1] - 2, pad.shape[2]
    pad[lo + 1:hi + 1, 0] = pad[lo + 1:hi + 1, g + 1] = 0
    step = g if shift is None else max(
        1, _PEM_BAND_BYTES // (g * d * pad.itemsize))
    for top in range(lo, hi, step):
        cells = pad[top + 1:min(top + step, hi) + 1, 1:g + 1]
        first = top * g
        take = slice(first, first + min(max(n - first, 0), len(cells) * g))
        src = rows[take] if real is None else rows[real[take]]
        full, part = divmod(len(src), g)
        pairs = [(cells[:full], src[:full * g].reshape(full, g, d))]
        if full < len(cells):
            pairs.append((cells[full, :part], src[full * g:]))
            cells[full, part:] = 0
            cells[full + 1:] = 0
        for dst, val in pairs:
            if shift is None:
                dst[...] = val
            else:
                np.maximum(np.subtract(val, shift, out=dst), 0, out=dst)


def _tap_gradient(gpad: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """(3, 3, D) sums of the interior cells of gpad times the nine full
    (g, g) windows of pad, one einsum over the window view: each sum runs
    from 0 over the cells in row-major order."""
    g = pad.shape[0] - 2
    return np.einsum("yxijc,yxc->ijc", _windows(pad), gpad[1:g + 1, 1:g + 1])


def _grid_side(n: int) -> int:
    """ceil(sqrt(n)): the side of the square grid that holds n rows."""
    g = math.isqrt(n)
    return g + 1 if g * g < n else g


def grid_positional(h: Tensor, mask: np.ndarray, conv_w: Tensor,
                    conv_b: Tensor, class_token: Tensor,
                    residual: bool) -> Tensor:
    """The class token, then a depthwise 3x3 filter over the unmasked rows
    of h laid out on a grid: the (n_rows + 1, D) attention tokens.

    The n unmasked rows of h (n_rows, D >= 2; ``ShapeError`` below two
    channels, see ``_filter``), in order, fill a g x g grid row-major
    with g = ceil(sqrt(n)) and zero trailing cells. Each channel is
    filtered by its kernel conv_w (D, 3, 3) with a ring of zero padding,
    then conv_b (D,) is added and, when residual, the grid itself. Row 0
    of the output is class_token (1, D); the rows 1 + i for the unmasked
    rows i of h take the first n cells in order, and those for masked rows
    are zero.

    Rows 1.. equal ``depthwise_conv2d_3x3`` of ``tests/oracles.py`` over
    the transposed grid, computed channels-last by ``_filter``: the rows are
    copied into the interior of a (g + 2, g + 2, D) buffer with a zero
    ring, and each band of output rows is one einsum over a strided view
    of the 3x3 windows. With no masked row the filter writes straight into
    the token buffer, which has room for all g x g cells after row 0.

    The input gradient is ``_filter`` of the zero-ringed output gradient
    with the taps flipped, ``taps[::-1, ::-1]``, no bias and the same
    residual: out[y, x] takes w[dy, dx] in[y+dy-1, x+dx-1], so in[y, x]
    gets w[dy, dx] g[y-dy+1, x-dx+1], which is w[2-dy, 2-dx]
    g[y+dy-1, x+dx-1]. The conv_w gradient sums the output gradient
    against the nine full (g, g) windows of the padded grid. No backward
    reads the output, so it may be overwritten in place.
    """
    x = h.data
    m = np.asarray(mask, dtype=bool)
    if x.ndim != 2 or x.shape[1] < 2 or m.shape != (x.shape[0],):
        raise ShapeError(f"grid_positional expects (n, D >= 2) rows and an "
                         f"(n,) mask, got {x.shape} and {m.shape}")
    n_rows, d = x.shape
    if (conv_w.data.shape != (d, 3, 3) or conv_b.data.shape != (d,)
            or class_token.data.shape != (1, d)):
        raise ShapeError(f"conv parameters {conv_w.data.shape} and "
                         f"{conv_b.data.shape} and class token "
                         f"{class_token.data.shape} do not match {d} "
                         f"channels")
    real = None if m.all() else np.flatnonzero(m)
    n = n_rows if real is None else len(real)
    if n == 0:
        raise MaskError("empty bag: no unmasked instances")
    g = _grid_side(n)

    def ringed() -> np.ndarray:
        """A (g + 2, g + 2, D) buffer whose top and bottom rows are zero."""
        pad = np.empty((g + 2, g + 2, d), dtype=x.dtype)
        pad[0] = pad[g + 1] = 0
        return pad

    def to_rows(cells: np.ndarray) -> np.ndarray:
        """The first n cells back on the unmasked rows, masked rows zero."""
        cells = cells.reshape(g * g, d)[:n]
        if real is None:
            return cells
        rows = np.zeros_like(x)
        rows[real] = cells
        return rows

    pad = ringed()
    _fill(pad, x, real, n, 0, g)
    taps = np.ascontiguousarray(conv_w.data.transpose(1, 2, 0))  # (3, 3, D)
    if real is None:
        tokens = np.empty((1 + g * g, d), dtype=x.dtype)
        _filter(pad, taps, conv_b.data, residual,
                out=tokens[1:].reshape(g, g, d))
        tokens = tokens[:n + 1]
    else:
        tokens = np.zeros((n_rows + 1, d), dtype=x.dtype)
        tokens[1 + real] = _filter(pad, taps, conv_b.data, residual
                                   ).reshape(g * g, d)[:n]
    tokens[0] = class_token.data[0]

    def backward(grad):
        _accumulate(class_token, grad[:1])
        gpad = ringed()
        _fill(gpad, grad[1:], real, n, 0, g)
        _accumulate(conv_b, gpad[1:g + 1, 1:g + 1].sum(axis=(0, 1)))
        if conv_w.requires_grad:
            _accumulate(conv_w, _tap_gradient(gpad, pad).transpose(2, 0, 1))
        if h.requires_grad:
            _accumulate(h, to_rows(_filter(gpad, taps[::-1, ::-1], 0,
                                           residual)))

    return _result(tokens, (h, conv_w, conv_b, class_token), backward)


def _attention(q: np.ndarray, x: np.ndarray, k_w: np.ndarray,
               k_b: np.ndarray, v_w: np.ndarray, v_b: np.ndarray,
               mask: np.ndarray, heads: int) -> Tuple[np.ndarray, ...]:
    """``query_attention``'s forward over arrays of checked shapes: the
    (1, D) output, the (heads, n) weights, the (heads, D) weighted token
    sums and the (D, heads) key-side query u."""
    d = x.shape[1]
    dh = d // heads
    qh = q.reshape(heads, dh)
    u = np.einsum("dhc,hc->dh", k_w.reshape(d, heads, dh), qh)  # (D, heads)
    logits = ((x @ u).T + np.einsum("hc,hc->h", k_b.reshape(heads, dh),
                                    qh)[:, None]) * (1.0 / math.sqrt(dh))
    attn = _masked_softmax(logits, mask)                # (heads, n)
    pooled = attn @ x                                    # (heads, D)
    out = np.einsum("hd,dhc->hc", pooled,
                    v_w.reshape(d, heads, dh)).reshape(1, d) + v_b
    return out, attn, pooled, u


def query_attention(q: Tensor, tokens: Tensor, k_w: Tensor, k_b: Tensor,
                    v_w: Tensor, v_b: Tensor, mask: np.ndarray,
                    heads: int) -> Tuple[Tensor, np.ndarray]:
    """Multi-head attention of one query row over the tokens.

    With K = tokens @ k_w + k_b and V = tokens @ v_w + v_b, head h of
    width dh = D / heads computes softmax(q_h K_h^T / sqrt(dh)) V_h with
    masked tokens at exactly zero weight, and the heads are joined along
    the columns. The projections of the n tokens are never formed: with a
    single query row, logits_h = tokens @ (k_w,h q_h^T) + k_b,h . q_h and
    out_h = (A_h @ tokens) @ v_w,h + v_b,h, because each row of weights A_h
    sums to 1.

    q: (1, D), tokens: (n, D), k_w and v_w: (D, D), k_b and v_b: (D,),
    mask: (n,). Returns the (1, D) output and the (heads, 1, n) weights,
    detached. A mask with no valid token raises MaskError.
    """
    x = tokens.data
    if x.ndim != 2:
        raise ShapeError(f"attention tokens must be (n, D), got {x.shape}")
    n, d = x.shape
    shapes = (q.data.shape, k_w.data.shape, k_b.data.shape, v_w.data.shape,
              v_b.data.shape)
    if shapes != ((1, d), (d, d), (d,), (d, d), (d,)):
        raise ShapeError(f"attention operand shapes {shapes} do not match "
                         f"D = {d}")
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"feature dim {d} is not divisible by {heads} heads")
    out, attn, pooled, u = _attention(q.data, x, k_w.data, k_b.data,
                                      v_w.data, v_b.data, mask, heads)
    dh = d // heads
    inv_sqrt = 1.0 / math.sqrt(dh)
    qh = q.data.reshape(heads, dh)
    kw = k_w.data.reshape(d, heads, dh)
    vw = v_w.data.reshape(d, heads, dh)
    kb = k_b.data.reshape(heads, dh)

    def backward(g):
        gh = g.reshape(heads, dh)
        _accumulate(v_b, g.reshape(d))
        if v_w.requires_grad:
            _accumulate(v_w, np.einsum("hd,hc->dhc", pooled, gh).reshape(d, d),
                        owned=True)
        g_pooled = np.einsum("hc,dhc->hd", gh, vw)          # (heads, D)
        g_attn = (x @ g_pooled.T).T                           # (heads, n)
        dot = (g_attn * attn).sum(axis=1, keepdims=True)
        g_logits = attn * (g_attn - dot) * inv_sqrt           # (heads, n)
        if tokens.requires_grad:
            # attn.T @ g_pooled + g_logits.T @ u.T as one GEMM
            _accumulate(tokens, np.concatenate([attn, g_logits]).T
                        @ np.concatenate([g_pooled, u.T]), owned=True)
        g_u = x.T @ g_logits.T                                # (D, heads)
        g_c = g_logits.sum(axis=1)[:, None]                   # (heads, 1)
        if k_w.requires_grad:
            _accumulate(k_w, np.einsum("dh,hc->dhc", g_u, qh).reshape(d, d),
                        owned=True)
        _accumulate(k_b, (g_c * qh).reshape(d))
        if q.requires_grad:
            g_q = np.einsum("dhc,dh->hc", kw, g_u) + g_c * kb
            _accumulate(q, g_q.reshape(1, d))

    result = _result(out, (q, tokens, k_w, k_b, v_w, v_b), backward)
    return result, attn[:, None, :].copy()


# ---------------------------------------------------------------------------
# reductions and norms


def masked_reduce(op: str, a: Tensor, mask: np.ndarray) -> Tensor:
    """Sum or mean over axis 0 counting only unmasked rows.

    For a 1-D input the result is a scalar; for (n, D) it is a (1, D) row.
    The mean divides by the number of unmasked rows, never the padded
    length.
    """
    if op not in ("sum", "mean"):
        raise ValueError(f"unknown reduction {op!r}")
    m = np.asarray(mask, dtype=bool)
    if m.shape != (a.data.shape[0],):
        raise ShapeError(f"mask shape {m.shape} does not match axis extent "
                         f"{a.data.shape[0]}")
    count = int(m.sum())
    if count == 0:
        raise MaskError("masked_reduce over zero unmasked entries")
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"masked_reduce expects 1-D or 2-D input, got {a.data.shape}")
    mf = m.astype(a.data.dtype)
    rows = mf if a.data.ndim == 1 else mf[:, None]
    total = (a.data * rows).sum(axis=0, keepdims=a.data.ndim == 2)
    out = np.asarray(total if op == "sum" else total / count, dtype=a.data.dtype)
    denom = 1.0 if op == "sum" else float(count)

    def backward(g):
        _accumulate(a, (g / denom) * rows)

    return _result(out, (a,), backward)


def l2_norm_rows(a: Tensor, squared: bool = False) -> Tensor:
    """Per-row Euclidean norm of an (n, D) tensor, optionally squared.

    The gradient of the unsquared norm at a zero row is defined as 0.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"l2_norm_rows expects (n, D), got {a.data.shape}")
    sq = (a.data ** 2).sum(axis=1)
    out = sq if squared else np.sqrt(sq)

    def backward(g):
        if squared:
            _accumulate(a, 2.0 * a.data * g[:, None])
        else:
            safe = np.where(out > 0, out, 1.0)
            _accumulate(a, a.data / safe[:, None] * np.where(out > 0, g, 0.0)[:, None])

    return _result(out, (a,), backward)


# ---------------------------------------------------------------------------
# structural ops


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows by index; gradients scatter-add back."""
    idx = np.asarray(indices, dtype=np.intp)
    out = a.data[idx]

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    return _result(out, (a,), backward)


def dropout(a: Tensor, rate: float, training: bool,
            rng: Optional[np.random.Generator] = None,
            inplace: bool = False) -> Tensor:
    """Inverted dropout: evaluation is the identity, no rescale needed.

    An element is dropped when a uniform 16-bit draw is below
    ``round(rate * 2**16)``, so the drop probability is within 2**-17 of
    ``rate``. Survivors are divided by ``1 - rate`` in the data's dtype.
    A 16-bit draw costs about half of a float64 one at (1025, 512).
    ``inplace`` overwrites a's data with the output, for an a whose
    backward does not read its own output.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    keep = (rng.integers(0, 1 << 16, a.data.shape, dtype=np.uint16)
            >= round(rate * (1 << 16)))
    survive = a.data.dtype.type(1.0 - rate)
    out = np.divide(a.data, survive, out=a.data if inplace else None)
    out *= keep

    def backward(g):
        gx = g / survive
        gx *= keep
        _accumulate(a, gx, owned=True)

    return _result(out, (a,), backward)


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def _topo_order(root: Tensor) -> list:
    """Parents-before-children ordering of the graph reachable from root."""
    order: list = []
    visited: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Populate grads of every requires_grad tensor reachable from root.

    A root whose grad is unset is seeded with ones, so a scalar root
    yields plain derivatives and a non-scalar root yields sum-of-outputs
    derivatives.
    """
    if not root.requires_grad:
        raise ValueError("backward from a tensor outside the computation graph")
    order = _topo_order(root)
    if root.grad is None:
        root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def grad_check(f: Callable[[], Tensor], params: Iterable[Tensor],
               h: float = 1e-5) -> float:
    """Compare analytic gradients of scalar f() against central differences.

    Returns the worst relative error max(|a - n|) / max(|a|, |n|, 1e-3)
    over every element of every parameter. Run with float64 parameters;
    f must be deterministic across calls.
    """
    params = list(params)
    for p in params:
        p.grad = None
    out = f()
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            fp = f().item()
            flat[i] = saved - h
            fm = f().item()
            flat[i] = saved
            numeric = (fp - fm) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-3)
            worst = max(worst, err)
    return worst
