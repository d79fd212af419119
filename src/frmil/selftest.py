"""Built-in verification of the model path: finite-difference gradient
checks of every op the model and its loss run, plus the fused positional
encoder against a naive convolution loop, its re-calibrating fill against
``recalibrate`` then the encoder, and the sigmoid at extreme inputs. All
gradient checks run in float64 with h = 1e-5 against a 1e-4 relative-error
budget. The test suite checks everything else; the general ops no product
path runs (``reshape``, concat, transpose, softmax, the plain depthwise
convolution) and their gradient checks are in ``tests/oracles.py``."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .bagdata import make_bag
from .model import bag_forward, init_params, recalibrate
from .objectives import LossWeights, total_loss

GRAD_TOL = 1e-4
STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return f"{status} {self.name:<38s} max err {self.max_err:.3e} (tol {self.tol:.0e})"


def _t(rng, shape, shift=0.0):
    return Tensor(rng.normal(size=shape) + shift, requires_grad=True,
                  dtype=np.float64)


def _dims(rng):
    return int(rng.integers(2, 6)), int(rng.integers(2, 6))


def _scalarize(x: Tensor) -> Tensor:
    """The sum of squares of a 2-D x."""
    return ad.masked_reduce("sum", ad.l2_norm_rows(x, squared=True),
                            np.ones(x.data.shape[0], bool))


def _check(name: str, builder: Callable[[np.random.Generator], tuple],
           seeds=range(4)) -> CheckResult:
    """builder returns (f, params); worst error over the seeds is reported."""
    worst = 0.0
    for seed in seeds:
        f, params = builder(np.random.default_rng(seed))
        worst = max(worst, grad_check(f, params, h=STEP))
    return CheckResult(name, worst, GRAD_TOL)


def gradient_checks() -> List[CheckResult]:
    """Per-operation finite-difference suite."""
    results = []

    def b_matmul(rng):
        n, d = _dims(rng)
        a, b = _t(rng, (n, d)), _t(rng, (d, n))
        return lambda: _scalarize(ad.matmul(a, b)), [a, b]
    results.append(_check("matmul", b_matmul))

    def b_elementwise(rng):
        n, d = _dims(rng)
        a, b, row = _t(rng, (n, d)), _t(rng, (n, d)), _t(rng, (1, d))
        def f():
            out = ad.mul(ad.add(a, row), ad.sub(b, 0.25))
            return _scalarize(ad.mul(out, 1.7))
        return f, [a, b, row]
    results.append(_check("elementwise add/sub/mul", b_elementwise))

    def b_relu(rng):
        n, d = _dims(rng)
        a = _t(rng, (n, d), shift=0.3)  # stay clear of the kink
        return lambda: _scalarize(ad.relu(a)), [a]
    results.append(_check("relu", b_relu))

    def b_sigmoid(rng):
        n, d = _dims(rng)
        a = _t(rng, (n, d))
        return lambda: _scalarize(ad.sigmoid(a)), [a]
    results.append(_check("sigmoid", b_sigmoid))

    def b_log_clamp(rng):
        n, d = _dims(rng)
        a = Tensor(rng.uniform(0.3, 0.7, size=(n, d)), requires_grad=True,
                   dtype=np.float64)
        return lambda: _scalarize(ad.log(ad.clamp(a, 1e-7, 1 - 1e-7))), [a]
    results.append(_check("log/clamp", b_log_clamp))

    def b_layer_norm(rng):
        n, d = _dims(rng)
        a = _t(rng, (n, d + 1))
        gain = _t(rng, (d + 1,), shift=1.0)
        bias = _t(rng, (d + 1,))
        return lambda: _scalarize(ad.layer_norm(a, gain, bias)), [a, gain, bias]
    results.append(_check("layer_norm", b_layer_norm))

    def b_grid_positional(rng):
        n, d = _dims(rng)
        n_rows = n + int(rng.integers(0, 3))  # trailing and scattered padding
        mask = np.zeros(n_rows, bool)
        mask[rng.choice(n_rows, size=n, replace=False)] = True
        a = _t(rng, (n_rows, d))
        w = _t(rng, (d, 3, 3))
        b = _t(rng, (d,))
        residual = bool(rng.integers(0, 2))
        token = _t(rng, (1, d))
        return (lambda: _scalarize(ad.grid_positional(a, mask, w, b, token,
                                                      residual)),
                [a, w, b, token])
    results.append(_check("grid_positional (masked)", b_grid_positional))

    def b_grid_shifted(rng):
        n, d = _dims(rng)
        mask = rng.random(n) < 0.7
        mask[0] = True
        a, shift = _t(rng, (n, d)), _t(rng, (1, d), shift=-0.5)
        w, b, token = _t(rng, (d, 3, 3)), _t(rng, (d,)), _t(rng, (1, d))
        residual = bool(rng.integers(0, 2))
        return (lambda: _scalarize(ad.grid_positional(a, mask, w, b, token,
                                                      residual, h_q=shift)),
                [a, shift, w, b, token])
    results.append(_check("grid_positional (shifted, masked)",
                          b_grid_shifted))

    def b_query_attention(rng):
        heads = int(rng.integers(1, 4))
        d = heads * int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        mask = rng.random(n) < 0.7
        mask[0] = True
        q, tokens = _t(rng, (1, d)), _t(rng, (n, d))
        k_w, v_w = _t(rng, (d, d)), _t(rng, (d, d))
        k_b, v_b = _t(rng, (d,)), _t(rng, (d,))
        def f():
            out, _ = ad.query_attention(q, tokens, k_w, k_b, v_w, v_b,
                                        mask, heads)
            return _scalarize(out)
        return f, [q, tokens, k_w, k_b, v_w, v_b]
    results.append(_check("query_attention (masked)", b_query_attention))

    def b_masked_reduce(rng):
        n, d = _dims(rng)
        a = _t(rng, (n, d))
        mask = rng.random(n) < 0.6
        mask[0] = True
        def f():
            s = ad.masked_reduce("mean", a, mask)
            v = ad.masked_reduce("sum", ad.l2_norm_rows(a, squared=True), mask)
            return ad.add(_scalarize(s), v)
        return f, [a]
    results.append(_check("masked_reduce sum/mean", b_masked_reduce))

    def b_norms(rng):
        n, d = _dims(rng)
        a = _t(rng, (n, d), shift=0.5)
        def f():
            u = ad.masked_reduce("sum", ad.l2_norm_rows(a), np.ones(n, bool))
            s = ad.masked_reduce("sum", ad.l2_norm_rows(a, squared=True),
                                 np.ones(n, bool))
            return ad.add(u, s)
        return f, [a]
    results.append(_check("l2_norm_rows", b_norms))

    def b_structural(rng):
        n, d = _dims(rng)
        a = _t(rng, (n, d))
        idx = rng.integers(0, n, size=n + 1)
        return lambda: _scalarize(ad.take_rows(a, idx)), [a]
    results.append(_check("take_rows", b_structural))

    def b_dropout(rng):
        n, d = _dims(rng)
        a = _t(rng, (n, d))
        fixed = int(rng.integers(0, 1000))
        def f():
            out = ad.dropout(a, 0.3, training=True,
                             rng=np.random.default_rng(fixed))
            return _scalarize(out)
        return f, [a]
    results.append(_check("dropout (training)", b_dropout))

    def b_total_loss(rng):
        params = init_params(8, 2, seed=int(rng.integers(0, 1000)),
                             dtype=np.float64)
        pos = make_bag("p", 1, rng.normal(size=(int(rng.integers(3, 7)), 8)))
        neg = make_bag("n", 0, rng.normal(size=(int(rng.integers(2, 7)), 8)))
        weights = LossWeights(0.33, 0.33, 0.33, tau=2.0)
        def f():
            tp = bag_forward(pos, params)
            tn = bag_forward(neg, params)
            return total_loss(tp, tn, (1, 0), weights)[0]
        return f, list(params.named().values())
    results.append(_check("total_loss end-to-end (D=8, k=2)", b_total_loss,
                          seeds=range(2)))
    return results


def _naive_conv(x, w, b):
    """Depthwise 3x3 convolution of (B, C, H, W) as a direct 9-term loop:
    the taps from 0 in (dy, dx) order, then the bias."""
    B, C, H, W = x.shape
    out = np.zeros_like(x)
    for bi in range(B):
        for c in range(C):
            for y in range(H):
                for xx in range(W):
                    acc = out.dtype.type(0)
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            yy, xc = y + dy, xx + dx
                            if 0 <= yy < H and 0 <= xc < W:
                                acc += w[c, dy + 1, dx + 1] * x[bi, c, yy, xc]
                    out[bi, c, y, xx] = acc + b[c]
    return out


def oracle_checks() -> List[CheckResult]:
    """The fused positional encoder against a naive loop and its shifted fill
    against the two-step path; sigmoid stability."""
    results = []

    rng = np.random.default_rng(4)
    worst = 0.0
    for k in range(60):  # n 1-29, D 2-5, square and not, both residuals
        n, d = int(rng.integers(1, 30)), int(rng.integers(2, 6))
        x, w, b = (rng.normal(size=s) for s in ((n, d), (d, 3, 3), (d,)))
        fast = ad.grid_positional(Tensor(x), np.ones(n, bool), Tensor(w),
                                  Tensor(b), Tensor(np.zeros((1, d))),
                                  residual=k % 2 == 1).data[1:]
        g = math.isqrt(n - 1) + 1
        grid = np.vstack([x, np.zeros((g * g - n, d))]).T.reshape(1, d, g, g)
        naive = (_naive_conv(grid, w, b) + grid * (k % 2)).reshape(d, g * g)
        worst = max(worst, float(np.abs(fast - naive.T[:n]).max()))
    results.append(CheckResult("grid_positional vs naive conv (exact)",
                               worst, 0.0))

    differ = 0
    for k in range(40):  # count the cases whose bytes differ
        n, d = int(rng.integers(1, 30)), int(rng.integers(2, 6))
        x = rng.normal(size=(n, d)).astype(np.float32)
        mask = rng.random(n) < 0.8 if k % 2 else np.ones(n, bool)
        mask[-1] = True
        conv = [Tensor(rng.normal(size=s).astype(np.float32))
                for s in ((d, 3, 3), (d,), (1, d))]
        h, h_q = Tensor(x), Tensor(x[[int(np.flatnonzero(mask)[0])]])
        fused = ad.grid_positional(h, mask, *conv, k % 4 < 2, h_q=h_q)
        steps = ad.grid_positional(recalibrate(h, h_q, mask), mask, *conv,
                                   k % 4 < 2)
        differ += fused.data.tobytes() != steps.data.tobytes()
    results.append(CheckResult("grid_positional shifted fill (bytes)",
                               differ, 0.0))

    with np.errstate(over="raise"):
        lo = ad.sigmoid(Tensor(np.array([-1000.0]))).item()
        hi = ad.sigmoid(Tensor(np.array([500.0]))).item()
    results.append(CheckResult("sigmoid extreme-input stability",
                               abs(lo - 0.0) + abs(hi - 1.0), 1e-12))
    return results


def run_selftest(printer=print) -> bool:
    """Run both suites; one line per check; True iff everything passed."""
    t0 = time.time()
    results = gradient_checks() + oracle_checks()
    ok = True
    for res in results:
        printer(res.line())
        ok = ok and res.passed
    printer(f"{'PASS' if ok else 'FAIL'}: {sum(r.passed for r in results)}"
            f"/{len(results)} checks in {time.time() - t0:.1f}s")
    return ok
