"""Tensor op unit tests: hand values, closed forms, and finite differences.

Every derivative claim is checked against central finite differences
computed here in float64, independent of the backward implementations.
"""

import functools
import math
import sys
import threading
import time

import numpy as np
import pytest

from frmil import autodiff as ad
from frmil.autodiff import (
    MaskError,
    ShapeError,
    Tensor,
    add,
    backward,
    clamp,
    dropout,
    grad_check,
    l2_norm_rows,
    layer_norm,
    log,
    masked_reduce,
    matmul,
    mul,
    relu,
    sigmoid,
    sub,
    take_rows,
)
from frmil.bagdata import InstanceBag, make_bag
from frmil.model import bag_forward, init_params, score_bags
from oracles import (
    concat_cols,
    concat_rows,
    depthwise_conv2d_3x3,
    reshape,
    slice_cols,
    softmax_lastdim,
    transpose2d,
)


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f with respect to array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        fp = f()
        flat[i] = saved - h
        fm = f()
        flat[i] = saved
        gf[i] = (fp - fm) / (2 * h)
    return g


class TestMatmul:
    def test_identity(self):
        m = t64([[2.0, -1.0], [0.5, 3.0]])
        eye = t64(np.eye(2))
        np.testing.assert_array_equal(matmul(eye, m).data, m.data)

    def test_hand_value(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        b = t64([[1.0], [1.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True, dtype=np.float64)
        out = matmul(a, b)
        loss = masked_reduce("sum", reshape(out, (6,)), np.ones(6, bool))
        backward(loss)
        ga = numeric_grad(lambda: float((a.data @ b.data).sum()), a.data)
        gb = numeric_grad(lambda: float((a.data @ b.data).sum()), b.data)
        np.testing.assert_allclose(a.grad, ga, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(b.grad, gb, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_dim_one_gradients_have_blas_bytes(self, dtype):
        # the a gradient of (4, 6) @ (6, 1) and the b gradient of
        # (1, 6) @ (6, 5) are outer products, taken without BLAS
        rng = np.random.default_rng(4)
        for a_shape, b_shape in (((4, 6), (6, 1)), ((1, 6), (6, 5))):
            a = Tensor(rng.normal(size=a_shape), requires_grad=True, dtype=dtype)
            b = Tensor(rng.normal(size=b_shape), requires_grad=True, dtype=dtype)
            a.data.flat[:2] = (0.0, -0.0)
            b.data.flat[:2] = (-0.0, 0.0)
            g = rng.normal(size=(a_shape[0], b_shape[1])).astype(dtype)
            g.flat[:2] = (-0.0, 0.0)
            out = matmul(a, b)
            blas = ((a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))
            out._backward(g)       # first write
            expected = [np.add(f(g), 0, out=np.empty_like(t.data)) for t, f in blas]
            assert [t.grad.tobytes() for t, _ in blas] == [e.tobytes() for e in expected]
            out._backward(-g)      # +=
            for (t, f), e in zip(blas, expected):
                e += f(-g)
                assert t.grad.tobytes() == e.tobytes()
        # the multiply does give -0.0, which the accumulation must clear
        assert np.signbit(ad._product(a.data.T, g)).any()


class TestElementwise:
    def test_sub_self_is_zero(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(sub(x, x).data, np.zeros((2, 2)))

    def test_sub_row_broadcast(self):
        x = t64([[1.0, 2.0], [3.0, 1.0]])
        row = t64([[3.0, 1.0]])
        np.testing.assert_array_equal(sub(x, row).data, [[-2.0, 1.0], [0.0, 0.0]])

    def test_scale_identity(self):
        x = t64([[1.5, -2.5]])
        np.testing.assert_array_equal(mul(x, 1.0).data, x.data)

    def test_add_scalar(self):
        x = t64([1.0, 2.0])
        np.testing.assert_array_equal(add(x, 0.5).data, [1.5, 2.5])

    def test_non_broadcastable_shapes_raise(self):
        with pytest.raises(ShapeError):
            add(t64(np.zeros((3, 2))), t64(np.zeros((2, 3))))

    @pytest.mark.parametrize("op", [add, sub, mul])
    def test_one_element_operand_wider_than_a_raises(self, op):
        # () against (1, 1) would give a (1, 1) output, whose gradient
        # cannot be written into the () operand's grad
        a = Tensor(np.float64(2.0), requires_grad=True)
        with pytest.raises(ShapeError, match=r"\(\) and \(1, 1\)"):
            op(a, Tensor(np.ones((1, 1)), requires_grad=True))

    @pytest.mark.parametrize("op", [add, sub, mul])
    def test_one_element_operand_reduces_to_its_shape(self, op):
        a = Tensor(np.full((1, 1), 3.0), requires_grad=True)
        b = Tensor(np.float64(2.0), requires_grad=True)
        backward(op(a, b))
        assert a.grad.shape == (1, 1) and b.grad.shape == ()
        assert float(b.grad) == {add: 1.0, sub: -1.0, mul: 3.0}[op]

    def test_row_broadcast_gradient_sums_rows(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
        row = Tensor(rng.normal(size=(1, 3)), requires_grad=True, dtype=np.float64)
        out = mul(sub(x, row), sub(x, row))
        loss = masked_reduce("sum", reshape(out, (12,)), np.ones(12, bool))
        backward(loss)
        f = lambda: float(((x.data - row.data) ** 2).sum())
        np.testing.assert_allclose(row.grad, numeric_grad(f, row.data), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(x.grad, numeric_grad(f, x.data), rtol=1e-6, atol=1e-8)

    def test_first_gradient_write_copies_upstream(self):
        # add(x, x) writes g into x.grad, then adds g again: the first
        # write must not alias g, or the second would double g itself.
        # Grads start from zero, so a -0.0 in g accumulates to +0.0.
        g = np.random.default_rng(2).normal(size=(3, 4)).astype(np.float32)
        g[0, 0] = -0.0
        before = g.tobytes()
        x = Tensor(np.ones((3, 4), np.float32), requires_grad=True)
        add(x, x)._backward(g)
        assert x.grad.tobytes() == ((0.0 + g) + g).tobytes()
        assert not np.shares_memory(x.grad, g)
        assert g.tobytes() == before


class TestRelu:
    def test_nonnegative_unchanged(self):
        x = t64([[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(relu(x).data, x.data)

    def test_hand_value(self):
        x = t64([[-2.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(relu(x).data, [[0.0, 1.0], [0.0, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(5, 5)))
        once = relu(x).data
        np.testing.assert_array_equal(relu(relu(x)).data, once)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(3)
        assert (relu(t64(rng.normal(size=(20, 7)))).data >= 0).all()


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(t64([0.0])).item() == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-30, 30, size=100)
        s = sigmoid(t64(x)).data + sigmoid(t64(-x)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_extreme_negative_no_overflow(self):
        with np.errstate(over="raise"):
            out = sigmoid(t64([-1000.0])).item()
        assert out == 0.0

    def test_extreme_positive(self):
        with np.errstate(over="raise"):
            assert sigmoid(t64([500.0])).item() == pytest.approx(1.0)


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_lastdim(t64([[2.0, 2.0, 2.0, 2.0]]))
        np.testing.assert_allclose(out.data, 0.25)

    def test_forced_by_mask(self):
        out = softmax_lastdim(t64([[0.0, 0.0]]), mask=np.array([True, False]))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_closed_form_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()  # float64 closed form
        out = softmax_lastdim(Tensor(x.astype(np.float32))).data
        np.testing.assert_allclose(out, expected, atol=1e-7)

    def test_all_masked_raises(self):
        with pytest.raises(MaskError):
            softmax_lastdim(t64([[1.0, 2.0]]), mask=np.array([False, False]))

    def test_rows_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = t64(rng.normal(scale=5, size=(4, 9)))
            mask = rng.random(9) < 0.7
            if not mask.any():
                mask[0] = True
            out = softmax_lastdim(x, mask=mask).data
            assert ((out >= 0) & (out <= 1)).all()
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
            assert (out[:, ~mask] == 0).all()


class TestLayerNorm:
    def test_constant_row_zeroes(self):
        x = t64([[5.0, 5.0, 5.0, 5.0]])
        out = layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_row_statistics(self):
        rng = np.random.default_rng(6)
        x = t64(rng.normal(size=(6, 32)))
        out = layer_norm(x, t64(np.ones(32)), t64(np.zeros(32))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)


class TestDepthwiseConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 3, 4, 5))
        w = np.zeros((3, 3, 3))
        w[:, 1, 1] = 1.0
        out = depthwise_conv2d_3x3(t64(x), t64(w), t64(np.zeros(3)))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_zero_kernel(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2, 3, 3))
        out = depthwise_conv2d_3x3(t64(x), t64(np.zeros((2, 3, 3))), t64(np.zeros(2)))
        np.testing.assert_array_equal(out.data, np.zeros_like(x))

    def test_ramp_ones_kernel_matches_direct_sum(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        w = np.ones((1, 3, 3))
        b = np.zeros(1)
        out = depthwise_conv2d_3x3(t64(x), t64(w), t64(b)).data
        # each cell is the sum of its 3x3 neighbourhood inside the image
        np.testing.assert_array_equal(
            out, [[[[8, 15, 12], [21, 36, 27], [20, 33, 24]]]])

    def test_matches_naive_loop_on_random_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            B = int(rng.integers(1, 3))
            C = int(rng.integers(1, 9))
            H = int(rng.integers(1, 8))
            W = int(rng.integers(1, 8))
            x = rng.normal(size=(B, C, H, W))
            w = rng.normal(size=(C, 3, 3))
            b = rng.normal(size=C)
            fast = depthwise_conv2d_3x3(t64(x), t64(w), t64(b)).data
            xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            naive = np.empty_like(x)
            # the nine taps from 0 in (dy, dx) order, then the bias
            for bi, c, y, xx in np.ndindex(x.shape):
                acc = 0.0
                for dy in range(3):
                    for dx in range(3):
                        acc += w[c, dy, dx] * xp[bi, c, y + dy, xx + dx]
                naive[bi, c, y, xx] = acc + b[c]
            np.testing.assert_array_equal(fast, naive)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            depthwise_conv2d_3x3(t64(np.zeros((1, 4, 2, 2))),
                                 t64(np.zeros((3, 3, 3))), t64(np.zeros(3)))


class TestMaskedReduce:
    def test_full_mask_is_plain_mean(self):
        x = t64([1.0, 2.0, 3.0, 4.0])
        out = masked_reduce("mean", x, np.ones(4, bool))
        assert out.item() == pytest.approx(2.5)

    def test_masked_entries_ignored(self):
        x = t64([5.0, 999.0])
        out = masked_reduce("mean", x, np.array([True, False]))
        assert out.item() == 5.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            x = rng.normal(size=n)
            mask = rng.random(n) < 0.6
            if not mask.any():
                mask[0] = True
            total = sum(v for v, m in zip(x, mask) if m)
            count = sum(1 for m in mask if m)
            got = masked_reduce("mean", t64(x), mask).item()
            assert got == pytest.approx(total / count, abs=1e-9)

    def test_zero_count_raises(self):
        with pytest.raises(MaskError):
            masked_reduce("mean", t64([1.0]), np.array([False]))

    def test_matrix_row_mean(self):
        x = t64([[1.0, 2.0], [3.0, 4.0], [100.0, 100.0]])
        out = masked_reduce("mean", x, np.array([True, True, False]))
        np.testing.assert_array_equal(out.data, [[2.0, 3.0]])


class TestL2NormRows:
    def test_hand_values(self):
        x = t64([[3.0, 4.0]])
        assert l2_norm_rows(x).item() == 5.0
        assert l2_norm_rows(x, squared=True).item() == 25.0

    def test_zero_row(self):
        x = t64([[0.0, 0.0, 0.0]])
        assert l2_norm_rows(x).item() == 0.0
        assert l2_norm_rows(x, squared=True).item() == 0.0

    def test_zero_row_gradient_defined_as_zero(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True, dtype=np.float64)
        out = masked_reduce("sum", l2_norm_rows(x), np.ones(2, bool))
        backward(out)
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))


class TestStructuralOps:
    def test_reshape_row_major(self):
        x = t64(np.arange(9, dtype=np.float64).reshape(1, 9))
        out = reshape(x, (3, 3))
        np.testing.assert_array_equal(out.data, np.arange(9).reshape(3, 3))

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            reshape(t64(np.zeros((2, 3))), (4, 2))

    def test_concat_rows_and_cols(self):
        a = t64([[1.0, 2.0]])
        b = t64([[3.0, 4.0]])
        np.testing.assert_array_equal(concat_rows([a, b]).data, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(concat_cols([a, b]).data, [[1, 2, 3, 4]])

    def test_take_rows_scatter_gradient_accumulates(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(3, 2), requires_grad=True)
        out = take_rows(x, [0, 0, 2])
        loss = masked_reduce("sum", reshape(out, (6,)), np.ones(6, bool))
        backward(loss)
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_dropout_eval_identity(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        assert dropout(x, 0.2, training=False) is x

    def test_dropout_training_scales_survivors(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.ones((50, 50)), dtype=np.float64, requires_grad=True)
        out = dropout(x, 0.2, training=True, rng=rng)
        vals = np.unique(out.data)
        assert set(np.round(vals, 6)) <= {0.0, 1.25}
        # survival rate close to 1 - rate
        assert abs((out.data != 0).mean() - 0.8) < 0.03

    def test_dropout_same_seed_same_mask(self):
        x = Tensor(np.ones((40, 30), np.float32))
        masks = [dropout(x, 0.2, training=True,
                         rng=np.random.default_rng(seed)).data.tobytes()
                 for seed in (3, 3, 4)]
        assert masks[0] == masks[1] != masks[2]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_survivors_are_exactly_x_over_keep_rate(self, dtype):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(64, 48)), requires_grad=True, dtype=dtype)
        out = dropout(x, 0.3, training=True, rng=rng)
        kept = out.data != 0
        assert 0 < kept.mean() < 1
        assert out.data[kept].tobytes() == (x.data / (1 - 0.3))[kept].tobytes()
        out._backward(np.ones_like(x.data))
        np.testing.assert_array_equal(x.grad != 0, kept)

    def test_dropout_fraction_within_four_sd(self):
        rate, shape = 0.2, (1025, 512)
        out = dropout(Tensor(np.ones(shape, np.float32)), rate, training=True,
                      rng=np.random.default_rng(21))
        sd = math.sqrt(rate * (1 - rate) / out.data.size)
        assert abs((out.data == 0).mean() - rate) <= 4 * sd

    def test_dropout_threshold_at_half_is_32768(self):
        class Draws:
            """Hands dropout fixed 16-bit draws."""

            def integers(self, low, high, size, dtype):
                assert (low, high, dtype) == (0, 1 << 16, np.uint16)
                return np.array([[32767, 32768]], dtype).reshape(size)

        out = dropout(Tensor(np.ones((1, 2), np.float32)), 0.5, training=True,
                      rng=Draws())
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])


class TestReplayDeterminism:
    def test_same_graph_same_inputs_bitwise_identical(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        w = rng.normal(size=(4, 3)).astype(np.float32)

        def run():
            xt = Tensor(x)
            wt = Tensor(w, requires_grad=True)
            return softmax_lastdim(relu(matmul(xt, wt))).data.tobytes()

        assert run() == run()


class TestGradCheck:
    def test_all_ops_match_finite_differences(self):
        """Every differentiable op, randomized small shapes, 20+ seeds."""
        worst = 0.0
        for seed in range(22):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 6))
            x = Tensor(rng.normal(size=(n, d)) + 0.1, requires_grad=True,
                       dtype=np.float64)
            w = Tensor(rng.normal(size=(d, d)), requires_grad=True, dtype=np.float64)
            row = Tensor(rng.normal(size=(1, d)), requires_grad=True, dtype=np.float64)
            gain = Tensor(rng.normal(size=d) + 1.0, requires_grad=True, dtype=np.float64)
            bias = Tensor(rng.normal(size=d), requires_grad=True, dtype=np.float64)
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[0] = True

            def f():
                h = matmul(x, w)
                h = add(h, row)
                h = sub(h, mul(row, 0.5))
                h = mul(h, 1.5)
                h = relu(add(h, 0.05))  # keep clear of the kink
                h = layer_norm(h, gain, bias)
                h = sigmoid(h)
                att = softmax_lastdim(transpose2d(h))
                norms = l2_norm_rows(att, squared=(seed % 2 == 0))
                s1 = masked_reduce("mean", norms, np.ones(d, bool))
                s2 = masked_reduce("mean", l2_norm_rows(h), mask)
                return add(s1, s2)

            err = grad_check(f, [x, w, row, gain, bias], h=1e-5)
            worst = max(worst, err)
        assert worst <= 1e-4, f"worst relative error {worst:.2e}"

    def test_conv_and_gather_ops(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            C = int(rng.integers(1, 4))
            H = int(rng.integers(1, 4))
            W = int(rng.integers(1, 4))
            x = Tensor(rng.normal(size=(1, C, H, W)), requires_grad=True,
                       dtype=np.float64)
            w = Tensor(rng.normal(size=(C, 3, 3)), requires_grad=True, dtype=np.float64)
            b = Tensor(rng.normal(size=C), requires_grad=True, dtype=np.float64)

            def f():
                out = depthwise_conv2d_3x3(x, w, b)
                flat = reshape(out, (C, H * W))
                rows = take_rows(flat, [0] * min(2, C) + [C - 1])
                cols = slice_cols(rows, 0, H * W)
                total = masked_reduce("sum", l2_norm_rows(cols, squared=True),
                                      np.ones(cols.shape[0], bool))
                return total

            err = grad_check(f, [x, w, b], h=1e-5)
            assert err <= 1e-4, f"seed {seed}: {err:.2e}"

    def test_log_clamp_and_dropout_gradients(self):
        rng = np.random.default_rng(200)
        p = Tensor(rng.uniform(0.2, 0.8, size=(3, 3)), requires_grad=True,
                   dtype=np.float64)

        def f():
            c = clamp(p, 1e-7, 1 - 1e-7)
            dr = dropout(c, 0.3, training=True, rng=np.random.default_rng(42))
            return masked_reduce("sum", l2_norm_rows(mul(log(add(dr, 1.5)), -1.0)),
                                 np.ones(3, bool))

        assert grad_check(f, [p], h=1e-6) <= 1e-4

    def test_two_layer_toy_network(self):
        rng = np.random.default_rng(300)
        x = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
        w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True, dtype=np.float64)
        b1 = Tensor(np.zeros((1, 5)), requires_grad=True, dtype=np.float64)
        w2 = Tensor(rng.normal(size=(5, 1)), requires_grad=True, dtype=np.float64)
        b2 = Tensor(np.zeros((1, 1)), requires_grad=True, dtype=np.float64)

        def f():
            h = relu(add(matmul(x, w1), b1))
            out = sigmoid(add(matmul(h, w2), b2))
            return masked_reduce("mean", reshape(out, (4,)), np.ones(4, bool))

        assert grad_check(f, [w1, b1, w2, b2], h=1e-5) <= 1e-4


class TestBackward:
    def test_no_root_or_a_root_outside_the_graph_raises(self):
        with pytest.raises(TypeError):
            backward()
        with pytest.raises(ValueError, match="outside the computation graph"):
            backward(Tensor(np.ones(1)))


def two_threads(work, stop, delay=0.0):
    """A ``score_bags`` run: work(0) on the caller, work(1) on a second
    thread after ``delay`` seconds, the first failure re-raised after the
    join."""
    failures = []

    def helper():
        time.sleep(delay)
        try:
            work(1)
        except BaseException as exc:
            failures.append(exc)
            stop()

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        work(0)
    except BaseException as exc:
        failures.append(exc)
        stop()
    thread.join(timeout=30)
    assert not thread.is_alive()
    if failures:
        raise failures[0]


# the helper starts when the caller has long filled its half: a filter that
# did not wait for the other half would read its rows unfilled
late_helper = functools.partial(two_threads, delay=0.05)


# (rows, D): one row, square and non-square row counts, and D = 2, the
# fewest channels grid_positional takes
SHIFT_CASES = [(1, 3), (1, 2), (9, 4), (7, 4), (10, 2), (16, 2), (23, 5),
               (40, 2)]


def shift_case(rng, n_rows, d, masked):
    """A float32 bag (scattered padding when masked and n_rows > 1) and
    one-head model parameters with a random conv bias."""
    mask = np.ones(n_rows, bool)
    if masked and n_rows > 1:
        mask[rng.choice(n_rows, size=max(1, n_rows // 3), replace=False)] = False
    bag = InstanceBag("b", 1, rng.normal(size=(n_rows, d)).astype(np.float32),
                      mask)
    params = init_params(d, 1, seed=int(rng.integers(1000)))
    params.conv_b.data[...] = rng.normal(size=d)
    return bag, params


def pooled_tokens(monkeypatch):
    """The bytes of the tokens of every attention forward from here on."""
    seen = []
    real = ad._attention

    def attention(q, x, *args):
        seen.append(x.tobytes())
        return real(q, x, *args)

    monkeypatch.setattr(ad, "_attention", attention)
    return seen


def poison_empty(monkeypatch):
    """From here on ``np.empty`` hands out float arrays filled with NaN, so
    a cell read before anything wrote it shows in the bytes."""
    real = np.empty

    def empty(shape, dtype=float, **kwargs):
        out = real(shape, dtype, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", empty)


def assert_scored_as_forward(bag, params, residual, run, seen):
    """``score_bags([bag], ..., run)`` pools the tokens of ``bag_forward``
    and gives its probability, byte for byte."""
    seen.clear()
    expect = bag_forward(bag, params, pem_residual=residual).bag_prob.item()
    prob = score_bags([bag], params, residual, run)[0]
    assert len(seen) == 2 and seen[1] == seen[0], bag.features.shape
    assert prob.hex() == expect.hex(), bag.features.shape


class TestTokens:
    """``_tokens``, the one grid builder of ``grid_positional`` and
    ``score_bags``, against the naive convolution of ``tests/oracles.py``,
    exactly in float64."""

    @pytest.mark.parametrize("run", [None, two_threads, late_helper])
    @pytest.mark.parametrize("residual", [False, True])
    def test_every_bag_matches_the_conv_oracle(self, monkeypatch, run,
                                               residual):
        # grid sides 1, 2, 3, 4 (17 rows, 6 masked) and 7, in one chunk
        # and each alone; every bag but the 5-row one is shifted and
        # rectified as score_bags re-calibrates
        rng = np.random.default_rng(70 + residual)
        d = 4
        w, bias, token = (rng.normal(size=s) for s in ((d, 3, 3), (d,),
                                                        (1, d)))
        rows, reals, shifts, expect = [], [], [], []
        for n_rows in (1, 2, 5, 17, 40):
            h = rng.normal(size=(n_rows, d))
            mask = np.ones(n_rows, bool)
            if n_rows == 17:
                mask[rng.choice(n_rows, size=6, replace=False)] = False
            shift = None if n_rows == 5 else h[rng.integers(n_rows)]
            x = h[mask] if shift is None else np.maximum(h[mask] - shift, 0)
            n = len(x)
            g = math.isqrt(n - 1) + 1
            grid = np.vstack([x, np.zeros((g * g - n, d))]).T.reshape(
                1, d, g, g)
            conv = depthwise_conv2d_3x3(t64(grid), t64(w), t64(bias)).data
            if residual:
                conv = conv + grid
            tokens = np.zeros((n_rows + 1, d))
            tokens[0] = token[0]
            tokens[1:][mask] = conv.reshape(d, g * g).T[:n]
            rows.append(h)
            reals.append(None if mask.all() else np.flatnonzero(mask))
            shifts.append(shift)
            expect.append(tokens)
        taps = np.ascontiguousarray(w.transpose(1, 2, 0))
        poison_empty(monkeypatch)
        for bags in [range(5)] + [[i] for i in range(5)]:
            _, tokens = ad._tokens([rows[i] for i in bags],
                                   [reals[i] for i in bags],
                                   [shifts[i] for i in bags], taps, bias,
                                   token, residual, run)
            assert len(tokens) == len(bags)
            for i, got in zip(bags, tokens):
                np.testing.assert_array_equal(got, expect[i], err_msg=str(
                    (list(bags), len(rows[i]))))


class TestGridPositionalShift:
    """Re-calibrating straight into the grid (``_fill`` with a shift) as
    ``model.score_bags`` does, on one thread or with the fill and filter
    split over two: the tokens it pools have the bytes of
    ``grid_positional(recalibrate(h, h_q, mask), ...)`` in ``bag_forward``."""

    @pytest.mark.parametrize("run", [None, two_threads])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("residual", [False, True])
    def test_tokens_equal_recalibrate_then_grid(self, monkeypatch, run,
                                                masked, residual):
        rng = np.random.default_rng(60 + 2 * masked + residual)
        poison_empty(monkeypatch)
        seen = pooled_tokens(monkeypatch)
        for n_rows, d in SHIFT_CASES:
            bag, params = shift_case(rng, n_rows, d, masked)
            assert_scored_as_forward(bag, params, residual, run, seen)

    @pytest.mark.parametrize("band_bytes", [1, 100])
    def test_banded_fill_gives_the_same_tokens(self, monkeypatch, band_bytes):
        # bands of one or a few grid rows, on one thread and on two, the
        # threads switching every microsecond
        monkeypatch.setattr(ad, "_PEM_BAND_BYTES", band_bytes)
        rng = np.random.default_rng(90 + band_bytes)
        poison_empty(monkeypatch)
        seen = pooled_tokens(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k, (n_rows, d) in enumerate(SHIFT_CASES):
                bag, params = shift_case(rng, n_rows, d, k % 2 == 1)
                for run in (None, two_threads, late_helper):
                    assert_scored_as_forward(bag, params, True, run, seen)
        finally:
            sys.setswitchinterval(interval)

    def test_failing_half_is_raised_without_a_hang(self, monkeypatch):
        # the helper's fill fails before the barrier: the caller's wait is
        # broken, not left waiting, and the helper's error comes out
        bag = make_bag("b", 1, np.ones((16, 2), np.float32))
        params = init_params(2, 1, seed=0)
        caller = threading.current_thread()
        real = np.maximum

        def maximum(*args, **kwargs):
            if threading.current_thread() is not caller:
                raise FloatingPointError("helper half")
            return real(*args, **kwargs)

        monkeypatch.setattr(ad.np, "maximum", maximum)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="helper half"):
            score_bags([bag], params, run=two_threads)
        assert threading.active_count() == threads
