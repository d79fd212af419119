"""Model forward-pass contracts: selection, recalibration, positional
encoding, attention pooling, comparators, and the masking/permutation
invariants."""

import math

import numpy as np
import pytest

from frmil import autodiff as ad
from frmil.autodiff import MaskError, ShapeError, Tensor, backward
from frmil.bagdata import make_bag
from frmil.model import (
    COMPARATOR_KINDS,
    bag_forward,
    comparator_forward,
    init_comparator,
    init_params,
    param_shapes,
    pem_forward,
    pmsa_forward,
    recalibrate,
    select_max_instance,
)
from frmil.objectives import LossWeights, total_loss
from oracles import (
    depthwise_conv2d_3x3,
    pad_to,
    pem_composite,
    pmsa_composite,
    reshape,
)


def random_bag(rng, n=12, dim=8, label=1):
    return make_bag("b0", label, rng.normal(size=(n, dim)).astype(np.float32))


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        a = init_params(16, 4, seed=3)
        b = init_params(16, 4, seed=3)
        for name, t in a.named().items():
            assert t.data.tobytes() == b.named()[name].data.tobytes()

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            init_params(10, 3, seed=0)

    def test_one_channel_rejected(self):
        with pytest.raises(ShapeError, match="dim 1 is below the model's "
                                             "floor of 2 channels"):
            init_params(1, 1, seed=0)

    def test_biases_zero_gain_one(self):
        p = init_params(8, 2, seed=1)
        for name in ("scorer_b", "conv_b", "q_b", "k_b", "v_b", "o_b",
                     "ln_bias", "clf_b"):
            assert (p.named()[name].data == 0).all(), name
        assert (p.ln_gain.data == 1).all()

    @pytest.mark.parametrize("dim, heads", [(2, 1), (6, 3), (8, 2), (64, 8)])
    def test_param_shapes_is_the_layout(self, dim, heads):
        named = init_params(dim, heads, seed=0).named()
        assert [(k, t.data.shape) for k, t in named.items()] \
            == list(param_shapes(dim).items())

    def test_weights_drawn_in_table_order(self):
        # one generator, drawn in the order scorer_w, conv_w, class_token,
        # q/k/v/o_w, clf_w, as before the table existed
        dim, rng = 8, np.random.default_rng(4)

        def uniform(shape, fan_in):
            bound = 1.0 / math.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape).astype(np.float32)
        want = {"scorer_w": uniform((dim, 1), dim),
                "conv_w": uniform((dim, 3, 3), 9),
                "class_token": rng.standard_normal(size=(1, dim)).astype(np.float32)}
        for name in ("q_w", "k_w", "v_w", "o_w"):
            want[name] = uniform((dim, dim), dim)
        want["clf_w"] = uniform((dim, 1), dim)
        got = init_params(dim, 2, seed=4).named()
        for name, data in want.items():
            assert got[name].data.tobytes() == data.tobytes(), name

    def test_class_token_standard_normal(self):
        # statistical oracle: over 100 seeds the per-seed sample mean of
        # 512 entries stays within 3/sqrt(512) nearly always, and the
        # grand mean is far inside that bound
        bound = 3.0 / math.sqrt(512)
        means = [float(init_params(512, 8, seed=s).class_token.data.mean())
                 for s in range(100)]
        assert abs(np.mean(means)) < bound
        assert sum(abs(m) <= bound for m in means) >= 97
        stds = [float(init_params(512, 8, seed=s).class_token.data.std())
                for s in range(20)]
        assert abs(np.mean(stds) - 1.0) < 0.05


class TestSelectMaxInstance:
    def test_single_instance(self):
        rng = np.random.default_rng(0)
        params = init_params(6, 2, seed=0)
        h = Tensor(rng.normal(size=(1, 6)).astype(np.float32))
        scores, idx, h_q, a_max = select_max_instance(h, np.array([True]), params)
        assert idx == 0
        np.testing.assert_array_equal(h_q.data, h.data)
        assert 0.0 < a_max.item() < 1.0

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(1)
        params = init_params(6, 2, seed=2)
        feats = rng.normal(size=(9, 6)).astype(np.float32)
        h = Tensor(feats)
        _, idx, h_q, a_max = select_max_instance(h, np.ones(9, bool), params)
        perm = rng.permutation(9)
        _, idx_p, h_q_p, a_max_p = select_max_instance(
            Tensor(feats[perm]), np.ones(9, bool), params)
        assert perm[idx_p] == idx
        np.testing.assert_array_equal(h_q_p.data, h_q.data)
        assert a_max_p.item() == a_max.item()

    def test_zero_scorer_ties_to_lowest_index(self):
        params = init_params(4, 2, seed=0)
        params.scorer_w.data[:] = 0
        params.scorer_b.data[:] = 0
        h = Tensor(np.random.default_rng(2).normal(size=(5, 4)).astype(np.float32))
        scores, idx, _, a_max = select_max_instance(h, np.ones(5, bool), params)
        np.testing.assert_allclose(scores, 0.5)
        assert idx == 0
        assert a_max.item() == 0.5

    def test_masked_rows_cannot_win(self):
        params = init_params(4, 2, seed=1)
        h = Tensor(np.vstack([np.zeros((2, 4)), np.full((1, 4), 50.0)])
                   .astype(np.float32))
        mask = np.array([True, True, False])
        _, idx, _, _ = select_max_instance(h, mask, params)
        assert idx in (0, 1)

    def test_empty_bag_raises(self):
        params = init_params(4, 2, seed=1)
        with pytest.raises(MaskError):
            select_max_instance(Tensor(np.zeros((2, 4))), np.zeros(2, bool), params)


class TestRecalibrate:
    def test_critical_row_becomes_zero(self):
        rng = np.random.default_rng(3)
        h = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
        h_q = ad.take_rows(h, [2])
        out = recalibrate(h, h_q, np.ones(5, bool))
        np.testing.assert_array_equal(out.data[2], np.zeros(4))

    def test_hand_value(self):
        h = Tensor(np.array([[1.0, 2.0], [3.0, 1.0]], dtype=np.float32))
        h_q = Tensor(np.array([[3.0, 1.0]], dtype=np.float32))
        out = recalibrate(h, h_q, np.ones(2, bool))
        np.testing.assert_array_equal(out.data, [[0.0, 1.0], [0.0, 0.0]])

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        h = Tensor(rng.normal(size=(8, 5)).astype(np.float32))
        out = recalibrate(h, ad.take_rows(h, [0]), np.ones(8, bool))
        assert (out.data >= 0).all()

    def test_masked_rows_forced_zero(self):
        rng = np.random.default_rng(5)
        h = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
        mask = np.array([True, True, False, False])
        out = recalibrate(h, ad.take_rows(h, [0]), mask)
        np.testing.assert_array_equal(out.data[2:], np.zeros((2, 3)))


class TestPemForward:
    def test_perfect_square_no_padding(self):
        rng = np.random.default_rng(6)
        params = init_params(4, 2, seed=0)
        h = Tensor(rng.normal(size=(9, 4)).astype(np.float32))
        tokens = pem_forward(h, np.ones(9, bool), params)
        assert tokens.shape == (10, 4)

    def test_grid_side_is_ceil_sqrt(self):
        # n=5 -> 3x3 grid with 4 zero pad rows, discarded after restore
        rng = np.random.default_rng(7)
        params = init_params(4, 2, seed=1)
        params.conv_w.data[:] = 0
        params.conv_b.data[:] = 0
        h = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
        tokens = pem_forward(h, np.ones(5, bool), params, residual=True)
        assert tokens.shape == (6, 4)
        np.testing.assert_allclose(tokens.data[1:], h.data, atol=1e-7)

    def test_zero_kernel_residual_identity(self):
        rng = np.random.default_rng(8)
        params = init_params(6, 2, seed=2)
        params.conv_w.data[:] = 0
        params.conv_b.data[:] = 0
        h = Tensor(rng.normal(size=(7, 6)).astype(np.float32))
        tokens = pem_forward(h, np.ones(7, bool), params, residual=True)
        np.testing.assert_array_equal(tokens.data[0], params.class_token.data[0])
        np.testing.assert_array_equal(tokens.data[1:], h.data)

    def test_grid_layout_row_major(self):
        # with an identity kernel and no residual, output equals input, so
        # use asymmetric kernels to verify neighbours come from the grid
        params = init_params(2, 1, seed=0)
        params.conv_w.data[:] = 0
        params.conv_w.data[0, 1, 2] = 1.0  # picks the right-hand neighbour
        params.conv_w.data[1, 0, 1] = 1.0  # picks the neighbour above
        params.conv_b.data[:] = 0
        cells = np.arange(9, dtype=np.float32)
        h = Tensor(np.stack([cells, cells + 100], axis=1))
        tokens = pem_forward(h, np.ones(9, bool), params, residual=False)
        # rows 0..8 on a 3x3 grid: the right neighbour of cell i is i+1 and
        # the one above is i-3, unless i is on that edge (zero padding)
        np.testing.assert_allclose(tokens.data[1:, 0],
                                   [1, 2, 0, 4, 5, 0, 7, 8, 0], atol=1e-7)
        np.testing.assert_allclose(tokens.data[1:, 1],
                                   [0, 0, 0, 100, 101, 102, 103, 104, 105],
                                   atol=1e-7)


class TestPmsaForward:
    def test_single_token_attention_is_one(self):
        rng = np.random.default_rng(9)
        params = init_params(4, 2, seed=3)
        h_q = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
        tokens = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
        z, attn = pmsa_forward(h_q, tokens, np.array([True]), params)
        np.testing.assert_array_equal(attn, np.ones((2, 1, 1)))

    def test_identical_tokens_uniform_attention(self):
        rng = np.random.default_rng(10)
        params = init_params(6, 3, seed=4)
        h_q = Tensor(rng.normal(size=(1, 6)).astype(np.float32))
        one = rng.normal(size=(1, 6)).astype(np.float32)
        tokens = Tensor(np.repeat(one, 5, axis=0))
        _, attn = pmsa_forward(h_q, tokens, np.ones(5, bool), params)
        np.testing.assert_allclose(attn, 0.2, atol=1e-6)

    def test_output_shape(self):
        rng = np.random.default_rng(11)
        params = init_params(64, 8, seed=5)
        h_q = Tensor(rng.normal(size=(1, 64)).astype(np.float32))
        tokens = Tensor(rng.normal(size=(38, 64)).astype(np.float32))
        z, attn = pmsa_forward(h_q, tokens, np.ones(38, bool), params)
        assert z.shape == (1, 64)
        assert attn.shape == (8, 1, 38)

    def test_attention_rows_normalized(self):
        rng = np.random.default_rng(12)
        params = init_params(8, 4, seed=6)
        h_q = Tensor(rng.normal(size=(1, 8)).astype(np.float32))
        tokens = Tensor(rng.normal(size=(11, 8)).astype(np.float32))
        mask = np.ones(11, bool)
        mask[5:8] = False
        _, attn = pmsa_forward(h_q, tokens, mask, params)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
        assert (attn[:, :, 5:8] == 0).all()


def _float64_params(rng, dim, heads, seed):
    """Parameters in float64 with non-zero biases, so every term counts."""
    params = init_params(dim, heads, seed=seed, dtype=np.float64)
    for t in (params.conv_b, params.q_b, params.k_b, params.v_b, params.o_b):
        t.data[:] = rng.normal(size=t.shape)
    return params


def _random_mask(rng, n):
    """Scattered padding rows on some draws, none on others."""
    mask = rng.random(n) < 0.7 if rng.random() < 0.7 else np.ones(n, bool)
    if not mask.any():
        mask[int(rng.integers(n))] = True
    return mask


def _grads_of(out, weights, tensors):
    """Gradients of sum(out * weights) with respect to tensors."""
    for t in tensors:
        t.grad = None
    flat = reshape(ad.mul(out, Tensor(weights)), (out.data.size,))
    backward(ad.masked_reduce("sum", flat, np.ones(out.data.size, bool)))
    return [t.grad.copy() for t in tensors]


class TestFusedOpsMatchComposite:
    """The fused PEM and PMSA ops against their composite references."""

    def test_pem_forward_equals_composite_exactly(self):
        rng = np.random.default_rng(23)
        for trial in range(40):
            d = int(rng.choice([2, 3, 4, 6]))
            params = _float64_params(rng, d, 1, seed=trial)
            n_rows = int(rng.integers(1, 40))
            mask = _random_mask(rng, n_rows)
            h = Tensor(rng.normal(size=(n_rows, d)) * mask[:, None],
                       requires_grad=True, dtype=np.float64)
            for residual in (True, False):
                fused = pem_forward(h, mask, params, residual=residual)
                ref = pem_composite(h, mask, params, residual=residual)
                np.testing.assert_array_equal(fused.data, ref.data)
                weights = rng.normal(size=fused.shape)
                wrt = [h, params.conv_w, params.conv_b, params.class_token]
                for a, b in zip(_grads_of(fused, weights, wrt),
                                _grads_of(ref, weights, wrt)):
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_pmsa_forward_matches_composite(self):
        rng = np.random.default_rng(24)
        for trial in range(40):
            heads = int(rng.integers(1, 5))
            d = heads * int(rng.integers(2, 4))  # layer norm needs D >= 2
            params = _float64_params(rng, d, heads, seed=trial)
            n = int(rng.integers(1, 30))
            token_mask = np.concatenate([[True], _random_mask(rng, n)])
            h_q = Tensor(rng.normal(size=(1, d)), requires_grad=True,
                         dtype=np.float64)
            tokens = Tensor(rng.normal(size=(n + 1, d)), requires_grad=True,
                            dtype=np.float64)
            z, attn = pmsa_forward(h_q, tokens, token_mask, params)
            z_ref, attn_ref = pmsa_composite(h_q, tokens, token_mask, params)
            assert np.abs(z.data - z_ref.data).max() <= 1e-12
            assert np.abs(attn - attn_ref).max() <= 1e-12
            assert (attn[:, :, ~token_mask] == 0).all()
            weights = rng.normal(size=(1, d))
            wrt = [h_q, tokens, params.q_w, params.q_b, params.k_w,
                   params.k_b, params.v_w, params.v_b, params.o_w, params.o_b,
                   params.ln_gain, params.ln_bias]
            for a, b in zip(_grads_of(z, weights, wrt),
                            _grads_of(z_ref, weights, wrt)):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("masked", [False, True])
    def test_fused_tokens_equal_class_token_concat_exactly(self, d, masked):
        # float32, as in training: the one-buffer tokens against the class
        # token concatenated over the composite positional rows
        rng = np.random.default_rng(25 + d)
        params = init_params(d, 1, seed=d)
        params.conv_b.data[:] = rng.normal(size=d)
        for n_rows in (1, 7, 9, 30):
            mask = np.ones(n_rows, bool)
            if masked and n_rows > 1:
                mask[rng.choice(n_rows, size=n_rows // 2, replace=False)] = False
            h = Tensor((rng.normal(size=(n_rows, d)) * mask[:, None])
                       .astype(np.float32))
            for residual in (True, False):
                fused = pem_forward(h, mask, params, residual=residual)
                ref = pem_composite(h, mask, params, residual=residual)
                assert fused.data.dtype == ref.data.dtype == np.float32
                assert fused.data.tobytes() == ref.data.tobytes()
                weights = rng.normal(size=fused.shape).astype(np.float32)
                token_grads = [_grads_of(out, weights, [params.class_token])[0]
                               for out in (fused, ref)]
                assert token_grads[0].tobytes() == token_grads[1].tobytes()

    def test_pem_forward_grad_check_with_class_token(self):
        rng = np.random.default_rng(26)
        for trial in range(6):
            d = (2, 3)[trial % 2]
            params = _float64_params(rng, d, 1, seed=trial)
            n_rows = int(rng.integers(2, 12))
            mask = _random_mask(rng, n_rows)
            h = Tensor(rng.normal(size=(n_rows, d)), requires_grad=True,
                       dtype=np.float64)
            weights = Tensor(rng.normal(size=(n_rows + 1, d)))

            def f():
                out = ad.mul(pem_forward(h, mask, params, residual=trial < 3),
                             weights)
                return ad.masked_reduce("sum", reshape(out, (out.data.size,)),
                                        np.ones(out.data.size, bool))
            wrt = [h, params.conv_w, params.conv_b, params.class_token]
            assert ad.grad_check(f, wrt) <= 1e-6
            assert np.abs(params.class_token.grad).sum() > 0

    def test_in_place_dropout_gives_out_of_place_bytes(self, monkeypatch):
        rng = np.random.default_rng(27)
        params = init_params(16, 4, seed=2)
        bag = random_bag(rng, n=23, dim=16)

        def step():
            for t in params.named().values():
                t.grad = None
            trace = bag_forward(bag, params, training=True,
                                rng=np.random.default_rng(5), dropout=0.3)
            backward(ad.log(trace.bag_prob))
            return [trace.tokens.data.tobytes(), trace.bag_prob.data.tobytes()] \
                + [t.grad.tobytes() for t in params.named().values()
                   if t.grad is not None]

        in_place = step()
        out_of_place = ad.dropout
        monkeypatch.setattr(ad, "dropout",
                            lambda *a, inplace=False, **k: out_of_place(*a, **k))
        assert step() == in_place

    def test_fully_masked_attention_raises(self):
        params = init_params(4, 2, seed=0)
        tokens = Tensor(np.ones((3, 4), dtype=np.float32))
        h_q = Tensor(np.ones((1, 4), dtype=np.float32))
        with pytest.raises(MaskError):
            pmsa_forward(h_q, tokens, np.zeros(3, bool), params)


def _grid_positional_bytes(rng, n_rows, d, dtype, residual, mask=None):
    """A closure running grid_positional on one random case, giving the
    bytes of the output and of the input gradient."""
    x = rng.normal(size=(n_rows, d)).astype(dtype)
    x[rng.random(x.shape) < 0.05] = -0.0
    w = rng.normal(size=(d, 3, 3)).astype(dtype)
    b = rng.normal(size=d).astype(dtype)
    mask = np.ones(n_rows, bool) if mask is None else mask
    # drawn from its own generator, so the cases stay those of rng
    own = np.random.default_rng(n_rows)
    upstream = own.normal(size=(n_rows + 1, d)).astype(dtype)
    token = own.normal(size=(1, d)).astype(dtype)

    def run():
        h = Tensor(x, requires_grad=True)
        out = ad.grid_positional(h, mask, Tensor(w), Tensor(b), Tensor(token),
                                 residual)
        out.grad = upstream
        backward(out)
        return out.data.tobytes(), h.grad.tobytes()
    return run


def _assert_bands_match_one_band(monkeypatch, rng, band_bytes, trials,
                                 dim=None):
    """Random cases (D drawn from 2..23 unless given) give the same bytes
    in bands of band_bytes as in one whole-grid band."""
    for trial in range(trials):
        n_rows = int(rng.integers(1, 120))
        d = int(rng.integers(2, 24)) if dim is None else dim
        run = _grid_positional_bytes(
            rng, n_rows, d, (np.float32, np.float64)[trial % 2],
            bool(trial % 4 // 2), _random_mask(rng, n_rows))
        monkeypatch.setattr(ad, "_PEM_BAND_BYTES", 1 << 60)
        whole = run()
        monkeypatch.setattr(ad, "_PEM_BAND_BYTES", band_bytes)
        assert run() == whole


class TestGridPositionalBands:
    """The banded PEM forward and input gradient give the bytes of one
    whole-grid band."""

    @pytest.mark.parametrize("band_bytes", [1, 100, 4096])
    def test_any_band_size_matches_one_band(self, monkeypatch, band_bytes):
        _assert_bands_match_one_band(monkeypatch,
                                     np.random.default_rng(band_bytes),
                                     band_bytes, 24)

    @pytest.mark.parametrize("band_bytes", [1, 8, 100])
    def test_two_channels_any_band_size(self, monkeypatch, band_bytes):
        # D = 2, the fewest channels grid_positional takes
        _assert_bands_match_one_band(monkeypatch,
                                     np.random.default_rng(200 + band_bytes),
                                     band_bytes, 12, dim=2)

    @pytest.mark.parametrize("d", [0, 1])
    def test_fewer_than_two_channels_raise(self, d):
        x = np.ones((4, d), np.float32)
        conv = [Tensor(np.ones(s, np.float32))
                for s in ((d, 3, 3), (d,), (1, d))]
        for h_q in (None, Tensor(x[:1])):
            with pytest.raises(ShapeError, match="D >= 2"):
                ad.grid_positional(Tensor(x), np.ones(4, bool), *conv, True,
                                   h_q=h_q)

    def test_wsi_bag_matches_one_band(self, monkeypatch):
        # 4096 x 512 float32: a 64 x 64 grid in bands of 2 rows
        run = _grid_positional_bytes(np.random.default_rng(5), 4096, 512,
                                     np.float32, True)
        banded = run()
        monkeypatch.setattr(ad, "_PEM_BAND_BYTES", 1 << 60)
        assert banded == run()


class TestGridPositionalSumOrder:
    """The filter adds a cell's nine taps from 0 in (dy, dx) order, then the
    bias, then the residual, with no tolerance."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_naive_conv_exactly(self, d, dtype):
        rng = np.random.default_rng(40 + d)
        for trial in range(20):
            n_rows = int(rng.integers(1, 60))
            mask = _random_mask(rng, n_rows)
            x, w, b = (rng.normal(size=s).astype(dtype)
                       for s in ((n_rows, d), (d, 3, 3), (d,)))
            residual = trial % 2 == 1
            fast = ad.grid_positional(Tensor(x), mask, Tensor(w), Tensor(b),
                                      Tensor(np.zeros((1, d), dtype)),
                                      residual).data[1:]
            n = int(mask.sum())
            g = math.isqrt(n - 1) + 1
            cells = np.vstack([x[mask], np.zeros((g * g - n, d), dtype)])
            grid = cells.T.reshape(1, d, g, g)
            conv = depthwise_conv2d_3x3(Tensor(grid), Tensor(w), Tensor(b)).data
            if residual:
                conv = conv + grid
            expect = np.zeros_like(x)
            expect[mask] = conv.reshape(d, g * g).T[:n]
            np.testing.assert_array_equal(fast, expect)

    def test_wsi_forward_sums_taps_in_order(self):
        # float32, D = 512, conv_b = 0: a numpy release that reorders
        # einsum's loops, or fuses its multiply and add, changes these bytes
        rng = np.random.default_rng(41)
        n, d, g = 1000, 512, 32
        x = rng.normal(size=(n, d)).astype(np.float32)
        w = rng.normal(size=(d, 3, 3)).astype(np.float32)
        cells = np.zeros((g * g, d), np.float32)
        cells[:n] = x
        pad = np.pad(cells.reshape(g, g, d), ((1, 1), (1, 1), (0, 0)))
        expect = np.zeros((g, g, d), np.float32)
        for dy in range(3):
            for dx in range(3):
                expect += w[:, dy, dx] * pad[dy:dy + g, dx:dx + g]
        expect += pad[1:g + 1, 1:g + 1]
        out = ad.grid_positional(Tensor(x), np.ones(n, bool), Tensor(w),
                                 Tensor(np.zeros(d, np.float32)),
                                 Tensor(np.zeros((1, d), np.float32)), True)
        assert out.data[1:].tobytes() == expect.reshape(g * g, d)[:n].tobytes()


class TestBagForward:
    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(13)
        params = init_params(8, 2, seed=7)
        bag = random_bag(rng, n=10, dim=8)
        t1 = bag_forward(bag, params)
        t2 = bag_forward(bag, params)
        assert t1.bag_prob.data.tobytes() == t2.bag_prob.data.tobytes()
        assert t1.attention.tobytes() == t2.attention.tobytes()

    def test_prob_in_open_interval(self):
        rng = np.random.default_rng(14)
        params = init_params(8, 2, seed=8)
        for _ in range(10):
            trace = bag_forward(random_bag(rng, n=int(rng.integers(1, 20)),
                                           dim=8), params)
            assert 0.0 < trace.bag_prob.item() < 1.0

    @pytest.mark.parametrize("training", [False, True])
    def test_forward_without_h_recal_gives_the_same_bytes(self, training):
        rng = np.random.default_rng(16)
        params = init_params(8, 2, seed=10)
        for n in (1, 7, 16, 30):
            bag = random_bag(rng, n=n, dim=8)
            traces = [bag_forward(bag, params, training=training,
                                  rng=np.random.default_rng(n), dropout=0.3,
                                  keep_recal=keep)
                      for keep in (True, False)]
            assert traces[0].h_recal is not None and traces[1].h_recal is None
            for name in ("tokens", "z", "bag_prob"):
                assert (getattr(traces[0], name).data.tobytes()
                        == getattr(traces[1], name).data.tobytes())

    def test_degenerate_single_instance_bag(self):
        rng = np.random.default_rng(15)
        params = init_params(8, 4, seed=9)
        bag = random_bag(rng, n=1, dim=8)
        trace = bag_forward(bag, params)
        np.testing.assert_array_equal(trace.h_recal.data, np.zeros((1, 8)))
        assert np.isfinite(trace.bag_prob.item())
        assert np.isfinite(trace.z.data).all()

    def test_permutation_can_change_bag_prob(self):
        # the positional grid imposes an order, so the full forward is not
        # permutation invariant (selection itself is; see above)
        rng = np.random.default_rng(16)
        params = init_params(8, 2, seed=10)
        feats = rng.normal(size=(12, 8)).astype(np.float32)
        base = bag_forward(make_bag("b", 1, feats), params).bag_prob.item()
        changed = False
        for s in range(10):
            perm = np.random.default_rng(s).permutation(12)
            p = bag_forward(make_bag("b", 1, feats[perm]), params).bag_prob.item()
            if abs(p - base) > 1e-9:
                changed = True
                break
        assert changed

    def test_masked_padding_invariance(self):
        rng = np.random.default_rng(17)
        params = init_params(8, 2, seed=11)
        for _ in range(20):
            n = int(rng.integers(1, 15))
            bag = random_bag(rng, n=n, dim=8)
            padded = pad_to(bag, n + int(rng.integers(1, 8)))
            a = bag_forward(bag, params)
            b = bag_forward(padded, params)
            assert abs(a.bag_prob.item() - b.bag_prob.item()) < 1e-6
            assert a.max_index == b.max_index
            np.testing.assert_allclose(a.z.data, b.z.data, atol=1e-6)
            # attention over padded tokens is exactly zero
            assert (b.attention[:, :, 1 + n:] == 0).all()
            np.testing.assert_allclose(b.attention[:, :, :1 + n],
                                       a.attention, atol=1e-6)

    def test_every_parameter_receives_gradient(self):
        rng = np.random.default_rng(18)
        params = init_params(8, 2, seed=12)
        pos = make_bag("p", 1, rng.normal(size=(7, 8)).astype(np.float32))
        neg = make_bag("n", 0, rng.normal(size=(5, 8)).astype(np.float32))
        tp = bag_forward(pos, params)
        tn = bag_forward(neg, params)
        loss, _ = total_loss(tp, tn, (1, 0), LossWeights(tau=2.0))
        backward(loss)
        for name, t in params.named().items():
            assert t.grad is not None and np.abs(t.grad).max() > 0, \
                f"dead branch: {name}"

    def test_dropout_training_changes_output(self):
        rng = np.random.default_rng(19)
        params = init_params(8, 2, seed=13)
        bag = random_bag(rng, n=9, dim=8)
        eval_p = bag_forward(bag, params).bag_prob.item()
        train_p = bag_forward(bag, params, training=True,
                              rng=np.random.default_rng(0),
                              dropout=0.5).bag_prob.item()
        assert train_p != eval_p


class TestComparators:
    def test_mean_pool_identical_instances(self):
        rng = np.random.default_rng(20)
        cp = init_comparator("mean_pool", 6, seed=0)
        row = rng.normal(size=(1, 6)).astype(np.float32)
        single = comparator_forward(cp, make_bag("a", 1, row)).item()
        many = comparator_forward(cp, make_bag("b", 1, np.repeat(row, 7, 0))).item()
        assert many == pytest.approx(single, abs=1e-7)

    def test_max_pool_dominates_instance_scores(self):
        rng = np.random.default_rng(21)
        cp = init_comparator("max_pool", 6, seed=1)
        bag = random_bag(rng, n=9, dim=6)
        prob = comparator_forward(cp, bag).item()
        h = Tensor(bag.features)
        scores = ad.sigmoid(ad.add(ad.matmul(h, cp.scorer_w), cp.scorer_b)).data[:, 0]
        assert prob >= scores.max() - 1e-9

    def test_max_pool_duplicate_max_idempotent(self):
        rng = np.random.default_rng(22)
        cp = init_comparator("max_pool", 6, seed=2)
        bag = random_bag(rng, n=9, dim=6)
        p1 = comparator_forward(cp, bag).item()
        h = Tensor(bag.features)
        scores = ad.sigmoid(ad.add(ad.matmul(h, cp.scorer_w), cp.scorer_b)).data[:, 0]
        top = bag.features[int(np.argmax(scores))]
        bigger = make_bag("c", 1, np.vstack([bag.features, top[None, :]]))
        assert comparator_forward(cp, bigger).item() == pytest.approx(p1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            init_comparator("median_pool", 4, seed=0)

    def test_heads_are_the_models_scorer(self):
        # the same draws as the model's scorer rows, and max pooling is
        # the model's critical-instance probability
        rng = np.random.default_rng(23)
        params = init_params(8, 2, seed=3)
        bag = random_bag(rng, n=9, dim=8)
        for kind in COMPARATOR_KINDS:
            cp = init_comparator(kind, 8, seed=3)
            for name, t in cp.named().items():
                assert t.data.tobytes() == getattr(params, name).data.tobytes()
        cp = init_comparator("max_pool", 8, seed=3)
        a_max = bag_forward(bag, params).a_max.data
        assert comparator_forward(cp, bag).data.tobytes() == a_max.tobytes()
