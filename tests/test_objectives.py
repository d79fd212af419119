"""Loss functions: closed-form values, margin semantics, gradient checks."""

import math

import numpy as np
import pytest

from frmil import autodiff as ad
from frmil.autodiff import Tensor, backward, grad_check
from frmil.bagdata import make_bag
from frmil.model import bag_forward, init_params
from frmil.objectives import (
    BalancedBatchError,
    LossWeights,
    bag_loss,
    bce_loss,
    bce_values,
    magnitude_term,
    total_loss,
)
from oracles import joint_pair_loss, pad_to


class TestBceLoss:
    def test_half_true(self):
        assert bce_loss(0.5, 1).item() == pytest.approx(math.log(2), abs=1e-7)

    def test_confident_correct_near_zero(self):
        assert bce_loss(1.0 - 1e-9, 1).item() == pytest.approx(0.0, abs=1e-5)

    def test_confident_wrong(self):
        assert bce_loss(0.9, 0).item() == pytest.approx(-math.log(0.1), abs=1e-6)

    def test_clamping_keeps_loss_finite(self):
        assert np.isfinite(bce_loss(0.0, 1).item())
        assert np.isfinite(bce_loss(1.0, 0).item())

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = float(rng.uniform(0, 1))
            y = int(rng.integers(0, 2))
            assert bce_loss(p, y).item() >= 0.0

    def test_bad_label(self):
        with pytest.raises(ValueError):
            bce_loss(0.5, 2)

    def test_vector_equals_the_graph_bytes(self):
        rng = np.random.default_rng(4)
        edges = [0.0, 1.0, 1e-9, 1.0 - 1e-9, 1e-7, 1.0 - 1e-7, 0.5]
        probs = edges + rng.uniform(0, 1, 500).tolist() \
            + rng.uniform(0, 1, 500).astype(np.float32).tolist()
        labels = [i % 2 for i in range(len(probs))] + [1 - i % 2 for i in
                                                       range(len(probs))]
        probs = probs * 2
        graph = [bce_loss(p, y).item() for p, y in zip(probs, labels)]
        vector = bce_values(probs, labels)
        assert vector.dtype == np.float64
        assert [v.hex() for v in vector.tolist()] == [g.hex() for g in graph]
        assert float(np.mean(vector)).hex() == float(np.mean(graph)).hex()
        assert bce_values([probs[3]], [0])[0].hex() == bce_loss(
            probs[3], 0).item().hex()
        with pytest.raises(ValueError):
            bce_values([0.5, 0.5], [1, 2])


class TestMaxInstanceLoss:
    def test_half_false(self):
        assert bce_loss(0.5, 0).item() == pytest.approx(math.log(2), abs=1e-7)

    def test_confident(self):
        assert bce_loss(0.99, 1).item() == pytest.approx(0.01005, abs=1e-5)

    def test_gradient_only_through_argmax_row(self):
        rng = np.random.default_rng(1)
        params = init_params(6, 2, seed=0)
        bag = make_bag("b", 1, rng.normal(size=(5, 6)).astype(np.float32))
        trace = bag_forward(bag, params)
        params.scorer_w.grad = None
        backward(bce_loss(trace.a_max, 1))
        # the scorer gradient is the winning row scaled by the local slope
        g = params.scorer_w.grad[:, 0].astype(np.float64)
        winner = bag.features[trace.max_index].astype(np.float64)
        cos = g @ winner / (np.linalg.norm(g) * np.linalg.norm(winner))
        assert abs(abs(cos) - 1.0) < 1e-5


def tensor_rows(rows):
    return Tensor(np.asarray(rows, dtype=np.float64))


def feature_magnitude_loss(h_pos, mask_pos, h_neg, mask_neg, tau,
                           squared=False):
    """The pair's margin loss: the positive bag's term plus the negative
    bag's (``magnitude_term``)."""
    return ad.add(magnitude_term(h_pos, mask_pos, 1, tau, squared),
                  magnitude_term(h_neg, mask_neg, 0, tau, squared))


class TestFeatureMagnitudeLoss:
    def test_zero_when_margins_met(self):
        pos = tensor_rows([[3.0, 0.0], [0.0, 5.0]])   # norms 3, 5 >= tau=2
        neg = tensor_rows([[0.0, 0.0], [0.0, 0.0]])
        out = feature_magnitude_loss(pos, np.ones(2, bool),
                                     neg, np.ones(2, bool), tau=2.0)
        assert out.item() == 0.0

    def test_all_zero_rows_saturate_to_tau(self):
        pos = tensor_rows(np.zeros((3, 4)))
        neg = tensor_rows(np.zeros((2, 4)))
        out = feature_magnitude_loss(pos, np.ones(3, bool),
                                     neg, np.ones(2, bool), tau=7.5)
        assert out.item() == pytest.approx(7.5)

    def test_hand_value(self):
        # tau=2, positive norms {1, 3}, negative norms {0.5, 0.5}
        pos = tensor_rows([[1.0, 0.0], [3.0, 0.0]])
        neg = tensor_rows([[0.5, 0.0], [0.0, 0.5]])
        out = feature_magnitude_loss(pos, np.ones(2, bool),
                                     neg, np.ones(2, bool), tau=2.0)
        assert out.item() == pytest.approx(1.0)

    def test_zero_iff_condition(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n_p, n_n, d = rng.integers(1, 6), rng.integers(1, 6), 3
            tau = float(rng.uniform(0.5, 3.0))
            pos = rng.normal(size=(n_p, d)) * rng.uniform(0.1, 4.0)
            neg = rng.normal(size=(n_n, d)) * (0.0 if rng.random() < 0.5 else 1.0)
            out = feature_magnitude_loss(
                tensor_rows(pos), np.ones(n_p, bool),
                tensor_rows(neg), np.ones(n_n, bool), tau=tau).item()
            pos_ok = (np.linalg.norm(pos, axis=1) >= tau).all()
            neg_ok = (np.linalg.norm(neg, axis=1) == 0).all()
            assert (out < 1e-12) == (pos_ok and neg_ok)
            assert out >= 0.0

    def test_padded_rows_have_no_influence(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(size=(4, 3))
        neg = rng.normal(size=(3, 3))
        base = feature_magnitude_loss(tensor_rows(pos), np.ones(4, bool),
                                      tensor_rows(neg), np.ones(3, bool),
                                      tau=1.5).item()
        pos_pad = np.vstack([pos, np.zeros((2, 3))])
        neg_pad = np.vstack([neg, np.zeros((5, 3))])
        padded = feature_magnitude_loss(
            tensor_rows(pos_pad), np.array([True] * 4 + [False] * 2),
            tensor_rows(neg_pad), np.array([True] * 3 + [False] * 5),
            tau=1.5).item()
        assert abs(base - padded) < 1e-9

    def test_hinge_inactive_region_zero_gradient(self):
        pos = Tensor(np.array([[5.0, 0.0], [0.3, 0.4]]), requires_grad=True,
                     dtype=np.float64)
        neg = tensor_rows([[1.0, 1.0]])
        out = feature_magnitude_loss(pos, np.ones(2, bool),
                                     neg, np.ones(1, bool), tau=2.0)
        backward(out)
        np.testing.assert_array_equal(pos.grad[0], np.zeros(2))  # norm 5 > tau
        assert np.abs(pos.grad[1]).max() > 0                     # norm 0.5 < tau

    def test_squared_convention_flag(self):
        pos = tensor_rows([[2.0, 0.0]])
        neg = tensor_rows([[1.0, 0.0]])
        out = feature_magnitude_loss(pos, np.ones(1, bool), neg,
                                     np.ones(1, bool), tau=5.0, squared=True)
        assert out.item() == pytest.approx((5.0 - 4.0) + 1.0)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            feature_magnitude_loss(tensor_rows([[1.0]]), np.ones(1, bool),
                                   tensor_rows([[1.0]]), np.ones(1, bool),
                                   tau=0.0)


def forward_pair(seed, dim=8, heads=2, n_pos=5, n_neg=4, dtype=np.float32):
    rng = np.random.default_rng(seed)
    params = init_params(dim, heads, seed=seed)
    if dtype is np.float64:
        for t in params.named().values():
            t.data = t.data.astype(np.float64)
    pos = make_bag("p", 1, rng.normal(size=(n_pos, dim)).astype(dtype))
    neg = make_bag("n", 0, rng.normal(size=(n_neg, dim)).astype(dtype))
    return params, pos, neg


class TestTotalLoss:
    def test_bag_only_reduction(self):
        params, pos, neg = forward_pair(4)
        tp, tn = bag_forward(pos, params), bag_forward(neg, params)
        w = LossWeights(gamma_bag=1.0, gamma_max=0.0, gamma_fm=0.0, tau=2.0)
        loss, parts = total_loss(tp, tn, (1, 0), w)
        expected = 0.5 * (bce_loss(tp.bag_prob.item(), 1).item()
                          + bce_loss(tn.bag_prob.item(), 0).item())
        assert loss.item() == pytest.approx(expected, abs=1e-6)
        assert parts["bag"] == pytest.approx(expected, abs=1e-6)

    def test_equal_weights_arithmetic(self):
        # all gammas 0.33 with every term equal to 1 gives 0.99
        w = LossWeights(0.33, 0.33, 0.33, tau=1.0)
        assert w.gamma_bag * 1 + w.gamma_max * 1 + w.gamma_fm * 1 \
            == pytest.approx(0.99)

    def test_breakdown_recombines_to_total(self):
        params, pos, neg = forward_pair(5)
        tp, tn = bag_forward(pos, params), bag_forward(neg, params)
        w = LossWeights(0.4, 0.25, 0.1, tau=3.0)
        loss, parts = total_loss(tp, tn, (1, 0), w)
        recombined = (w.gamma_bag * parts["bag"] + w.gamma_max * parts["max"]
                      + w.gamma_fm * parts["fm"])
        assert abs(recombined - parts["total"]) < 1e-9
        assert parts["total"] == pytest.approx(loss.item())

    @pytest.mark.parametrize("field,value", [
        ("gamma_bag", -0.1), ("gamma_max", math.nan), ("gamma_fm", -1.0),
        ("tau", 0.0), ("tau", math.inf), ("tau", -2.0)])
    def test_invalid_weights_rejected_when_built(self, field, value):
        with pytest.raises(ValueError, match=field):
            LossWeights(**{field: value})

    def test_weights_are_frozen(self):
        w = LossWeights()
        with pytest.raises(AttributeError):
            w.tau = -1.0

    def test_same_label_rejected(self):
        params, pos, neg = forward_pair(6)
        tp = bag_forward(pos, params)
        with pytest.raises(BalancedBatchError):
            total_loss(tp, tp, (1, 1), LossWeights())

    def test_swapped_labels_rejected(self):
        params, pos, neg = forward_pair(7)
        tp, tn = bag_forward(pos, params), bag_forward(neg, params)
        with pytest.raises(BalancedBatchError):
            total_loss(tn, tp, (0, 1), LossWeights())

    def test_losses_finite_and_nonnegative(self):
        for seed in range(10):
            params, pos, neg = forward_pair(seed)
            tp, tn = bag_forward(pos, params), bag_forward(neg, params)
            loss, parts = total_loss(tp, tn, (1, 0), LossWeights(tau=2.0))
            for key, v in parts.items():
                assert np.isfinite(v) and v >= 0.0, key

    def test_gradient_matches_finite_differences(self):
        """End-to-end analytic gradients on a small balanced batch."""
        params, pos, neg = forward_pair(8, dim=8, heads=2, n_pos=5, n_neg=3,
                                        dtype=np.float64)
        weights = LossWeights(0.33, 0.33, 0.33, tau=2.0)

        def f():
            tp = bag_forward(pos, params)
            tn = bag_forward(neg, params)
            loss, _ = total_loss(tp, tn, (1, 0), weights)
            return loss

        err = grad_check(f, list(params.named().values()), h=1e-5)
        assert err <= 1e-4, f"max relative error {err:.2e}"


class TestBagLoss:
    """One loss per bag: the two bags' parts and gradients are the bytes of
    the pair's joint graph."""

    CASES = [(seed, squared) for seed in range(4) for squared in (False, True)]

    @staticmethod
    def traces(seed):
        params, pos, neg = forward_pair(seed, n_pos=7, n_neg=5)
        neg = pad_to(neg, 9)  # 4 masked rows
        return params, lambda: (bag_forward(pos, params),
                                bag_forward(neg, params))

    @pytest.mark.parametrize("seed, squared", CASES)
    def test_parts_sum_to_the_pair_parts(self, seed, squared):
        tp, tn = self.traces(seed)[1]()
        w = LossWeights(0.4, 0.25, 0.1, tau=3.0)
        (_, pp), (_, pn) = (bag_loss(t, y, w, squared)
                            for t, y in ((tp, 1), (tn, 0)))
        summed = {k: (pp[k] + pn[k]).item() for k in ("bag", "max", "fm")}
        _, parts = total_loss(tp, tn, (1, 0), w, fm_squared=squared)
        _, joint = joint_pair_loss(tp, tn, w, squared)
        for k, v in summed.items():
            assert v.hex() == parts[k].hex() == joint[k].hex(), k

    @pytest.mark.parametrize("seed, squared", CASES)
    def test_gradients_equal_the_joint_graph(self, seed, squared):
        params, forward = self.traces(seed)
        w = LossWeights(0.4, 0.25, 0.1, tau=3.0)

        def grads(per_bag):
            tp, tn = forward()
            for t in params.named().values():
                t.grad = None
            if per_bag:
                for t, y in ((tp, 1), (tn, 0)):
                    backward(bag_loss(t, y, w, squared)[0])
            else:
                backward(joint_pair_loss(tp, tn, w, squared)[0])
            return {k: t.grad.tobytes() for k, t in params.named().items()}

        assert grads(True) == grads(False)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_0_1_raises(self, label):
        tp, _ = self.traces(0)[1]()
        with pytest.raises(ValueError, match="label"):
            bag_loss(tp, label, LossWeights())
