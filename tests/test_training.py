"""Optimizer, metrics, checkpointing, and training-loop determinism."""

import copy
import functools
import hashlib
import math
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from frmil import autodiff as ad
from frmil import model, training
from frmil.autodiff import MaskError, ShapeError, Tensor
from frmil.bagdata import (
    BagStore,
    InstanceBag,
    SingleClassError,
    SyntheticSpec,
    generate_synthetic,
    make_bag,
    read_store,
    split_ids,
    write_split,
    write_store,
)
from frmil.model import init_params
from frmil.training import (
    AdamState,
    CheckpointHeaderError,
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    TrainConfig,
    TrainingError,
    adam_step,
    auc,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics_csv,
)
from oracles import (
    adam_step_reference,
    pad_to,
    pair_step_reference,
    pairwise_auc,
)


def arena_leaves(**arrays):
    """Leaves over one new arena (``model.arena``) holding the arrays."""
    _, views = model.arena({k: a.shape for k, a in arrays.items()},
                           np.result_type(*arrays.values()))
    for k, a in arrays.items():
        views[k][...] = a
    return {k: Tensor(v, requires_grad=True) for k, v in views.items()}


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        named = arena_leaves(w=np.array([1.0, -2.0], dtype=np.float32))
        t = named["w"]
        state = AdamState.for_params(named)
        before = t.data.copy()
        for _ in range(5):
            adam_step(named, {"w": np.zeros(2, np.float32)}, state, lr=0.1)
        np.testing.assert_array_equal(t.data, before)

    def test_first_step_is_signed_lr(self):
        # after bias correction the first update is lr * g / (|g| + eps)
        named = arena_leaves(w=np.array([1.0, 1.0], dtype=np.float64))
        t = named["w"]
        state = AdamState.for_params(named)
        g = np.array([0.3, -7.0])
        adam_step(named, {"w": g}, state, lr=0.01)
        np.testing.assert_allclose(t.data, 1.0 - 0.01 * np.sign(g), atol=1e-6)

    def test_quadratic_convergence_matches_reference_loop(self):
        # minimize theta^2 from theta=1 with lr 0.1 for 200 steps
        named = arena_leaves(w=np.array([1.0], dtype=np.float64))
        t = named["w"]
        state = AdamState.for_params(named)
        # independent reference implementation
        theta, m, v = 1.0, 0.0, 0.0
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
        for step in range(1, 201):
            g = 2.0 * t.data[0]
            adam_step(named, {"w": np.array([g])}, state, lr=lr)
            g_ref = 2.0 * theta
            m = b1 * m + (1 - b1) * g_ref
            v = b2 * v + (1 - b2) * g_ref * g_ref
            theta -= lr * (m / (1 - b1 ** step)) / (math.sqrt(v / (1 - b2 ** step)) + eps)
            assert t.data[0] == pytest.approx(theta, abs=1e-12)
        assert abs(t.data[0]) < 0.05

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_allocating_reference(self, dtype):
        self._compare_with_reference(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bands_match_allocating_reference(self, monkeypatch, dtype):
        # the arena of w (16, 8), b (8,) and unused (3,) then runs in bands
        # of 5 elements, which cross from one view into the next
        monkeypatch.setattr(training, "_ADAM_BAND", 5)
        self._compare_with_reference(dtype)

    @staticmethod
    def _compare_with_reference(dtype):
        rng = np.random.default_rng(9)
        shapes = {"w": (16, 8), "b": (8,), "unused": (3,)}
        named = arena_leaves(**{k: rng.normal(size=s).astype(dtype)
                                for k, s in shapes.items()})
        state = AdamState.for_params(named)
        ref_named = arena_leaves(**{k: t.data for k, t in named.items()})
        ref_state = AdamState.for_params(ref_named)
        for _ in range(8):
            # magnitudes from 1e-6 to 1e3, signed zeros, and a missing grad
            grads = {k: (rng.normal(size=s) * 10.0 ** rng.integers(-6, 4, s))
                     .astype(dtype) for k, s in shapes.items() if k != "unused"}
            grads["w"][0, :2] = (0.0, -0.0)
            adam_step(named, grads, state, lr=1e-3)
            adam_step_reference(ref_named, grads, ref_state, lr=1e-3)
            for k in shapes:
                assert named[k].data.tobytes() == ref_named[k].data.tobytes()
                assert state.m[k].tobytes() == ref_state.m[k].tobytes()
                assert state.v[k].tobytes() == ref_state.v[k].tobytes()

    def test_non_finite_gradient_aborts_with_name(self):
        named = arena_leaves(spike=np.ones(2, np.float32))
        state = AdamState.for_params(named)
        from frmil.training import TrainingError
        with pytest.raises(TrainingError, match="spike"):
            adam_step(named, {"spike": np.array([np.nan, 0.0])}, state, lr=0.1)


def address(a):
    return a.ctypes.data


def arena_pads(views):
    """The elements of the views' arena that no view covers."""
    flat = model.arena_of(views)
    covered = np.zeros(len(flat), bool)
    for a in views.values():
        start = (address(a) - address(flat)) // a.itemsize
        covered[start:start + a.size] = True
    return flat[~covered]


def model_grads(rng, dim):
    """Gradients for every ModelParams parameter at dim but clf_b, with
    magnitudes from 1e-6 to 1e3 and signed zeros."""
    grads = {name: (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4, shape))
             .astype(np.float32)
             for name, shape in model.param_shapes(dim).items()
             if name != "clf_b"}
    grads["q_w"][0, :2] = (0.0, -0.0)
    return grads


class TestArena:
    """Every parameter set lives in one aligned arena, and Adam steps the
    whole arena at once."""

    @staticmethod
    def _check_layout(params):
        views = {name: t.data for name, t in params.named().items()}
        flat = model.arena_of(views)
        assert flat is not None
        starts = [address(a) for a in views.values()]
        assert all(start % 64 == 0 for start in starts)
        assert starts == sorted(starts) and starts[0] == address(flat)
        shapes = model.param_shapes(params.dim)
        if isinstance(params, model.ComparatorParams):
            shapes = {k: shapes[k] for k in model.SCORER}
        assert [(k, a.shape) for k, a in views.items()] == list(shapes.items())

    @pytest.mark.parametrize("dim", [8, 64, 512])
    def test_views_are_aligned_and_in_table_order(self, tmp_path, dim):
        params = init_params(dim, 8 if dim % 8 == 0 else 2, seed=1)
        self._check_layout(params)
        for kind in model.COMPARATOR_KINDS:
            self._check_layout(model.init_comparator(kind, dim, seed=1))
        save_checkpoint(params, TrainConfig(heads=params.heads),
                        tmp_path / "m.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        self._check_layout(loaded)
        assert param_digest(loaded) == param_digest(params)

    def test_pads_stay_zero_after_ten_steps(self):
        rng = np.random.default_rng(5)
        params = init_params(8, 2, seed=0)
        named = params.named()
        state = AdamState.for_params(named)
        for _ in range(10):
            adam_step(named, model_grads(rng, 8), state, lr=0.1)
        for views in (state.params, state.g, state.m, state.v):
            pads = arena_pads(views)
            assert pads.size > 0
            assert pads.tobytes() == bytes(pads.nbytes)  # +0.0, not -0.0

    @pytest.mark.parametrize("dim", [64, 512])
    def test_full_model_equals_the_reference_for_five_steps(self, dim):
        rng = np.random.default_rng(dim)
        named = init_params(dim, 8, seed=2).named()
        ref = arena_leaves(**{k: t.data for k, t in named.items()})
        state, ref_state = AdamState.for_params(named), AdamState.for_params(ref)
        for _ in range(5):
            grads = model_grads(rng, dim)
            adam_step(named, grads, state, lr=1e-3)
            adam_step_reference(ref, grads, ref_state, lr=1e-3)
        for k, t in named.items():
            assert t.data.tobytes() == ref[k].data.tobytes(), k
            assert state.m[k].tobytes() == ref_state.m[k].tobytes(), k
            assert state.v[k].tobytes() == ref_state.v[k].tobytes(), k

    def test_non_finite_gradient_names_its_own_parameter(self):
        named = init_params(8, 2, seed=0).named()
        state = AdamState.for_params(named)
        grads = model_grads(np.random.default_rng(1), 8)
        grads["o_w"][3, 4] = np.nan
        with pytest.raises(TrainingError, match=r"parameter o_w at step 1$"):
            adam_step(named, grads, state, lr=0.1)

    def test_rebound_parameter_raises(self):
        params = init_params(8, 2, seed=0)
        named = params.named()
        state = AdamState.for_params(named)
        params.q_b.data = params.q_b.data.copy()
        with pytest.raises(TrainingError, match="q_b was rebound"):
            adam_step(named, {}, state, lr=0.1)

    def test_parameters_outside_an_arena_raise_naming_them(self):
        named = {"w": Tensor(np.ones((3, 2), np.float32), requires_grad=True),
                 "b": Tensor(np.full(5, 2.0, np.float32), requires_grad=True)}
        with pytest.raises(TrainingError, match="parameters w, b are not"):
            AdamState.for_params(named)
        # views of one arena, but not in its order
        named = arena_leaves(w=np.ones((3, 2), np.float32),
                             b=np.full(5, 2.0, np.float32))
        with pytest.raises(TrainingError, match="parameters b, w are not"):
            AdamState.for_params({"b": named["b"], "w": named["w"]})
        state = AdamState.for_params(named)
        assert all(t.data is state.params[k] for k, t in named.items())

    def test_best_epoch_copy_shares_no_memory(self, tiny_store):
        store, split = tiny_store
        result = train(store, split, tiny_config(epochs=2))
        assert result.best_params is not None
        self._check_layout(result.best_params)
        for best in result.best_params.named().values():
            assert not any(np.shares_memory(best.data, t.data)
                           for t in result.params.named().values())


class TestAuc:
    def test_hand_case(self):
        # concordant pairs 3 of 4
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_single_pair(self):
        assert auc([0.7, 0.3], [1, 0]) == 1.0

    def test_all_ties_half(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)

    def test_score_inversion_symmetry(self):
        rng = np.random.default_rng(0)
        s = rng.random(30)
        y = (rng.random(30) < 0.4).astype(int)
        if y.sum() in (0, 30):
            y[0] = 1 - y[0]
        assert auc(1 - s, y) == pytest.approx(1 - auc(s, y))

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            if labels.sum() == n:
                labels[0] = 0
            assert auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12)

    def test_tie_heavy_matches_pairwise_oracle(self):
        # a handful of distinct scores, -0.0 and 0.0 among them, so most
        # scores share their midrank with many others
        rng = np.random.default_rng(2)
        levels = np.array([-0.0, 0.0, 0.25, 0.5, 1.0])
        for _ in range(200):
            n = int(rng.integers(2, 60))
            scores = rng.choice(levels, size=n)
            labels = (rng.random(n) < 0.5).astype(int)
            labels[0], labels[-1] = 1, 0
            assert auc(scores, labels) == pairwise_auc(scores, labels)

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            auc([0.1, 0.2], [1, 1])


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_store")
    spec = SyntheticSpec(n_bags=24, dim=8, bag_min=3, bag_max=8,
                         witness_rate=0.25, separation=2.0, seed=5)
    write_store(generate_synthetic(spec), root)
    store = read_store(root)
    split = split_ids(store.labels(), (0.5, 0.25, 0.25), seed=5)
    return store, split


def tiny_config(**kw):
    base = dict(tau=20.0, gammas=(0.33, 0.33, 0.33), lr=1e-3, epochs=3,
                heads=2, dropout=0.2, seed=7)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_deterministic_metrics_bytes(self, tiny_store, tmp_path):
        store, split = tiny_store
        paths = []
        for run in range(2):
            result = train(store, split, tiny_config())
            p = tmp_path / f"metrics{run}.csv"
            write_metrics_csv(result.history, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_metrics(self, tiny_store, tmp_path):
        store, split = tiny_store
        a = train(store, split, tiny_config(seed=7))
        b = train(store, split, tiny_config(seed=8))
        assert a.history != b.history

    def test_zero_weights_leave_params_at_init(self, tiny_store):
        store, split = tiny_store
        config = tiny_config(gammas=(0.0, 0.0, 0.0), epochs=2)
        result = train(store, split, config)
        fresh = init_params(store.dim, config.heads, config.seed)
        for name, t in result.params.named().items():
            np.testing.assert_array_equal(t.data, fresh.named()[name].data)

    def test_disabled_losses_log_zero_columns(self, tiny_store):
        store, split = tiny_store
        config = tiny_config(use_max_loss=False, use_fm_loss=False, epochs=2)
        result = train(store, split, config)
        train_rows = [r for r in result.history if r["split"] == "train"]
        assert all(r["loss_max"] == 0.0 and r["loss_fm"] == 0.0
                   for r in train_rows)
        assert all(r["loss"] == pytest.approx(r["loss_bag"]) for r in train_rows)

    def test_losses_finite_every_epoch(self, tiny_store):
        store, split = tiny_store
        result = train(store, split, tiny_config(epochs=4))
        for row in result.history:
            assert np.isfinite(row["loss"])
        assert all(np.isfinite(t.data).all()
                   for t in result.params.named().values())

    def test_best_val_checkpoint_tracked(self, tiny_store):
        store, split = tiny_store
        result = train(store, split, tiny_config(epochs=3))
        assert result.best_val_auc is not None
        assert result.best_params is not None
        assert 0 <= result.best_epoch < 3

    def test_single_class_train_split_rejected(self, tiny_store):
        store, split = tiny_store
        pos_only = [i for i in split["train"] if store.bag(i).label == 1]
        with pytest.raises(SingleClassError):
            train(store, {"train": pos_only, "val": []}, tiny_config())

    def test_comparator_training_runs(self, tiny_store):
        store, split = tiny_store
        for kind in ("mean_pool", "max_pool"):
            result = train(store, split, tiny_config(epochs=2), kind)
            assert all(np.isfinite(t.data).all()
                       for t in result.params.named().values())
            assert [r["split"] for r in result.history] == ["train", "val"] * 2

    def test_one_channel_store_trains_heads_not_the_model(self, tmp_path):
        # the pooling heads build no grid and take D = 1; the model stops
        # at its floor before the first step
        rng = np.random.default_rng(4)
        store = BagStore(tmp_path, 1, {
            f"b{i}": make_bag(f"b{i}", i % 2, rng.normal(size=(3 + i, 1)))
            for i in range(8)})
        split = split_ids(store.labels(), (0.75, 0.25, 0.0), seed=4)
        config = tiny_config(heads=1, epochs=2)
        for kind in ("mean_pool", "max_pool"):
            result = train(store, split, config, kind)
            assert all(np.isfinite(t.data).all()
                       for t in result.params.named().values())
        with pytest.raises(ShapeError, match="store dim 1 is below"):
            train(store, split, config)


class TestEvaluate:
    def test_report_fields(self, tiny_store):
        store, split = tiny_store
        params = init_params(store.dim, 2, seed=0)
        report = evaluate(store, split["test"], params, split="test")
        assert report.split == "test"
        assert 0.0 <= report.accuracy <= 1.0
        assert report.auc is None or 0.0 <= report.auc <= 1.0
        assert len(report.rows) == len(split["test"])
        assert np.isfinite(report.mean_bce)

    def test_single_class_auc_is_none(self, tiny_store):
        store, split = tiny_store
        params = init_params(store.dim, 2, seed=0)
        pos_only = [i for i in split["test"] if store.bag(i).label == 1]
        report = evaluate(store, pos_only, params)
        assert report.auc is None
        assert 0.0 <= report.accuracy <= 1.0

    def test_empty_ids_rejected(self, tiny_store):
        store, _ = tiny_store
        params = init_params(store.dim, 2, seed=0)
        with pytest.raises(ValueError):
            evaluate(store, [], params)


# D=512 bags of 256 rows and up hold at least PARALLEL_MIN_VALUES features,
# so evaluate spreads them over the CPUs; the 40-row bag rides along
WIDE_SIZES = (420, 256, 40, 600, 300)


@pytest.fixture(scope="module")
def wide_store():
    rng = np.random.default_rng(12)
    bags = {f"w{i}": make_bag(f"w{i}", i % 2,
                              rng.standard_normal((n, 512)).astype(np.float32))
            for i, n in enumerate(WIDE_SIZES)}
    return BagStore(root=Path("wide"), dim=512, bags=bags)


# the CPU set the test process started with, read before any test pins
START_CPUS = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
              else None)


@pytest.fixture
def two_cpus(monkeypatch):
    """At least two usable CPUs; faked, with no pinning, on a one-CPU host."""
    if len(training._usable_cpus()) < 2:
        monkeypatch.setattr(training, "_usable_cpus", lambda: [None, None])


def wide_params(kind):
    if kind == "frmil":
        return init_params(512, 8, seed=3)
    return model.init_comparator(kind, 512, seed=3)


def direct_prob(kind, bag, params):
    if kind == "frmil":
        return model.bag_forward(bag, params).bag_prob.item()
    return model.comparator_forward(params, bag).item()


def spy_forward(monkeypatch, kind, on_call):
    """Route evaluate's forwards through on_call(result) on their way out."""
    name = "bag_forward" if kind == "frmil" else "comparator_forward"
    real = getattr(training, name)

    def forward(*args, **kwargs):
        out = real(*args, **kwargs)
        on_call(out)
        return out

    monkeypatch.setattr(training, name, forward)


def spy_scores(monkeypatch, kind, on_call):
    """Route evaluate's scoring through on_call: for the model once per bag
    that ``score_bags`` scored, with the bag; for a pooling head with each
    ``comparator_forward`` output."""
    if kind != "frmil":
        return spy_forward(monkeypatch, kind, on_call)
    real = training.score_bags

    def score(bags, *args, **kwargs):
        out = real(bags, *args, **kwargs)
        for bag in bags:
            on_call(bag)
        return out

    monkeypatch.setattr(training, "score_bags", score)


def spy_on_cpus(monkeypatch):
    """Every ``_on_cpus`` call from here on, as (name, the threads that ran
    its workers)."""
    calls = []
    real = training._on_cpus

    def on_cpus(cpus, work, stop, name):
        threads = []
        calls.append((name, threads))

        def spied(i):
            threads.append(threading.current_thread())
            work(i)

        real(cpus, spied, stop, name)

    monkeypatch.setattr(training, "_on_cpus", on_cpus)
    return calls


def lone_store(n, d, masked):
    """A store of one bag "b" of n rows of width d, a quarter of its rows
    masked when masked."""
    rng = np.random.default_rng(n + d)
    mask = np.ones(n, bool)
    if masked:
        mask[rng.choice(n, size=n // 4, replace=False)] = False
    return BagStore(root=Path("lone"), dim=d, bags={"b": InstanceBag(
        "b", 1, rng.standard_normal((n, d)).astype(np.float32), mask)})


KINDS = ("frmil", "mean_pool", "max_pool")


class TestDetachedView:
    """evaluate reads the parameters' arrays as they are at the call: never
    stale, never another copy's."""

    def test_in_place_adam_updates_are_seen(self, tiny_store):
        store, split = tiny_store
        params = init_params(store.dim, 2, seed=0)
        before = evaluate(store, split["test"], params).rows
        named = params.named()
        rng = np.random.default_rng(3)
        adam_step(named, {k: rng.normal(size=t.shape).astype(np.float32)
                          for k, t in named.items()},
                  AdamState.for_params(named), lr=0.1)
        after = evaluate(store, split["test"], params).rows
        assert after != before
        assert after == evaluate(store, split["test"],
                                 copy.deepcopy(params)).rows

    def test_rebound_data_is_never_served_stale(self, tiny_store):
        store, split = tiny_store
        params = init_params(store.dim, 2, seed=0)
        evaluate(store, split["test"], params)
        params.clf_b.data = params.clf_b.data + np.float32(3.0)
        fresh = init_params(store.dim, 2, seed=0)
        fresh.clf_b.data += np.float32(3.0)
        assert (evaluate(store, split["test"], params).rows
                == evaluate(store, split["test"], fresh).rows)

    def test_deep_copy_uses_its_own_arrays(self, tiny_store):
        store, split = tiny_store
        params = init_params(store.dim, 2, seed=0)
        before = evaluate(store, split["test"], params).rows
        twin = copy.deepcopy(params)
        twin.clf_b.data += np.float32(3.0)  # in place: only the copy moves
        for name, t in twin.named().items():
            assert not np.shares_memory(t.data, params.named()[name].data)
        assert evaluate(store, split["test"], params).rows == before
        assert evaluate(store, split["test"], twin).rows != before


class TestEvaluateParallel:
    @pytest.mark.parametrize("kind", KINDS)
    def test_batched_rows_equal_one_bag_rows_bit_for_bit(self, wide_store,
                                                          two_cpus, monkeypatch,
                                                          kind):
        params = wide_params(kind)
        ids = wide_store.ids()
        before = threading.active_count()
        counts = []
        spy_scores(monkeypatch, kind,
                   lambda _: counts.append(threading.active_count()))
        batched = evaluate(wide_store, ids, params).rows
        assert max(counts) > before  # a helper thread ran alongside
        single = [evaluate(wide_store, [i], params).rows[0] for i in ids]
        direct = [direct_prob(kind, wide_store.bag(i), params) for i in ids]
        hexes = [p.hex() for _, _, p in batched]
        assert hexes == [p.hex() for _, _, p in single]
        assert hexes == [p.hex() for p in direct]
        assert [r[:2] for r in batched] == [(i, wide_store.bag(i).label)
                                            for i in ids]

    @pytest.mark.parametrize("kind", KINDS)
    def test_builds_no_graph(self, wide_store, two_cpus, monkeypatch, kind):
        params = wide_params(kind)
        scored, ops = [], []
        spy_scores(monkeypatch, kind, scored.append)
        real = ad._result
        monkeypatch.setattr(ad, "_result", lambda data, parents, bw: (
            ops.append(parents) or real(data, parents, bw)))
        evaluate(wide_store, wide_store.ids(), params)
        assert len(scored) == len(WIDE_SIZES)
        # the model runs no tensor op at all; a head's ops have no parent
        # that needs a gradient
        if kind == "frmil":
            assert ops == []
        else:
            assert ops and not any(p.requires_grad for ps in ops for p in ps)
        assert all(t.grad is None for t in params.named().values())

    def test_helper_failure_is_raised_and_threads_joined(self, wide_store,
                                                         two_cpus,
                                                         monkeypatch):
        params = wide_params("frmil")
        ids = wide_store.ids()
        caller = threading.current_thread()
        threads = threading.active_count()
        cpus = START_CPUS
        evaluate(wide_store, ids, params)
        assert threading.active_count() == threads
        helper_failed = threading.Event()
        real = training.score_bags

        def score(bags, *args, **kwargs):
            if threading.current_thread() is not caller:
                helper_failed.set()
                raise MaskError("empty bag: no unmasked instances")
            if bags[0].features.size >= training.PARALLEL_MIN_VALUES:
                helper_failed.wait(timeout=5)  # a helper takes a bag first
            return real(bags, *args, **kwargs)

        monkeypatch.setattr(training, "score_bags", score)
        with pytest.raises(MaskError):
            evaluate(wide_store, ids, params)
        assert helper_failed.is_set()
        assert threading.active_count() == threads
        if cpus is not None:
            assert os.sched_getaffinity(0) == cpus  # the caller is unpinned

    def test_many_workers_score_every_bag_once(self, monkeypatch):
        # eight workers on any host, switching threads every microsecond,
        # with a pure-Python forward so that they meet in the shared list:
        # a bag taken twice or never shows in the calls or in the rows
        features = np.zeros((256, 512), np.float32)
        ids = [f"s{i}" for i in range(3000)]
        store = BagStore(root=Path("stress"), dim=512, bags={
            i: make_bag(i, 0, features) for i in ids})
        calls = []

        def forward(params, bag):
            calls.append(bag.bag_id)
            return types.SimpleNamespace(
                item=lambda: int(bag.bag_id[1:]) % 100 / 100)

        monkeypatch.setattr(training, "_usable_cpus", lambda: [None] * 8)
        monkeypatch.setattr(training, "comparator_forward", forward)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = evaluate(store, ids, wide_params("max_pool")).rows
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == sorted(ids)
        assert rows == [(i, 0, int(i[1:]) % 100 / 100) for i in ids]

    def test_one_cpu_starts_no_thread(self, wide_store, monkeypatch):
        params = wide_params("frmil")
        ids = wide_store.ids()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        caller = threading.current_thread()
        threads = threading.active_count()
        seen = []
        def on_call(_):
            seen.append((threading.current_thread(), threading.active_count()))

        spy_scores(monkeypatch, "frmil", on_call)
        rows = evaluate(wide_store, ids, params).rows
        assert seen == [(caller, threads)] * len(ids)
        assert [p.hex() for _, _, p in rows] == [
            direct_prob("frmil", wide_store.bag(i), params).hex() for i in ids]

    @pytest.mark.parametrize("n, d, heads, masked, gate", [
        (2100, 512, 8, False, None),  # above the real gate
        (50, 3, 1, True, 64),
        (37, 2, 1, False, 16),
        (64, 8, 2, True, 64),
    ])
    def test_lone_bag_above_the_gate_splits_its_grid(self, two_cpus,
                                                     monkeypatch, n, d, heads,
                                                     masked, gate):
        if gate is not None:  # a bag below the chunk gate is never split
            for name in ("GRID_SPLIT_MIN_VALUES", "PARALLEL_MIN_VALUES"):
                monkeypatch.setattr(training, name, gate)
        store = lone_store(n, d, masked)
        bag = store.bag("b")
        assert bag.features.size >= training.GRID_SPLIT_MIN_VALUES
        params = init_params(d, heads, seed=5)
        one_cpu = model.score_bags([bag], params)[0]
        calls = spy_on_cpus(monkeypatch)
        prob = evaluate(store, ["b"], params).rows[0][2]
        assert [name for name, _ in calls] == ["grid"]
        assert len(set(calls[0][1])) == 2  # the caller and one helper
        assert prob.hex() == one_cpu.hex()
        assert prob.hex() == direct_prob("frmil", bag, params).hex()

    def test_no_split_below_the_gate_or_inside_a_batch(self, wide_store,
                                                       two_cpus, monkeypatch):
        params = wide_params("frmil")
        calls = spy_on_cpus(monkeypatch)
        threads = threading.active_count()
        seen = []
        spy_scores(monkeypatch, "frmil",
                   lambda _: seen.append(threading.active_count()))
        big = max(wide_store.ids(),
                  key=lambda i: wide_store.bag(i).features.size)
        assert wide_store.bag(big).features.size < \
            training.GRID_SPLIT_MIN_VALUES
        evaluate(wide_store, [big], params)
        assert calls == [] and seen == [threads]
        monkeypatch.setattr(training, "GRID_SPLIT_MIN_VALUES", 1)
        evaluate(wide_store, wide_store.ids(), params)
        assert [name for name, _ in calls] == ["evaluate"]

    def test_one_cpu_splits_no_grid(self, monkeypatch):
        for name in ("GRID_SPLIT_MIN_VALUES", "PARALLEL_MIN_VALUES"):
            monkeypatch.setattr(training, name, 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        store = lone_store(50, 4, True)
        params = init_params(4, 2, seed=5)
        calls = spy_on_cpus(monkeypatch)
        threads = threading.active_count()
        seen = []
        spy_scores(monkeypatch, "frmil",
                   lambda _: seen.append(threading.active_count()))
        prob = evaluate(store, ["b"], params).rows[0][2]
        assert calls == [] and seen == [threads]
        assert prob.hex() == direct_prob("frmil", store.bag("b"), params).hex()

    def test_failing_helper_band_is_raised_and_cpus_restored(self, two_cpus,
                                                             monkeypatch):
        for name in ("GRID_SPLIT_MIN_VALUES", "PARALLEL_MIN_VALUES"):
            monkeypatch.setattr(training, name, 1)
        store = lone_store(60, 8, True)
        params = init_params(8, 2, seed=5)
        caller = threading.current_thread()
        threads = threading.active_count()
        real = ad._filter
        failed = threading.Event()

        def band(*args, **kwargs):
            if threading.current_thread() is not caller:
                failed.set()
                raise FloatingPointError("helper band")
            return real(*args, **kwargs)

        monkeypatch.setattr(ad, "_filter", band)
        with pytest.raises(FloatingPointError, match="helper band"):
            evaluate(store, ["b"], params)
        assert failed.is_set()
        assert threading.active_count() == threads
        if START_CPUS is not None:
            assert os.sched_getaffinity(0) == START_CPUS


class TestEvaluateChunks:
    """The model scores bags below ``PARALLEL_MIN_VALUES`` in graph-free
    chunks, and every other bag alone, with ``model.score_bags``, with the
    bytes of their own forwards."""

    @pytest.mark.parametrize("d, heads, dtype", [
        (2, 1, np.float32), (3, 1, np.float32), (64, 8, np.float32),
        (64, 8, np.float64)])
    def test_mixed_list_equals_per_bag_forwards(self, two_cpus, monkeypatch,
                                                d, heads, dtype):
        # a gate of 300 rows: 1-60 row bags span chunk boundaries, and the
        # two 300- and 420-row bags take the two-CPU pool
        monkeypatch.setattr(training, "PARALLEL_MIN_VALUES", 300 * d)
        params = init_params(d, heads, seed=7, dtype=dtype)
        rng = np.random.default_rng(d)
        sizes = [int(n) for n in rng.integers(1, 61, size=24)]
        sizes[0], sizes[-1] = 1, 60
        sizes[1::6] = [3, 2, 3, 2]
        bags = [make_bag(f"s{i}", i % 2, rng.standard_normal(
                    (n, d)).astype(np.float32)) for i, n in enumerate(sizes)]
        # in every other bag the rows are large and near-orthogonal to the
        # scorer, so each row's score is mostly rounding: a scorer product
        # that rounds otherwise than the bag's own moves its critical row.
        # Four of them hold only 2 or 3 rows
        w = params.scorer_w.data[:, 0].astype(np.float64)
        for i in range(1, len(bags), 2):
            r = bags[i].features.astype(np.float64)
            r -= np.outer(r @ w, w) / (w @ w)
            bags[i] = make_bag(bags[i].bag_id, bags[i].label,
                               (1e3 * r).astype(np.float32))
        bags[5] = pad_to(bags[5], sizes[5] + 7)
        bags.insert(3, make_bag("big0", 1, rng.standard_normal(
            (300, d)).astype(np.float32)))
        bags.insert(17, make_bag("big1", 0, rng.standard_normal(
            (420, d)).astype(np.float32)))
        store = BagStore(root=Path("mixed"), dim=d,
                         bags={bag.bag_id: bag for bag in bags})
        ids = [bag.bag_id for bag in bags]
        chunks = []
        real = training.score_bags
        monkeypatch.setattr(training, "score_bags", lambda chunk, *a, **k: (
            chunks.append([b.bag_id for b in chunk]) or real(chunk, *a, **k)))
        rows = evaluate(store, ids, params).rows
        assert [r[:2] for r in rows] == [(bag.bag_id, bag.label)
                                         for bag in bags]
        assert sorted(i for c in chunks for i in c) == sorted(ids)
        assert ["big0"] in chunks and ["big1"] in chunks  # alone
        assert len(chunks) >= 4  # the small bags fill two chunks or more
        direct = [model.bag_forward(bag, params).bag_prob.item()
                  for bag in bags]
        alone = [evaluate(store, [i], params).rows[0][2] for i in ids]
        hexes = [p.hex() for _, _, p in rows]
        assert hexes == [p.hex() for p in direct]
        assert hexes == [p.hex() for p in alone]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak resident set from /proc")
    def test_one_row_bags_beside_a_wide_grid_keep_a_small_buffer(self):
        """15,360 one-row D=8 bags after one of 1,024 rows (g = 32): 2^17
        feature values, one chunk by values alone, whose filter buffer
        would be 34 cells wide, 96 cells per feature row. Packed
        by the buffer's cells too, the evaluate peaks as the one-row bags
        alone do. Each run is a child process that reports the rise of its
        peak resident set, ``VmHWM``, over the evaluate, as in
        ``test_cli.py::TestTau``."""
        child = ("import re, sys\n"
                 "from pathlib import Path\n"
                 "import numpy as np\n"
                 "from frmil.bagdata import BagStore, make_bag\n"
                 "from frmil.model import init_params\n"
                 "from frmil.training import evaluate\n"
                 "def peak():\n"
                 "    status = open('/proc/self/status').read()\n"
                 "    return int(re.search(r'VmHWM:\\s*(\\d+)', status)[1])\n"
                 "rng = np.random.default_rng(0)\n"
                 "bags = {f'b{i}': make_bag(f'b{i}', i % 2, rng.standard_normal("
                 "(n, 8)).astype(np.float32))\n"
                 "        for i, n in enumerate([1024] + [1] * 15360)}\n"
                 "store = BagStore(root=Path('one-row'), dim=8, bags=bags)\n"
                 "ids = list(bags)[int(sys.argv[1]):]\n"
                 "params = init_params(8, 2, seed=0)\n"
                 "before = peak()\n"
                 "evaluate(store, ids, params)\n"
                 "print(peak() - before)\n")
        env = dict(os.environ, PYTHONPATH=str(
            Path(training.__file__).resolve().parents[1]))

        def rise_kb(skip):
            proc = subprocess.run([sys.executable, "-c", child, str(skip)],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout)

        alone = rise_kb(1)
        assert rise_kb(0) < 1.5 * alone


def param_digest(params):
    return hashlib.sha256(b"".join(t.data.tobytes() for t in
                                   params.named().values())).hexdigest()


@pytest.fixture(scope="module")
def pair_store():
    """One positive and one negative D=512 bag, both above the
    two-CPU gate."""
    rng = np.random.default_rng(31)
    bags = {bag_id: make_bag(bag_id, label, rng.standard_normal(
                (n, 512)).astype(np.float32))
            for bag_id, label, n in (("p", 1, 300), ("n", 0, 420))}
    return BagStore(root=Path("pair"), dim=512, bags=bags)


PAIR_SPLIT = {"train": ["p", "n"]}


def small_pair(seed):
    """A positive bag of 30 and a negative bag of 24 D=16 instances, below
    the two-CPU gate."""
    rng = np.random.default_rng(seed)
    return {bag_id: make_bag(bag_id, label, rng.standard_normal(
                (n, 16)).astype(np.float32))
            for bag_id, label, n in (("p", 1, 30), ("n", 0, 24))}


def keyed_rngs(seed, epoch, pair):
    """The positive and the negative bag's dropout generators of pair
    ``pair`` of ``epoch``, keyed as training keys them."""
    return [np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(1, epoch, pair, side))) for side in (0, 1)]


def wide_config(**kw):
    return TrainConfig(**dict(dict(tau=20.0, lr=1e-3, epochs=1, dropout=0.2,
                                   seed=3), **kw))


def helper_threads(calls):
    """The threads other than the caller that ran ``_on_cpus`` workers in
    ``spy_on_cpus`` calls."""
    return {t for _, threads in calls for t in threads} - {
        threading.current_thread()}


class TestSplitStep:
    """A pair of large bags steps on two CPUs, and any pair on one, with
    the bytes of one graph over both bags on one CPU."""

    def test_three_steps_equal_the_one_graph_step(self, two_cpus,
                                                  monkeypatch):
        rng = np.random.default_rng(21)
        pos = make_bag("p", 1, rng.standard_normal((300, 512)).astype(np.float32))
        neg = pad_to(make_bag("n", 0, rng.standard_normal(
            (256, 512)).astype(np.float32)), 290)  # 34 masked rows
        config = wide_config(tau=8.0)
        two = training._worker_cpus((pos, neg))
        assert len(two) == 2
        caller = threading.current_thread()
        threads = {}
        spy_forward(monkeypatch, "frmil", lambda out: threads.setdefault(
            out.mask.size, threading.current_thread()))
        runs = []
        for cpus in (None, [], two):  # the reference, inline, two CPUs
            monkeypatch.setattr(training, "_worker_cpus", lambda bags: cpus)
            threads.clear()
            params = init_params(512, 8, seed=4)
            named = params.named()
            state = AdamState.for_params(named)
            parts = []
            for pair in range(3):
                weights = config.loss_weights()
                parts.append(
                    training._pair_step(
                        pos, neg, params, state.g,
                        functools.partial(training._model_loss, config,
                                          weights, (0, pair)),
                        weights)
                    if cpus is not None
                    else pair_step_reference(pos, neg, params,
                                             keyed_rngs(config.seed, 0, pair),
                                             config))
                adam_step(named, {k: t.grad for k, t in named.items()}, state,
                          config.lr)
            runs.append((parts, named, state, dict(threads)))
        ref_parts, ref, ref_state, _ = runs[0]
        for cpus, (parts, named, state, seen) in zip(([], two), runs[1:]):
            assert seen[300] is caller
            assert (seen[290] is caller) == (cpus == []), cpus
            assert [{k: v.hex() for k, v in p.items()} for p in parts] == \
                [{k: v.hex() for k, v in p.items()} for p in ref_parts]
            for name, t in named.items():
                assert t.data.tobytes() == ref[name].data.tobytes(), name
                assert t.grad.tobytes() == ref[name].grad.tobytes(), name
                assert state.m[name].tobytes() == ref_state.m[name].tobytes()
                assert state.v[name].tobytes() == ref_state.v[name].tobytes()

    def test_train_on_one_cpu_gives_the_same_parameters(self, wide_store,
                                                        two_cpus,
                                                        monkeypatch):
        split = {"train": wide_store.ids()}
        config = wide_config(epochs=2)
        calls = spy_on_cpus(monkeypatch)
        two = train(wide_store, split, config)
        # the pairs without the 40-row bag took two CPUs
        assert any(name == "train" and len(set(threads)) == 2
                   for name, threads in calls)
        monkeypatch.setattr(training, "_usable_cpus", lambda: [0])
        calls.clear()
        one = train(wide_store, split, config)
        assert helper_threads(calls) == set()
        assert param_digest(two.params) == param_digest(one.params)
        assert two.history == one.history

    @pytest.mark.parametrize("kind", ["mean_pool", "max_pool"])
    def test_heads_step_on_the_caller(self, wide_store, two_cpus, monkeypatch,
                                      kind):
        split = {"train": wide_store.ids()}
        config = wide_config(epochs=2)
        assert training._worker_cpus(wide_store.bags.values())
        calls = spy_on_cpus(monkeypatch)
        two = train(wide_store, split, config, kind)
        names = [name for name, _ in calls]
        assert "train" not in names and "evaluate" in names
        monkeypatch.setattr(training, "_usable_cpus", lambda: [0])
        calls.clear()
        one = train(wide_store, split, config, kind)
        assert helper_threads(calls) == set()
        assert param_digest(two.params) == param_digest(one.params)
        assert two.history == one.history

    def test_negative_bag_first_gives_the_same_bytes(self):
        # below the gate: train steps both bags in turn on the caller
        config = wide_config(tau=4.0)
        store = BagStore(root=Path("small"), dim=16, bags=small_pair(23))
        trained = train(store, PAIR_SPLIT, config).params
        params = init_params(16, 8, seed=config.seed)
        named = params.named()
        pair_step_reference(store.bag("p"), store.bag("n"), params,
                            keyed_rngs(config.seed, 0, 0), config,
                            neg_first=True)
        adam_step(named, {k: t.grad for k, t in named.items()},
                  AdamState.for_params(named), config.lr)
        for name, t in trained.named().items():
            assert t.data.tobytes() == named[name].data.tobytes(), name
            assert t.grad.tobytes() == named[name].grad.tobytes(), name

    def test_a_pair_draws_new_masks_each_epoch(self, monkeypatch):
        masks = {}
        real = ad.dropout

        def dropout(a, rate, training, rng=None, inplace=False):
            if training:  # the draws rng is about to hand the real dropout
                draws = copy.deepcopy(rng).integers(0, 1 << 16, a.data.shape,
                                                    dtype=np.uint16)
                masks.setdefault(a.data.shape, []).append(
                    draws >= round(rate * (1 << 16)))
            return real(a, rate, training, rng, inplace)

        monkeypatch.setattr(ad, "dropout", dropout)
        store = BagStore(root=Path("small"), dim=16, bags=small_pair(24))
        train(store, PAIR_SPLIT, wide_config(tau=4.0, epochs=2))
        for rows in (30, 24):  # each bag's PEM tokens, epochs 0 and 1
            first, second = masks[(rows + 1, 16)]
            assert not first.all() and not second.all()
            assert not np.array_equal(first, second)

    def test_seed_above_64_bits_trains(self):
        config = wide_config(tau=4.0, seed=2**64 + 5)
        store = BagStore(root=Path("small"), dim=16, bags=small_pair(25))
        result = train(store, PAIR_SPLIT, config)
        assert [row["epoch"] for row in result.history] == [0]


class TestSplitStepThreads:
    """The split step's helper thread is joined and the caller unpinned,
    whatever happens."""

    @staticmethod
    def state():
        return (threading.active_count(),
                None if START_CPUS is None else os.sched_getaffinity(0))

    def test_helper_mask_error_is_raised(self, pair_store, two_cpus,
                                         monkeypatch):
        before = (threading.active_count(), START_CPUS)
        caller = threading.current_thread()
        real = training.bag_forward

        def forward(bag, *args, **kwargs):
            if threading.current_thread() is not caller:
                raise MaskError("empty bag: no unmasked instances")
            return real(bag, *args, **kwargs)

        monkeypatch.setattr(training, "bag_forward", forward)
        calls = spy_on_cpus(monkeypatch)
        with pytest.raises(MaskError):
            train(pair_store, PAIR_SPLIT, wide_config())
        assert [name for name, _ in calls] == ["train"]
        assert self.state() == before

    def test_non_finite_loss_names_the_batch(self, pair_store, two_cpus,
                                             monkeypatch):
        before = (threading.active_count(), START_CPUS)
        real = training.bag_loss

        def nan_loss(*args, **kwargs):
            loss, parts = real(*args, **kwargs)
            return loss, dict(parts, fm=np.float32("nan"))

        monkeypatch.setattr(training, "bag_loss", nan_loss)
        calls = spy_on_cpus(monkeypatch)
        with pytest.raises(TrainingError, match=r"non-finite loss at epoch 0 "
                           r"on batch \(p, n\)"):
            train(pair_store, PAIR_SPLIT, wide_config())
        assert [name for name, _ in calls] == ["train"]
        assert self.state() == before

    @pytest.mark.parametrize("case", ["one_cpu", "small_bags"])
    def test_starts_no_thread(self, case, pair_store, tiny_store, request,
                              monkeypatch):
        if case == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
            store, split, config = pair_store, PAIR_SPLIT, wide_config()
        else:
            request.getfixturevalue("two_cpus")
            (store, split), config = tiny_store, tiny_config(epochs=1)
        caller = threading.current_thread()
        threads = threading.active_count()
        seen = []
        spy_forward(monkeypatch, "frmil",
                    lambda _: seen.append((threading.current_thread(),
                                           threading.active_count())))
        calls = spy_on_cpus(monkeypatch)
        train(store, split, config)
        assert helper_threads(calls) == set()
        assert seen and set(seen) == {(caller, threads)}


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny_store, tmp_path):
        store, split = tiny_store
        config = tiny_config(epochs=1)
        result = train(store, split, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.params, config, path)
        loaded, cfg = load_checkpoint(path)
        for name, t in result.params.named().items():
            assert t.data.tobytes() == loaded.named()[name].data.tobytes()
        assert config.dim is None
        assert cfg.to_dict() == dict(config.to_dict(), dim=store.dim)

    def test_corrupted_magic(self, tiny_store, tmp_path):
        store, split = tiny_store
        config = tiny_config(epochs=1)
        result = train(store, split, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.params, config, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_bad_version(self, tiny_store, tmp_path):
        store, split = tiny_store
        config = tiny_config(epochs=1)
        save_checkpoint(train(store, split, config).params, config,
                        tmp_path / "m.ckpt")
        raw = bytearray((tmp_path / "m.ckpt").read_bytes())
        raw[4] = 99
        (tmp_path / "m.ckpt").write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_header_not_json_is_header_error(self, tiny_store, tmp_path):
        store, _ = tiny_store
        config = tiny_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(store.dim, config.heads, seed=0), config,
                        path)
        raw = bytearray(path.read_bytes())
        raw[9] = 0xFF  # the header's opening brace, now invalid UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointHeaderError, match="not JSON"):
            load_checkpoint(path)

    def test_truncation_detected(self, tiny_store, tmp_path):
        store, split = tiny_store
        config = tiny_config(epochs=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(train(store, split, config).params, config, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_shape_tamper_detected(self, tiny_store, tmp_path):
        import json as json_mod
        import struct
        store, split = tiny_store
        config = tiny_config(epochs=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(train(store, split, config).params, config, path)
        data = path.read_bytes()
        hlen = struct.unpack("<I", data[5:9])[0]
        header = json_mod.loads(data[9:9 + hlen])
        header["params"][0][1] = [1, 1]
        new_header = json_mod.dumps(header).encode()
        path.write_bytes(data[:5] + struct.pack("<I", len(new_header))
                         + new_header + data[9 + hlen:])
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path)

    def test_failed_write_keeps_old_file(self, tiny_store, tmp_path,
                                         monkeypatch):
        store, split = tiny_store
        config = tiny_config(epochs=1)
        history = train(store, split, config).history
        writes = {
            "final.ckpt": lambda path, seed: save_checkpoint(
                init_params(store.dim, config.heads, seed=seed), config, path),
            "metrics.csv": lambda path, seed: write_metrics_csv(
                history[seed:], path),
            "splits.json": lambda path, seed: write_split(
                {k: v[seed:] for k, v in split.items()}, path),
        }
        real_open = Path.open

        class DiskFull:
            """A file that takes 100 bytes, then fails."""

            def __init__(self, fh):
                self.fh, self.left = fh, 100

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, raw):
                if len(raw) > self.left:
                    self.fh.write(raw[:self.left])
                    raise OSError(28, "No space left on device")
                self.left -= len(raw)
                return self.fh.write(raw)

        for name, write in writes.items():
            path = tmp_path / name
            write(path, 0)
            before = path.read_bytes()
            monkeypatch.setattr(
                Path, "open",
                lambda self, *a, **k: DiskFull(real_open(self, *a, **k)))
            with pytest.raises(OSError, match="No space"):
                write(path, 1)
            monkeypatch.undo()
            assert path.read_bytes() == before, name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writes)

    def test_load_builds_no_model(self, tiny_store, tmp_path, monkeypatch):
        store, _ = tiny_store
        config = tiny_config()
        params = init_params(store.dim, config.heads, seed=0)
        save_checkpoint(params, config, tmp_path / "m.ckpt")

        def no_model(*args, **kwargs):
            raise AssertionError("load_checkpoint called init_params")
        monkeypatch.setattr(training, "init_params", no_model)
        monkeypatch.setattr(model, "init_params", no_model)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        for name, t in params.named().items():
            assert t.data.tobytes() == loaded.named()[name].data.tobytes()

    @pytest.mark.parametrize("dim, heads", [(16, 2), (8, 4)])
    def test_save_rejects_config_disagreeing_with_params(self, tiny_store,
                                                         tmp_path, dim, heads):
        store, _ = tiny_store
        params = init_params(store.dim, 2, seed=0)
        with pytest.raises(ValueError, match="disagree"):
            save_checkpoint(params, tiny_config(dim=dim, heads=heads),
                            tmp_path / "m.ckpt")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("field, value, message", [
        ("tau", -1.0, "tau must be finite and positive"),
        ("lr", 0.0, "lr must be finite and positive"),
        ("epochs", 0, "epochs must be >= 1")])
    def test_save_rejects_an_invalid_config(self, tiny_store, tmp_path,
                                            field, value, message):
        store, _ = tiny_store
        params = init_params(store.dim, 2, seed=0)
        with pytest.raises(ConfigError, match=message):
            save_checkpoint(params, tiny_config(**{field: value}),
                            tmp_path / "m.ckpt")
        assert not any(tmp_path.iterdir())

    def test_save_rejects_one_channel_params(self, tmp_path):
        # built by hand: init_params refuses dim 1
        params = model.ModelParams(dim=1, heads=1, **{
            name: Tensor(np.ones(shape, np.float32))
            for name, shape in model.param_shapes(1).items()})
        with pytest.raises(ConfigError, match="dim must be >= 2, got 1"):
            save_checkpoint(params, tiny_config(heads=1), tmp_path / "m.ckpt")
        assert not any(tmp_path.iterdir())

    def test_load_then_evaluate_identical(self, tiny_store, tmp_path):
        store, split = tiny_store
        config = tiny_config(epochs=2)
        result = train(store, split, config)
        before = evaluate(store, split["test"], result.params,
                          pem_residual=config.pem_residual)
        path = tmp_path / "m.ckpt"
        save_checkpoint(result.params, config, path)
        loaded, cfg = load_checkpoint(path)
        after = evaluate(store, split["test"], loaded,
                         pem_residual=cfg.pem_residual)
        assert before.rows == after.rows
        assert before.accuracy == after.accuracy and before.auc == after.auc


class TestTrainConfig:
    def test_round_trip(self):
        cfg = tiny_config()
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"learning_rate": 1e-3})

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-4
        assert cfg.epochs == 100
        assert cfg.heads == 8
        assert cfg.dropout == 0.2
        assert cfg.gammas == (0.33, 0.33, 0.33)

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(tau=-1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(dropout=1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(dim=10, heads=3).validate()
