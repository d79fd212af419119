"""Acceptance suite: one test per exit criterion, one printed verdict each.

The suite is property-based plus scaled synthetic analogues; benchmark
headline numbers are out of reach at desk scale, so criteria check
directions, tolerances, oracles, and determinism instead. Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from frmil import autodiff as ad
from frmil.autodiff import Tensor
from frmil.bagdata import (
    SyntheticSpec,
    generate_synthetic,
    read_store,
    split_ids,
    write_split,
    write_store,
)
from frmil.baseline import (
    bag_probability,
    baseline_classify,
    compute_magnitudes,
    estimate_tau,
)
from frmil.cli import main as cli_main
from frmil.model import bag_forward, init_params, pmsa_forward, recalibrate
from frmil.objectives import magnitude_term
from frmil.selftest import gradient_checks
from frmil.training import (
    TrainConfig,
    auc,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics_csv,
)
from oracles import (
    brute_force_baseline,
    depthwise_conv2d_3x3,
    pad_to,
    pairwise_auc,
    reference_op_checks,
)

STORE_SEED = 42
SPLIT_FRACS = (0.6, 0.2, 0.2)


def verdict(ok: bool, text: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


@pytest.fixture(scope="module")
def store_and_split(tmp_path_factory):
    """The synthetic analogue store: 200 bags, D=64, witness rate 0.1,
    separation 1.0, noise 1.0, fixed seed."""
    root = tmp_path_factory.mktemp("acceptance") / "store"
    spec = SyntheticSpec(n_bags=200, dim=64, bag_min=20, bag_max=50,
                         witness_rate=0.1, pos_frac=0.5, separation=1.0,
                         noise_scale=1.0, seed=STORE_SEED)
    write_store(generate_synthetic(spec), root)
    store = read_store(root)
    split = split_ids(store.labels(), SPLIT_FRACS, seed=STORE_SEED)
    write_split(split, root / "splits.json")
    return store, split, root


@pytest.fixture(scope="module")
def estimated_tau(store_and_split):
    store, split, _ = store_and_split
    records = compute_magnitudes([store.bag(i) for i in split["train"]])
    return estimate_tau(records, recalibrated=True).tau


def test_criterion_1_gradient_integrity():
    """Finite differences (64-bit, h=1e-5) over every differentiable op and
    the end-to-end objective on a small balanced batch, within 1e-4."""
    t0 = time.monotonic()
    results = gradient_checks() + reference_op_checks()
    elapsed = time.monotonic() - t0
    worst = max(r.max_err for r in results)
    names = {r.name for r in results}
    assert any("total_loss" in n for n in names)
    ok = all(r.passed for r in results) and elapsed < 60.0
    verdict(ok, f"criterion 1 gradient integrity: {len(results)} checks, "
                f"max rel err {worst:.2e} <= 1e-4, {elapsed:.1f}s < 60s")


def test_criterion_2_property_suites():
    """Margin probability, re-calibration, margin loss, and attention
    normalization properties over 100 randomized cases each."""
    rng = np.random.default_rng(0)
    failures = 0

    # margin probability: bounds, monotonicity, clamp at mu >= tau
    for _ in range(100):
        tau = float(rng.uniform(0.1, 60.0))
        mus = np.sort(rng.uniform(0.0, 2.5 * tau, size=12))
        probs = [bag_probability(m, tau) for m in mus]
        if not all(0.0 <= p <= 1.0 for p in probs):
            failures += 1
        if not all(a <= b + 1e-12 for a, b in zip(probs, probs[1:])):
            failures += 1
        if bag_probability(tau * (1.0 + rng.random()), tau) != 1.0:
            failures += 1

    # re-calibration: elementwise non-negativity, critical row exact zero
    params = init_params(8, 2, seed=0)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        feats = rng.normal(size=(n, 8)).astype(np.float32)
        h = Tensor(feats)
        idx = int(rng.integers(0, n))
        out = recalibrate(h, ad.take_rows(h, [idx]), np.ones(n, bool))
        if (out.data < 0).any() or np.abs(out.data[idx]).max() != 0.0:
            failures += 1

    # margin loss, the positive bag's term plus the negative bag's: hand
    # value and the zero-iff-margins-met property
    def margin_loss(hp, hn, tau):
        return ad.add(magnitude_term(hp, np.ones(len(hp.data), bool), 1, tau),
                      magnitude_term(hn, np.ones(len(hn.data), bool), 0,
                                     tau)).item()

    pos = Tensor(np.array([[1.0, 0.0], [3.0, 0.0]], dtype=np.float64))
    neg = Tensor(np.array([[0.5, 0.0], [0.0, 0.5]], dtype=np.float64))
    hand = margin_loss(pos, neg, tau=2.0)
    if abs(hand - 1.0) > 1e-12:
        failures += 1
    for _ in range(100):
        n_p, n_n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        tau = float(rng.uniform(0.5, 3.0))
        hp = rng.normal(size=(n_p, 3)) * rng.uniform(0.1, 4.0)
        hn = rng.normal(size=(n_n, 3)) * (0.0 if rng.random() < 0.5 else 1.0)
        val = margin_loss(Tensor(hp, dtype=np.float64),
                          Tensor(hn, dtype=np.float64), tau=tau)
        margins_met = (np.linalg.norm(hp, axis=1) >= tau).all() \
            and (np.linalg.norm(hn, axis=1) == 0.0).all()
        if (val < 1e-12) != margins_met or val < 0.0:
            failures += 1

    # attention: every head's weights sum to 1 over unmasked tokens
    params = init_params(8, 4, seed=1)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        tokens = Tensor(rng.normal(size=(n, 8)).astype(np.float32))
        h_q = Tensor(rng.normal(size=(1, 8)).astype(np.float32))
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[0] = True
        _, attn = pmsa_forward(h_q, tokens, mask, params)
        if np.abs(attn.sum(axis=-1) - 1.0).max() > 1e-6:
            failures += 1
    verdict(failures == 0,
            f"criterion 2 property suites: {failures} failures "
            f"over 4 x 100 randomized cases")


def test_criterion_3_oracle_equivalence():
    """Fast paths equal naive reference implementations exactly."""
    # (a) baseline vs brute force on 50 synthetic bags
    bags = generate_synthetic(SyntheticSpec(n_bags=50, dim=12, bag_min=2,
                                            bag_max=9, seed=3))
    mismatches = 0
    for recal in (False, True):
        report = baseline_classify(bags, tau=80.0, recalibrate=recal)
        got = [row[4] for row in report.rows]
        mismatches += sum(int(a != b) for a, b in
                          zip(got, brute_force_baseline(bags, 80.0, recal)))

    # (b) rank AUC vs pairwise concordance on 100 random score sets
    rng = np.random.default_rng(4)
    auc_diff = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.random(n), 2)
        labels = (rng.random(n) < 0.5).astype(int)
        labels[0], labels[-1] = 1, 0
        auc_diff = max(auc_diff,
                       abs(auc(scores, labels) - pairwise_auc(scores, labels)))

    # (c) the fused positional filter vs the plain depthwise convolution
    conv_diff = 0.0
    for _ in range(5):
        n, d = int(rng.integers(1, 50)), int(rng.integers(2, 9))
        x, w, b = (rng.normal(size=s) for s in ((n, d), (d, 3, 3), (d,)))
        fast = ad.grid_positional(Tensor(x), np.ones(n, bool), Tensor(w),
                                  Tensor(b), Tensor(np.zeros((1, d))),
                                  residual=False).data[1:]
        g = math.isqrt(n - 1) + 1
        grid = np.vstack([x, np.zeros((g * g - n, d))]).T.reshape(1, d, g, g)
        conv = depthwise_conv2d_3x3(Tensor(grid), Tensor(w), Tensor(b)).data
        conv_diff = max(conv_diff, float(np.abs(
            fast - conv.reshape(d, g * g).T[:n]).max()))
    ok = mismatches == 0 and auc_diff == 0.0 and conv_diff == 0.0
    verdict(ok, f"criterion 3 oracle equivalence: baseline mismatches "
                f"{mismatches}, auc diff {auc_diff}, conv diff {conv_diff}")


def test_criterion_4_recalibration_direction(store_and_split):
    """Recalibrated baseline beats the raw baseline by >= 10 points on the
    held-out split, margins estimated on the train split only."""
    store, split, _ = store_and_split
    t0 = time.monotonic()
    train_bags = [store.bag(i) for i in split["train"]]
    test_bags = [store.bag(i) for i in split["test"]]
    records = compute_magnitudes(train_bags)
    tau_raw = estimate_tau(records, recalibrated=False).tau
    tau_rec = estimate_tau(records, recalibrated=True).tau
    acc_raw = baseline_classify(test_bags, tau_raw, recalibrate=False).accuracy
    acc_rec = baseline_classify(test_bags, tau_rec, recalibrate=True).accuracy
    elapsed = time.monotonic() - t0
    ok = (acc_rec - acc_raw) >= 0.10 and elapsed < 30.0
    verdict(ok, f"criterion 4 direction analogue: raw {acc_raw:.3f} -> "
                f"recalibrated {acc_rec:.3f} ({(acc_rec - acc_raw) * 100:+.1f} "
                f"points >= +10), {elapsed:.1f}s < 30s")


def test_criterion_5_end_to_end_learning(store_and_split, estimated_tau):
    """Full model with all three losses and stock defaults reaches test
    AUC >= 0.90 within 100 epochs and beats the mean-pooling head."""
    store, split, _ = store_and_split
    config = TrainConfig(tau=estimated_tau, epochs=100, heads=8, dropout=0.2,
                         lr=1e-4, gammas=(0.33, 0.33, 0.33), seed=STORE_SEED)
    t0 = time.monotonic()
    result = train(store, split, config)
    report = evaluate(store, split["test"], result.params,
                      threshold=config.threshold,
                      pem_residual=config.pem_residual, split="test")
    comparator = train(store, split, config, "mean_pool")
    comp_report = evaluate(store, split["test"], comparator.params,
                           threshold=config.threshold, split="test")
    elapsed = time.monotonic() - t0
    ok = (report.auc is not None and report.auc >= 0.90
          and comp_report.auc is not None and report.auc > comp_report.auc
          and elapsed < 300.0)
    verdict(ok, f"criterion 5 end-to-end learning: test AUC {report.auc:.4f} "
                f">= 0.90 and > mean-pooling {comp_report.auc:.4f}, "
                f"{elapsed:.0f}s < 300s")


def test_criterion_6_ablation_machinery(store_and_split, estimated_tau,
                                        tmp_path):
    """The ablation runner emits the four-configuration results table with
    finite scores at or above chance on the separable store."""
    _, _, root = store_and_split
    run_dir = tmp_path / "ablation"
    code = cli_main(["ablate", "--data", str(root), "--out", str(run_dir),
                     "--epochs", "15", "--tau", f"{estimated_tau}",
                     "--seed", str(STORE_SEED)])
    assert code == 0
    lines = (run_dir / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "config,acc,auc"
    rows = [line.split(",") for line in lines[1:]]
    names = [r[0] for r in rows]
    ok = (names == ["bag", "bag+fm", "bag+max", "bag+max+fm"]
          and all(np.isfinite(float(r[1])) and np.isfinite(float(r[2]))
                  and float(r[1]) >= 0.5 and float(r[2]) >= 0.5 for r in rows))
    summary = ", ".join(f"{r[0]}={float(r[2]):.3f}" for r in rows)
    verdict(ok, f"criterion 6 ablation machinery: 4 rows, AUC {summary}, "
                f"all finite and >= 0.5")


def test_criterion_7_determinism_and_round_trips(store_and_split,
                                                 estimated_tau, tmp_path):
    """Byte-identical reruns, lossless store and checkpoint round trips,
    and masked-padding invariance."""
    store, split, root = store_and_split
    config = TrainConfig(tau=estimated_tau, epochs=3, heads=8, dropout=0.2,
                         lr=1e-4, seed=STORE_SEED)

    # identical seeds give byte-identical metrics CSVs
    csvs = []
    for name in ("runA", "runB"):
        result = train(store, split, config)
        path = tmp_path / f"{name}.csv"
        write_metrics_csv(result.history, path)
        csvs.append(path.read_bytes())
    same_metrics = csvs[0] == csvs[1]

    # store round trip is bitwise lossless
    reread = read_store(root)
    store_lossless = all(
        reread.bag(i).features.tobytes() == store.bag(i).features.tobytes()
        for i in store.ids())

    # checkpoint round trip is bitwise lossless
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(result.params, config, ckpt)
    loaded, _ = load_checkpoint(ckpt)
    ckpt_lossless = all(
        loaded.named()[k].data.tobytes() == t.data.tobytes()
        for k, t in result.params.named().items())

    # masked padding changes nothing (within 1e-6) on 20 random bags
    rng = np.random.default_rng(STORE_SEED)
    worst = 0.0
    for _ in range(20):
        bag_id = store.ids()[int(rng.integers(0, len(store.bags)))]
        bag = store.bag(bag_id)
        padded = pad_to(bag, bag.features.shape[0] + int(rng.integers(1, 30)))
        p0 = bag_forward(bag, result.params).bag_prob.item()
        p1 = bag_forward(padded, result.params).bag_prob.item()
        worst = max(worst, abs(p1 - p0))
    padding_ok = worst < 1e-6

    ok = same_metrics and store_lossless and ckpt_lossless and padding_ok
    verdict(ok, f"criterion 7 determinism and round trips: metrics bytes "
                f"{'equal' if same_metrics else 'DIFFER'}, store "
                f"{'lossless' if store_lossless else 'LOSSY'}, checkpoint "
                f"{'lossless' if ckpt_lossless else 'LOSSY'}, padding drift "
                f"{worst:.2e} < 1e-6")
