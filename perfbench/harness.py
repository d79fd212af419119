"""Workloads, measurement loops, correctness gates and the result line.

Every workload is a closed loop in one process: the next training step
or scored bag starts only after the previous one has returned. The
benchmark times calls into the engine's public functions from outside;
nothing inside ``src/frmil`` is instrumented.

An untraced run measures the end-to-end metrics and scales the timings of
its measured window to a reference host speed (see hostspeed.py). A
traced run repeats the same set-up and scoring with spans around each
call, drives the training step stage by stage, and reports the
per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from itertools import cycle
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from frmil import autodiff as ad
from frmil import model
from frmil.autodiff import Tensor
from frmil.bagdata import (
    BagStore,
    SyntheticSpec,
    balanced_batches,
    generate_synthetic,
    make_bag,
    read_store,
    split_ids,
    write_store,
)
from frmil.baseline import baseline_classify, compute_magnitudes, estimate_tau
from frmil.objectives import total_loss
from frmil.training import (
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

from .hostspeed import REFERENCE_S, HostSpeed
from .stats import median, percentile, samples_beyond
from .trace import NO_TRACER, Tracer

SPLIT_FRACTIONS = (0.6, 0.2, 0.2)
SETUP_MIN_REPS = 5        # set-ups per run, at least; setup_s is their median
SETUP_SECONDS = 3.0       # keep setting up until this much time has passed
CHECKPOINT_REPS = 5       # traced save/load round trips on trained workloads
TRAIN_SHARE = 0.5         # share of the window a training workload spends training
PROBE_SHARE = 0.25        # share score-wsi spends on traced training steps
MIN_PASSES = 3            # scoring passes made even when the window is over
MIN_PROBE_PAIRS = 2       # pairs stepped traced and untraced, at least
BATCH_EPOCHS = 10         # balanced_batches calls timed per traced run
AUC_FLOOR = 0.90          # train-small test AUC below this fails the run
COVERAGE_FLOOR = 0.95     # stage self time over step time, at least
STAGES = ("model.select", "model.recalibrate", "model.pem", "model.pmsa",
          "model.head", "objectives.loss", "autodiff.backward",
          "training.adam")

# score-wsi cuts its bags to these sizes, log-spaced over 256..4096, so
# every seed scores the same size mix and p90 tracks the largest bags. An
# odd count puts p50 inside one bag's samples, not between two bags.
SCORE_SIZES = tuple(int(round(256 * 16 ** (k / 12))) for k in range(13))


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SyntheticSpec fields except the seed
    # epochs of the training run whose parameters are scored; 0 scores the
    # checkpoint that set-up saves and loads instead
    train_epochs: int = 0
    bag_sizes: Tuple[int, ...] = ()  # sizes the bags are cut to, in order
    auc_floor: Optional[float] = None


WORKLOADS = {
    w.name: w for w in (
        # acceptance store: the step is Python graph overhead, BLAS idles
        Workload("train-small",
                 dict(n_bags=200, dim=64, bag_min=20, bag_max=50),
                 train_epochs=8, auc_floor=AUC_FLOOR),
        # WSI-like bags of about 1024 instances at D=512: K/V projections,
        # the depthwise conv and their backward dominate. The narrow size
        # range keeps the epoch's work the same from seed to seed; 27 bags
        # split into 16 train, 6 val and an odd 5 test bags.
        Workload("train-wsi",
                 dict(n_bags=27, dim=512, bag_min=960, bag_max=1088),
                 train_epochs=1),
        # read-only scoring of a loaded checkpoint over a size spread
        Workload("score-wsi",
                 dict(n_bags=len(SCORE_SIZES), dim=512,
                      bag_min=SCORE_SIZES[-1], bag_max=SCORE_SIZES[-1]),
                 bag_sizes=SCORE_SIZES),
    )
}


def stock_config(tau: float, seed: int, epochs: int) -> TrainConfig:
    """The engine's default run: 8 heads, dropout 0.2, all three losses."""
    return TrainConfig(tau=tau, epochs=epochs, seed=seed)


@dataclass
class Fixture:
    store: BagStore
    split: Dict[str, List[str]]
    tau: float
    read_bytes: int
    params: Optional[model.ModelParams] = None   # the loaded checkpoint
    config: Optional[TrainConfig] = None


@dataclass
class Tally:
    """Operations attempted and failed, and what failed."""

    pairs: int = 0
    bags: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def set_up(w: Workload, seed: int, root: Path, tr) -> Fixture:
    """Generate, write and read the store, split it, estimate tau; on
    score-wsi also save and load the checkpoint it scores."""
    with tr.span("bagdata.generate"):
        bags = generate_synthetic(SyntheticSpec(**w.spec, seed=seed))
    if w.bag_sizes:
        bags = [make_bag(b.bag_id, b.label, b.features[:n].copy())
                for b, n in zip(bags, w.bag_sizes)]
    with tr.span("bagdata.write_store"):
        write_store(bags, root)
    del bags
    with tr.span("bagdata.read_store"):
        store = read_store(root)
    split = split_ids(store.labels(), SPLIT_FRACTIONS, seed)
    train_bags = [store.bag(i) for i in split["train"]]
    with tr.span("baseline.magnitudes"):
        records = compute_magnitudes(train_bags)
    with tr.span("baseline.estimate_tau"):
        tau = estimate_tau(records, recalibrated=True).tau
    read_bytes = sum(b.features.nbytes for b in store.bags.values())
    fx = Fixture(store, split, tau, read_bytes)
    if not w.train_epochs:
        ckpt = root / "model.ckpt"
        config = stock_config(tau, seed, 1)
        params = model.init_params(store.dim, config.heads, seed)
        with tr.span("training.save_checkpoint"):
            save_checkpoint(params, config, ckpt)
        with tr.span("training.load_checkpoint"):
            fx.params, fx.config = load_checkpoint(ckpt)
    return fx


def set_up_repeatedly(w: Workload, seed: int, work: Path,
                      tr) -> Tuple[Fixture, List[float]]:
    times = []
    until = time.perf_counter() + SETUP_SECONDS
    while len(times) < SETUP_MIN_REPS or time.perf_counter() < until:
        root = work / f"store{len(times)}"
        fx = None  # let the previous store go before building the next
        t0 = time.perf_counter()
        with tr.span("setup"):
            fx = set_up(w, seed, root, tr)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(root)
    return fx, times


# ---------------------------------------------------------------------------
# training


def count_graph(root: Tensor) -> int:
    """Tensors reachable from root through recorded parents, root and
    leaves included; 0 when root records no graph."""
    if not root._parents:
        return 0
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def train_once(fx: Fixture, config: TrainConfig, tally: Tally, pairs_per_epoch: int):
    t0 = time.perf_counter()
    try:
        result = train(fx.store, fx.split, config)
    except TrainingError as exc:
        tally.fail(pairs_per_epoch * config.epochs, f"training failed: {exc}")
        return None, None
    elapsed = time.perf_counter() - t0
    tally.pairs += pairs_per_epoch * config.epochs
    return result.params, elapsed / config.epochs


def traced_forward(tr, bag, params, config: TrainConfig, training: bool,
                   rng) -> model.ForwardTrace:
    """model.bag_forward, one span per stage."""
    dropout = config.dropout
    with tr.span("model.forward"):
        h = Tensor(np.asarray(bag.features, dtype=params.scorer_w.dtype))
        mask = bag.mask
        with tr.span("model.select"):
            scores, max_index, h_q, a_max = model.select_max_instance(h, mask, params)
        with tr.span("model.recalibrate"):
            h_recal = model.recalibrate(h, h_q, mask)
        with tr.span("model.pem"):
            tokens = model.pem_forward(h_recal, mask, params, training=training,
                                       rng=rng, dropout=dropout,
                                       residual=config.pem_residual)
        token_mask = np.concatenate([[True], mask])
        with tr.span("model.pmsa"):
            z, attention = model.pmsa_forward(h_q, tokens, token_mask, params,
                                              training=training, rng=rng,
                                              dropout=dropout)
        with tr.span("model.head"):
            bag_logit = ad.add(ad.matmul(z, params.clf_w), params.clf_b)
            bag_prob = ad.sigmoid(bag_logit)
        return model.ForwardTrace(scores=scores, max_index=max_index, a_max=a_max,
                                  h_q=h_q, h_recal=h_recal, tokens=tokens,
                                  attention=attention, z=z, bag_logit=bag_logit,
                                  bag_prob=bag_prob, mask=mask.copy())


def _grads(named):
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for k, t in named.items()}


def probe_step(tr, forward, pos, neg, named, state, weights, config) -> None:
    """One balanced-pair step, the calls training.train makes."""
    with tr.span("training.step"):
        tp, tn = forward(pos), forward(neg)
        with tr.span("objectives.loss"):
            loss, _ = total_loss(tp, tn, (1, 0), weights,
                                 fm_squared=config.fm_squared)
        with tr.span("autodiff.backward"):
            for t in named.values():
                t.grad = None
            ad.backward(loss)
        with tr.span("training.adam"):
            adam_step(named, _grads(named), state, config.lr)


def step_probe(fx: Fixture, seed: int, until: float, tr: Tracer,
               tally: Tally) -> dict:
    """Training steps from a fresh initialisation. Each pair is stepped
    twice: once with a span per stage and once with none."""
    store = fx.store
    labeled = store.labels(fx.split["train"])
    for epoch in range(BATCH_EPOCHS):
        with tr.span("bagdata.balanced_batches"):
            pairs = balanced_batches(labeled, seed, epoch)
    config = stock_config(fx.tau, seed, 1)
    weights = config.loss_weights()
    params = model.init_params(store.dim, config.heads, seed)
    named = params.named()
    state = AdamState.for_params(named)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))

    def staged(bag):
        return traced_forward(tr, bag, params, config, True, rng)

    def whole(bag):
        return model.bag_forward(bag, params, training=True, rng=rng,
                                 dropout=config.dropout,
                                 pem_residual=config.pem_residual)

    overheads = []
    for k, (pos_id, neg_id) in enumerate(cycle(pairs)):
        if k >= MIN_PROBE_PAIRS and time.perf_counter() >= until:
            break
        pos, neg = store.bag(pos_id), store.bag(neg_id)
        took = {}
        # alternate which goes first, so neither always finds warm caches
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            t0 = time.perf_counter()
            if traced:
                probe_step(tr, staged, pos, neg, named, state, weights, config)
            else:
                probe_step(NO_TRACER, whole, pos, neg, named, state, weights,
                           config)
            took[traced] = time.perf_counter() - t0
        overheads.append(took[True] / took[False] - 1.0)
        tally.pairs += 2

    def step_nodes():
        trng = np.random.default_rng(0)
        pos, neg = store.bag(pairs[0][0]), store.bag(pairs[0][1])
        tp = model.bag_forward(pos, params, training=True, rng=trng,
                               dropout=config.dropout)
        tn = model.bag_forward(neg, params, training=True, rng=trng,
                               dropout=config.dropout)
        return count_graph(total_loss(tp, tn, (1, 0), weights)[0])

    nodes = step_nodes()
    if step_nodes() != nodes:
        tally.fail(1, "graph node count per step does not repeat")
    return {"trace_overhead": overheads, "graph_nodes_per_step": nodes}


# ---------------------------------------------------------------------------
# scoring


def bad_probability(p: float) -> bool:
    return not (np.isfinite(p) and 0.0 <= p <= 1.0)


class Scorer:
    """Scoring passes over fixed bags. A pass runs training.evaluate on all
    of them at once, then on each bag alone, then the recalibrated
    magnitude baseline on all of them."""

    def __init__(self, fx: Fixture, ids: Sequence[str], params, config,
                 tr, tally: Tally, traced: bool):
        self.fx, self.ids, self.params, self.config = fx, list(ids), params, config
        self.bags = [fx.store.bag(i) for i in ids]
        self.tr, self.tally, self.traced = tr, tally, traced
        self.pass_s: List[float] = []
        self.latency_s: List[float] = []
        self.baseline_pass_s: List[float] = []
        self.report = None      # the first batched evaluate
        self.baseline = None    # the first baseline pass

    def one_pass(self) -> None:
        fx, tr, tally, params = self.fx, self.tr, self.tally, self.params
        t0 = time.perf_counter()
        report = evaluate(fx.store, self.ids, params, split="score")
        self.pass_s.append(time.perf_counter() - t0)
        tally.bags += len(self.ids)
        probs = [p for _, _, p in report.rows]
        if self.report is None:
            self.report = report
            bad = sum(map(bad_probability, probs))
            if bad:
                tally.fail(bad, "evaluate gave a probability outside [0, 1]")
        elif probs != [p for _, _, p in self.report.rows]:
            tally.fail(len(probs), "batched evaluate differs between passes")
        for bag_id, bag, p in zip(self.ids, self.bags, probs):
            t0 = time.perf_counter()
            with tr.span("training.evaluate"):
                one = evaluate(fx.store, [bag_id], params, split="score")
            self.latency_s.append(time.perf_counter() - t0)
            tally.bags += 1
            if one.rows[0][2] != p:
                tally.fail(1, f"bag {bag_id}: one-bag evaluate gives "
                              f"{one.rows[0][2]!r}, batched gives {p!r}")
            if self.traced:
                with tr.span("score.forward"):
                    staged = traced_forward(tr, bag, params, self.config,
                                            False, None)
                if staged.bag_prob.item() != p:
                    tally.fail(1, f"bag {bag_id}: staged forward differs "
                                  "from evaluate")
                with tr.span("baseline.classify"):
                    baseline_classify([bag], fx.tau, recalibrate=True)
                tally.bags += 1
        t0 = time.perf_counter()
        base = baseline_classify(self.bags, fx.tau, recalibrate=True)
        self.baseline_pass_s.append(time.perf_counter() - t0)
        tally.bags += len(self.bags)
        if self.baseline is None:
            self.baseline = base
            bad = sum(bad_probability(row[3]) for row in base.rows)
            if bad:
                tally.fail(bad, "baseline gave a probability outside [0, 1]")

    def graph_nodes(self) -> int:
        """Graph size behind one bag's probability, built twice."""
        first = [count_graph(model.bag_forward(self.bags[0], self.params).bag_prob)
                 for _ in range(2)]
        if first[0] != first[1]:
            self.tally.fail(1, "graph node count per score does not repeat")
        return first[0]


def fingerprint(report, baseline) -> str:
    """Hash of the model and baseline probability rows, exact to the bit."""
    h = hashlib.sha256()
    for bag_id, label, p in report.rows:
        h.update(f"{bag_id},{label},{float(p).hex()}\n".encode())
    for bag_id, label, _, p, _ in baseline.rows:
        h.update(f"{bag_id},{label},{float(p).hex()}\n".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# one run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, traced: bool,
        root: Path, units: Dict[str, str], env: dict) -> int:
    w = WORKLOADS[workload]
    tr = Tracer() if traced else NO_TRACER
    tally = Tally()
    host = HostSpeed()
    work = root / ".perfbench" / f"work-{workload}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        fx, setup_times = set_up_repeatedly(w, seed, work, tr)
        host.probe()
        start = time.perf_counter()
        deadline = start + seconds
        samples = {"setup_s": setup_times, "epoch_s": []}
        if w.train_epochs:
            pairs_per_epoch = len(balanced_batches(
                fx.store.labels(fx.split["train"]), seed, 0))
            config = stock_config(fx.tau, seed, w.train_epochs)
            params, per_epoch = train_once(fx, config, tally, pairs_per_epoch)
            if params is None:
                return finish(w, seed, traced, tally, {}, units, env, None, tr,
                              root, samples, host)
            samples["epoch_s"].append(per_epoch)
            scorer = Scorer(fx, fx.split["test"], params, config, tr, tally, traced)
            if traced:
                samples.update(step_probe(fx, seed, start + TRAIN_SHARE * seconds,
                                          tr, tally))
                for rep in range(CHECKPOINT_REPS):
                    ckpt = work / f"trained{rep}.ckpt"
                    with tr.span("training.save_checkpoint"):
                        save_checkpoint(params, config, ckpt)
                    with tr.span("training.load_checkpoint"):
                        load_checkpoint(ckpt)
            else:
                # alternate epochs and scoring passes so that both sample
                # the whole window, the training share of it going to epochs
                one_epoch = replace(config, epochs=1)
                training, scoring = time.perf_counter() - start, 0.0
                while (t0 := time.perf_counter()) < deadline:
                    if training * (1 - TRAIN_SHARE) <= scoring * TRAIN_SHARE:
                        _, per_epoch = train_once(fx, one_epoch, tally, pairs_per_epoch)
                        if per_epoch is None:
                            break
                        samples["epoch_s"].append(per_epoch)
                        training += time.perf_counter() - t0
                    else:
                        scorer.one_pass()
                        scoring += time.perf_counter() - t0
                    host.maybe_probe()
        else:
            scorer = Scorer(fx, fx.store.ids(), fx.params, fx.config, tr,
                            tally, traced)
            if traced:
                samples.update(step_probe(fx, seed, start + PROBE_SHARE * seconds,
                                          tr, tally))
        while len(scorer.pass_s) < MIN_PASSES or time.perf_counter() < deadline:
            scorer.one_pass()
            host.maybe_probe()
        if not w.train_epochs:
            samples["epoch_s"] = scorer.pass_s
        samples.update(pass_s=scorer.pass_s, latency_s=scorer.latency_s,
                       baseline_pass_s=scorer.baseline_pass_s)
        report = scorer.report
        if w.auc_floor is not None and (report.auc is None
                                        or report.auc < w.auc_floor):
            tally.fail(1, f"test AUC {report.auc} below the floor {w.auc_floor}")
        quality = {"test_bce": report.mean_bce, "test_auc": report.auc,
                   "fingerprint": fingerprint(report, scorer.baseline)}
        if traced:
            samples["graph_nodes_per_score"] = scorer.graph_nodes()
            metrics = per_layer_metrics(w, fx, tr, samples, scorer, quality, tally)
        else:
            metrics = end_to_end_metrics(samples, scorer)
        return finish(w, seed, traced, tally, metrics, units, env, quality, tr,
                      root, samples, host)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_metrics(samples, scorer: Scorer) -> dict:
    lat_ms = [x * 1e3 for x in scorer.latency_s]
    n = len(scorer.ids)
    return {
        "setup_s": (median(samples["setup_s"]), len(samples["setup_s"])),
        "epoch_s": (median(samples["epoch_s"]), len(samples["epoch_s"])),
        "eval_bags_per_s": (median([n / x for x in scorer.pass_s]),
                            len(scorer.pass_s)),
        "score_ms_p50": (percentile(lat_ms, 50), len(lat_ms)),
        "score_ms_p90": (percentile(lat_ms, 90), len(lat_ms)),
        "baseline_bags_per_s": (median([n / x for x in scorer.baseline_pass_s]),
                                len(scorer.baseline_pass_s)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def per_layer_metrics(w, fx, tr: Tracer, samples, scorer: Scorer, quality,
                      tally) -> dict:
    stage_root = "training.step" if w.train_epochs else "score.forward"

    def ms(name, under=None):
        xs = tr.durations(name, under)
        return median(xs) * 1e3, len(xs)

    def s(name):
        xs = tr.durations(name)
        return median(xs), len(xs)

    steps = tr.durations("training.step")
    selfs = tr.self_time_by_name("training.step")
    coverage = sum(selfs.get(name, 0.0) for name in STAGES) / sum(steps)
    if coverage < COVERAGE_FLOOR:
        tally.fail(1, f"stage spans cover {coverage:.1%} of training.step, "
                      f"under {COVERAGE_FLOOR:.0%}")
    overheads = samples["trace_overhead"]
    n_train = len(fx.split["train"])
    read = tr.durations("bagdata.read_store")
    mags = tr.durations("baseline.magnitudes")
    return {
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.graph_nodes_per_step": (samples["graph_nodes_per_step"], 1),
        "autodiff.graph_nodes_per_score": (samples["graph_nodes_per_score"], 1),
        "model.select_ms": ms("model.select", stage_root),
        "model.recalibrate_ms": ms("model.recalibrate", stage_root),
        "model.pem_ms": ms("model.pem", stage_root),
        "model.pmsa_ms": ms("model.pmsa", stage_root),
        "model.head_ms": ms("model.head", stage_root),
        "model.forward_ms": ms("model.forward", stage_root),
        "objectives.loss_ms": ms("objectives.loss"),
        "training.step_ms": ms("training.step"),
        "training.adam_ms": ms("training.adam"),
        "training.evaluate_ms_per_bag": ms("training.evaluate"),
        "training.save_checkpoint_ms": ms("training.save_checkpoint"),
        "training.load_checkpoint_ms": ms("training.load_checkpoint"),
        "training.test_bce": (quality["test_bce"], len(scorer.ids)),
        "bagdata.generate_s": s("bagdata.generate"),
        "bagdata.write_store_s": s("bagdata.write_store"),
        "bagdata.read_store_s": s("bagdata.read_store"),
        "bagdata.read_mb_per_s": (fx.read_bytes / 1e6 / median(read), len(read)),
        "bagdata.balanced_batches_ms": ms("bagdata.balanced_batches"),
        "baseline.magnitudes_ms_per_bag": (median(mags) * 1e3 / n_train, len(mags)),
        "baseline.estimate_tau_ms": ms("baseline.estimate_tau"),
        "baseline.classify_ms_per_bag": ms("baseline.classify"),
        "trace.step_coverage_pct": (coverage * 100.0, len(steps)),
        "trace.overhead_pct": (median(overheads) * 100.0, len(overheads)),
    }


def at_reference_speed(metrics: dict, scale: float) -> dict:
    """The measured window's times multiplied, and its rates divided, by
    the host speed scale. Set-up is largely file I/O, which the probe
    does not track, so setup_s stays raw like every per-layer metric."""
    out = dict(metrics)
    for name in ("epoch_s", "score_ms_p50", "score_ms_p90"):
        value, n = out[name]
        out[name] = (value * scale, n)
    for name in ("eval_bags_per_s", "baseline_bags_per_s"):
        value, n = out[name]
        out[name] = (value / scale, n)
    return out


def finish(w, seed, traced, tally, raw, units, env, quality, tr, root,
           samples, host: HostSpeed) -> int:
    """Print the report and the result line; write the run's record."""
    if raw and set(raw) != set(units):
        raise RuntimeError(f"computed metrics {sorted(raw)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    scale = host.scale()
    metrics = raw if traced or not raw else at_reference_speed(raw, scale)
    print(f"workload {w.name} seed {seed} trace {int(traced)}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"host speed: probe median {median(host.samples) * 1e3:.3f} ms over "
          f"{len(host.samples)} probes, reference {REFERENCE_S * 1e3:.3f} ms, "
          f"scale {scale:.4f}" + ("" if traced else "; window timings are scaled"))
    for name, (value, n) in metrics.items():
        note = ""
        if name.endswith("_p90"):
            note = f", {samples_beyond(n, 90)} beyond p90"
        if value != raw[name][0]:
            note += f"; raw {raw[name][0]:.6f}"
        print(f"  {name:32s} {value:14.6f} {units[name]:6s} (n={n}{note})")
    if quality is not None:
        auc_text = "n/a" if quality["test_auc"] is None else f"{quality['test_auc']:.4f}"
        print(f"  scored bags: mean BCE {quality['test_bce']:.6f} nats, AUC {auc_text}")
        print(f"fingerprint {w.name} seed {seed}: {quality['fingerprint']}")
    attempted = tally.pairs + tally.bags
    print(f"attempted {attempted} (train pairs {tally.pairs}, bags scored "
          f"{tally.bags}), failed {tally.failed}")
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, (value, _) in metrics.items()}}
    record = {"workload": w.name, "seed": seed, "trace": int(traced),
              "environment": env, "result": result,
              "fingerprint": quality and quality["fingerprint"],
              "raw_metrics": {name: value for name, (value, _) in raw.items()},
              "host_speed": {"scale": scale, "samples": host.samples},
              "samples": samples}
    out = root / ".perfbench" / f"{w.name}-seed{seed}-trace{int(traced)}.json"
    if traced:
        tr.write(out, record)
    else:
        out.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


def environment(root: Path, blas_threads: int, nproc: int) -> dict:
    """CPU, interpreter, numpy, BLAS and commit the result was taken on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": blas_threads, "commit": git_commit(root)}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
