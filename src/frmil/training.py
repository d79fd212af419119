"""Training loop, Adam optimizer, evaluation metrics, and checkpoints.

One loop trains the full model and the mean-/max-pooling heads on
balanced (one positive, one negative) bag pairs with bias-corrected Adam,
evaluating train and val after every epoch; one ``evaluate`` scores
either. Runs are bitwise deterministic given the store bytes, the
config, and the seed, on any number of CPUs.

Every parameter set is the views of one arena (``model.arena``), and
``adam_step`` updates the whole arena in one banded pass over it and over
gradient and moment arenas of the same layout.

Checkpoint format (version 2): magic "FRML", one version byte, a
little-endian uint32 header length, a JSON header
``{"config": <every TrainConfig field, dim set>, "params": [[name, shape],
...]}``, then every parameter's raw little-endian float32 bytes. The
params list and the blob layout are ``model.param_shapes(dim)`` in its
order, so a load checks them against the table instead of reading
offsets.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import os
import struct
import threading
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import ShapeError, Tensor, _grid_side, backward, mul
from .bagdata import (
    BagStore,
    SingleClassError,
    balanced_batches,
    require_fields,
    write_atomic,
    write_csv,
)
from .model import (
    MIN_DIM,
    ComparatorParams,
    ModelParams,
    arena,
    arena_of,
    bag_forward,
    comparator_forward,
    init_comparator,
    init_params,
    param_shapes,
    score_bags,
)
from .objectives import LossWeights, bag_loss, bce_loss, bce_values, pair_parts

CHECKPOINT_MAGIC = b"FRML"
CHECKPOINT_VERSION = 2


class ConfigError(ValueError):
    """A run configuration is malformed (unknown key, bad value, ...)."""


class TrainingError(RuntimeError):
    """Training hit a non-finite loss, gradient, or parameter."""


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointValueError(CheckpointError):
    pass


class CheckpointDimError(CheckpointError):
    """A checkpoint's feature dim differs from the store it is applied to."""


class CheckpointHeaderError(CheckpointError):
    """The JSON header is not a JSON object holding ``config`` and
    ``params``, its config lacks a field or fails validation, or the blob
    runs past the parameters the header describes."""


@dataclass
class TrainConfig:
    """Every knob of a training run, with the stock defaults."""

    tau: float = 8.48
    gammas: Tuple[float, float, float] = (0.33, 0.33, 0.33)
    lr: float = 1e-4
    epochs: int = 100
    heads: int = 8
    dropout: float = 0.2
    dim: Optional[int] = None       # taken from the store when unset
    seed: int = 0
    fm_squared: bool = False        # norm convention of the margin loss
    pem_residual: bool = True
    use_max_loss: bool = True       # ablation switches
    use_fm_loss: bool = True
    threshold: float = 0.5

    def validate(self) -> None:
        self._check_types()
        if self.tau <= 0 or not np.isfinite(self.tau):
            raise ConfigError(f"tau must be finite and positive, got {self.tau}")
        if len(self.gammas) != 3 or not all(0 <= g < np.inf for g in self.gammas):
            raise ConfigError(f"gammas must be three finite non-negative "
                              f"reals, got {self.gammas}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.dim is not None and self.dim < MIN_DIM:
            raise ConfigError(f"dim must be >= {MIN_DIM}, got {self.dim}")
        if self.dim is not None and self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by {self.heads} heads")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")

    def _check_types(self) -> None:
        """Reject a value of the wrong type before any range check."""
        def number(v, kind=numbers.Real):
            return isinstance(v, kind) and not isinstance(v, bool)

        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "gammas":
                ok = isinstance(value, (list, tuple)) and all(map(number, value))
            elif isinstance(f.default, bool):
                ok = isinstance(value, bool)
            elif isinstance(f.default, float):
                ok = number(value)
            else:  # an int; dim may also be None
                ok = (number(value, numbers.Integral)
                      or (f.name == "dim" and value is None))
            if not ok:
                raise ConfigError(f"{f.name} has the wrong type: {value!r}")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["gammas"] = list(self.gammas)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        cfg.gammas = tuple(float(g) for g in cfg.gammas)
        return cfg

    def loss_weights(self) -> LossWeights:
        g1, g2, g3 = self.gammas
        return LossWeights(gamma_bag=g1,
                           gamma_max=g2 if self.use_max_loss else 0.0,
                           gamma_fm=g3 if self.use_fm_loss else 0.0,
                           tau=self.tau)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Views of the parameter arena (``model.arena``) and of moment and
    gradient arenas laid out like it; ``arenas`` holds the flat p, g, m, v."""

    params: Dict[str, np.ndarray]
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    g: Dict[str, np.ndarray]
    arenas: Tuple[np.ndarray, ...]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, named: Dict[str, Tensor]) -> "AdamState":
        """State over the parameters' arena; TrainingError unless they are
        its views in order (``model.arena``)."""
        params = {name: t.data for name, t in named.items()}
        flat = arena_of(params)
        if flat is None:
            raise TrainingError(f"parameters {', '.join(params)} are not the "
                                f"views of one arena (model.arena)")
        shapes = {name: a.shape for name, a in params.items()}
        (g, gv), (m, mv), (v, vv) = (arena(shapes, flat.dtype) for _ in range(3))
        return cls(params, mv, vv, gv, (flat, g, m, v))


# Elements adam_step updates at a time. A band of p, g, m, v and the two
# scratch arrays (6 x 256 KiB in float32) stays in a 2 MB L2 cache, where
# the D=512 arena (6 x 4 MB of them) is streamed through memory once per
# operation.
_ADAM_BAND = 64 * 1024


def _first_non_finite(views: Dict[str, np.ndarray]) -> str:
    return next(name for name, a in views.items() if not np.isfinite(a).all())


def adam_step(named: Dict[str, Tensor], grads: Dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the whole parameter arena, in place.

    Each gradient is copied into the gradient arena unless it is its view
    there already (``_pair_step``); a missing one is zeros. Parameters and
    moments change in place, through two scratch arrays, rounding in the
    order of ``m += (1 - b1) g``, ``v += ((1 - b2) g) g`` and
    ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)``, over bands of about
    ``_ADAM_BAND`` elements of the arenas. Every element gets the same
    operations in the same order, so the bytes depend on neither the band
    size nor the layout, and the pads stay zero: 0 / (0 + eps).

    Aborts on a parameter rebound since ``AdamState.for_params`` and on a
    non-finite gradient or resulting parameter, naming the first offender.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, tensor in named.items():
        if tensor.data is not state.params.get(name):
            raise TrainingError(f"parameter {name} was rebound after "
                                f"AdamState.for_params")
    for name, view in state.g.items():
        g = grads.get(name)
        if g is None:
            view.fill(0)
        elif g is not view:
            if g.shape != view.shape:
                raise TrainingError(f"gradient shape {g.shape} != parameter "
                                    f"{name} shape {view.shape}")
            np.copyto(view, g)
    p, g, m, v = state.arenas
    if not np.isfinite(g).all():
        raise TrainingError(f"non-finite gradient for parameter "
                            f"{_first_non_finite(state.g)} at step {t}")
    scratch = np.empty_like(p[:_ADAM_BAND]), np.empty_like(p[:_ADAM_BAND])
    finite = True
    for lo in range(0, len(p), _ADAM_BAND):
        band = slice(lo, lo + _ADAM_BAND)
        pb, gb, mb, vb = p[band], g[band], m[band], v[band]
        update, denom = (s[:len(pb)] for s in scratch)
        mb *= state.beta1
        mb += np.multiply(1.0 - state.beta1, gb, out=update)
        vb *= state.beta2
        np.multiply(1.0 - state.beta2, gb, out=update)
        vb += np.multiply(update, gb, out=update)
        np.divide(mb, bc1, out=update)
        np.multiply(lr, update, out=update)
        np.divide(vb, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        pb -= np.divide(update, denom, out=update)
        finite = finite and bool(np.isfinite(pb).all())
    if not finite:
        raise TrainingError(f"non-finite parameter "
                            f"{_first_non_finite(state.params)} after step {t}")


# ---------------------------------------------------------------------------
# metrics


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-statistic area under the ROC curve, midranks for ties."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        missing = "positive" if n_pos == 0 else "negative"
        raise SingleClassError(f"AUC undefined: no {missing} labels")
    _, where, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[where]
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class EvalReport:
    split: str
    accuracy: float
    auc: Optional[float]            # None when only one class is present
    rows: List[Tuple[str, int, float]]  # (bag_id, label, probability)
    mean_bce: float


# A batch is scored on every usable CPU only when at least two of its bags
# hold this many feature values (rows x dim) or more. Below it a forward is
# mostly Python that holds the interpreter lock, and two threads only pass
# the lock back and forth. Measured with one BLAS thread on a 2-core VM,
# the caller plus one pinned helper against the caller alone, 20
# alternating passes over 16 (D=512) or 40 (D=64) equal bags, median
# ratio of bags per second: at D=512, 1.00x at 128 rows (65,536 values),
# 1.32x at 256 and 1.23x at 1024; at D=64, 0.70x at 50 rows, 0.84x at
# 256, 1.25x at 1024 and 1.40x at 2048 (131,072 values). The pooling heads
# do less per value: at D=512 they read 0.71-0.93x at 256 rows and
# 1.24-1.57x at 1024 and 4096.
PARALLEL_MIN_VALUES = 1 << 17

# A bag scored with no large partner (``_worker_cpus`` gives no helper) is
# spread over two CPUs, its grid fill and filter split in halves of grid
# rows (``autodiff._tokens``), when it holds this many feature
# values or more. Measured with one BLAS thread on a 2-core VM at D=512,
# 100-150 alternating eval-mode forwards of one bag, median ms on one CPU
# against two: 1.74 vs 2.12 at 512 rows, 2.97 vs 2.92 at 1024, 3.81 vs
# 3.81 at 1290, 4.05 vs 4.08 at 1536, 4.24 vs 4.07 at 1625, 4.68 vs 4.30
# at 1800, 5.22 vs 4.73 at 2048 (2^20 values), 9.67 vs 8.19 at 3251 and
# 11.68 vs 9.83 at 4096. Below about 1,600 rows the helper's start, the
# pinning and the barrier cost what the second CPU saves.
GRID_SPLIT_MIN_VALUES = 1 << 20


def _usable_cpus() -> List[Optional[int]]:
    """The CPUs this process may run on, sorted; ``None`` for each where
    the platform names none and cannot pin a thread to one."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def _worker_cpus(bags) -> List[Optional[int]]:
    """One usable CPU per bag of at least ``PARALLEL_MIN_VALUES`` feature
    values, the caller's first; none unless two bags are that large."""
    large = sum(b.features.size >= PARALLEL_MIN_VALUES for b in bags)
    return _usable_cpus()[:large] if large > 1 else []


def _pin(cpus: set) -> None:
    if None not in cpus:
        with contextlib.suppress(OSError):  # a CPU gone offline
            os.sched_setaffinity(0, cpus)


def _on_cpus(cpus: List[Optional[int]], work: Callable[[int], None],
             stop: Callable[[], None], name: str) -> None:
    """Run ``work(0)`` on the caller and ``work(i)`` on one helper thread
    for each further ``cpus[i]``, each pinned to its CPU while it works.

    The first failure calls ``stop()``, which must make the other workers
    return soon, and is re-raised once every helper has been joined. The
    caller gets its CPU set back.

    Each worker is pinned to a CPU of its own. Left to itself, Linux often
    starts a thread on its creator's CPU and, while the two hand the
    interpreter lock back and forth, keeps both there: on a 2-core VM, 3
    of 4 fresh processes scored at 1.0 CPU-second per second, slower than
    one thread. Pinning the helper alone did not move the caller off its
    CPU. With both pinned, 23 of 24 passes in 8 fresh processes ran at
    1.45-1.87 CPU-seconds per second.
    """
    failures: List[BaseException] = []
    lock = threading.Lock()

    def run(i: int) -> None:
        _pin({cpus[i]})
        try:
            work(i)
        except BaseException as exc:
            with lock:
                failures.append(exc)
            stop()

    own = _usable_cpus()
    helpers = [threading.Thread(target=run, args=(i,), name=f"{name}-{i}")
               for i in range(1, len(cpus))]
    started = []
    try:
        for thread in helpers:
            thread.start()
            started.append(thread)
        run(0)
    except BaseException:  # a helper did not start
        stop()
        raise
    finally:
        for thread in started:
            thread.join()
        _pin(set(own))
    if failures:
        raise failures[0]


def _wrap(params: ModelParams | ComparatorParams, requires_grad: bool,
          arrays: Optional[Dict[str, np.ndarray]] = None):
    """The parameters as new tensors over ``arrays``, by default their own:
    detached for scoring, a thread's own leaves, or a copy."""
    arrays = arrays or {name: t.data for name, t in params.named().items()}
    return replace(params, **{name: Tensor(a, requires_grad=requires_grad)
                              for name, a in arrays.items()})


def _grid_run(bag) -> Optional[Callable]:
    """``_on_cpus`` over the first two usable CPUs, as the ``score_bags``
    run of a bag of at least ``GRID_SPLIT_MIN_VALUES`` feature values; None
    for a smaller bag or on one CPU."""
    if bag.features.size < GRID_SPLIT_MIN_VALUES:
        return None
    cpus = _usable_cpus()[:2]
    return functools.partial(_on_cpus, cpus, name="grid") \
        if len(cpus) == 2 else None


def _bag_probs(bags, score: Callable) -> List[float]:
    """Probabilities of the bags, in order; ``score(bags, run)`` gives those
    of a list of bags, with ``run`` as in ``model.score_bags``.

    With two or more large bags and more than one usable CPU, the caller
    and one helper thread per further CPU (at most one per further large
    bag), each pinned to a CPU of its own (``_on_cpus``), take bags,
    largest first, from one shared list; numpy releases the interpreter
    lock inside the big products and filters. BLAS runs one thread per
    product, so every product rounds the same way on any thread and the
    bytes equal those of scoring the bags one by one. The first failure
    stops further bags and is re-raised. Otherwise the bags are scored in
    turn on the caller, each of ``GRID_SPLIT_MIN_VALUES`` or more with its
    positional grid spread over two CPUs (``_grid_run``).
    """
    cpus = _worker_cpus(bags)
    if len(cpus) < 2:
        return [score([b], _grid_run(b))[0] for b in bags]
    probs: List[Optional[float]] = [None] * len(bags)
    pending = sorted(range(len(bags)), key=lambda i: bags[i].features.size)
    lock = threading.Lock()

    def work(_: int) -> None:
        while True:
            with lock:
                if not pending:
                    return
                i = pending.pop()
            probs[i] = score([bags[i]], None)[0]

    def stop() -> None:
        with lock:
            pending.clear()

    _on_cpus(cpus, work, stop, "evaluate")
    return probs


# A chunk's tall filter buffer (``autodiff._tokens``) holds at most this
# many grid cells per feature row: the 3 x 3 zero-ringed grid of a one-row
# bag, the most any lone bag needs. Packed by feature values alone, 15,360
# one-row D=8 bags after a 1,024-row bag (g = 32) shared a buffer 34 cells
# wide, 96 cells per row, and their evaluate's peak memory rose by 102 MB
# instead of 15 MB.
CHUNK_CELLS_PER_ROW = 9


def _chunks(bags) -> List[List[int]]:
    """The indices of the bags below ``PARALLEL_MIN_VALUES`` feature values,
    in order, packed into runs of at most that many values whose tall
    filter buffer, the sum of the grids' g + 2 rows times the widest
    g + 2 (taking g from every row, masked or not), holds at most
    ``CHUNK_CELLS_PER_ROW`` cells per feature row."""
    chunks: List[List[int]] = []
    held, rows, tall, wide = PARALLEL_MIN_VALUES, 0, 0, 0  # full: open one
    for i, bag in enumerate(bags):
        size = bag.features.size
        if size >= PARALLEL_MIN_VALUES:
            continue
        n = len(bag.features)
        side = _grid_side(n) + 2
        held, rows, tall, wide = (held + size, rows + n, tall + side,
                                  max(wide, side))
        if (held > PARALLEL_MIN_VALUES
                or tall * wide > CHUNK_CELLS_PER_ROW * rows):
            chunks.append([])
            held, rows, tall, wide = size, n, side, side
        chunks[-1].append(i)
    return chunks


def evaluate(store: BagStore, ids: Sequence[str],
             params: ModelParams | ComparatorParams, threshold: float = 0.5,
             pem_residual: bool = True, split: str = "") -> EvalReport:
    """Evaluation-mode scores of the given bags, with no graph. The model
    scores every bag with ``model.score_bags``: its bags below
    ``PARALLEL_MIN_VALUES`` feature values a chunk at a time
    (``_chunks``), every other bag alone (``_bag_probs``). A pooling head
    runs ``comparator_forward`` on each bag (``_bag_probs``) over tensors
    that need no gradient. Either way a bag's probability has the bytes of
    its own graph forward."""
    if not ids:
        raise ValueError("evaluate needs at least one bag id")
    bags = [store.bag(bag_id) for bag_id in ids]
    probs: List[Optional[float]] = [None] * len(bags)
    if isinstance(params, ModelParams):
        def score(chunk, run=None):
            return score_bags(chunk, params, pem_residual, run)
        chunks = _chunks(bags)
    else:
        heads = _wrap(params, False)

        def score(chunk, run=None):
            return [comparator_forward(heads, bag).item() for bag in chunk]
        chunks = []
    for chunk in chunks:
        for i, p in zip(chunk, score([bags[i] for i in chunk])):
            probs[i] = p
    rest = [i for i, p in enumerate(probs) if p is None]
    for i, p in zip(rest, _bag_probs([bags[i] for i in rest], score)):
        probs[i] = p
    rows = [(bag_id, bag.label, p) for bag_id, bag, p in zip(ids, bags, probs)]
    labels = [label for _, label, _ in rows]
    correct = sum(int((p >= threshold) == (lab == 1)) for _, lab, p in rows)
    try:
        area = auc(probs, labels)
    except SingleClassError:
        area = None
    return EvalReport(split=split, accuracy=correct / len(rows), auc=area,
                      rows=rows,
                      mean_bce=float(np.mean(bce_values(probs, labels))))


def metric_text(value: Optional[float], digits: int = 6) -> str:
    """value to ``digits`` decimals, or "nan" for None (an AUC over one
    class)."""
    return "nan" if value is None else f"{value:.{digits}f}"


METRIC_COLUMNS = ("loss", "loss_bag", "loss_max", "loss_fm", "acc", "auc")


def write_metrics_csv(history: Sequence[dict], path) -> None:
    write_csv(path, [["epoch", "split", *METRIC_COLUMNS]]
              + [[row["epoch"], row["split"]]
                 + [metric_text(row[k]) for k in METRIC_COLUMNS]
                 for row in history])


def write_scores_csv(report: EvalReport, path) -> None:
    write_csv(path, [["bag_id", "label", "probability"]]
              + [[bag_id, label, f"{prob:.6f}"]
                 for bag_id, label, prob in report.rows])


# ---------------------------------------------------------------------------
# training loops


@dataclass
class TrainResult:
    params: ModelParams | ComparatorParams
    history: List[dict] = field(default_factory=list)
    best_params: Optional[ModelParams | ComparatorParams] = None
    best_val_auc: Optional[float] = None
    best_epoch: Optional[int] = None


def _epoch_rows(epoch, parts_mean, weights, train_report, val_report):
    g1, g2, g3 = weights.gamma_bag, weights.gamma_max, weights.gamma_fm
    loss_bag = g1 * parts_mean["bag"]
    loss_max = g2 * parts_mean["max"]
    loss_fm = g3 * parts_mean["fm"]
    rows = [{
        "epoch": epoch, "split": "train",
        "loss": loss_bag + loss_max + loss_fm,
        "loss_bag": loss_bag, "loss_max": loss_max, "loss_fm": loss_fm,
        "acc": train_report.accuracy, "auc": train_report.auc,
    }]
    if val_report is not None:
        rows.append({
            "epoch": epoch, "split": "val",
            "loss": val_report.mean_bce, "loss_bag": val_report.mean_bce,
            "loss_max": 0.0, "loss_fm": 0.0,
            "acc": val_report.accuracy, "auc": val_report.auc,
        })
    return rows


def _dropout_rng(seed, epoch, pair, side) -> np.random.Generator:
    """One bag's dropout generator in a training forward: side 0 (positive)
    or 1 of pair ``pair`` of ``balanced_batches(labeled, seed, epoch)``. Its
    masks depend on neither the thread that runs the forward nor the order
    of the bags."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(1, epoch, pair, side)))


def _pair_step(pos, neg, params: ModelParams | ComparatorParams,
               grads: Dict[str, np.ndarray], loss_of: Callable,
               weights: LossWeights) -> Dict[str, float]:
    """One training step over a balanced pair: leaves each parameter's
    gradient in its ``grad`` and returns the loss parts.

    ``loss_of(side, bag, params)`` gives a bag's scalar loss and float32
    parts, side 0 being the positive bag. Each bag runs its forward, loss
    and backward on its own; a parameter is used once per bag, so its
    gradient is ``g_pos + g_neg``, the same bytes in either order. The
    positive bag runs on the caller over ``params``. When ``_worker_cpus``
    gives the model two CPUs, the negative bag runs beside it on a helper
    thread (``_on_cpus``) over leaves of its own, and the sum is written
    into ``grads`` (``AdamState.g``); otherwise it runs next, over
    ``params``. The pooling heads always step on the caller.
    """
    cpus = (_worker_cpus((pos, neg)) if isinstance(params, ModelParams)
            else [])
    leaves = [params, _wrap(params, True) if len(cpus) == 2 else params]
    parts: list = [None, None]
    for t in params.named().values():
        t.grad = None

    def work(i: int) -> None:
        loss, parts[i] = loss_of(i, (pos, neg)[i], leaves[i])
        backward(loss)

    if len(cpus) < 2:
        work(0)
        work(1)
    else:
        _on_cpus(cpus, work, lambda: None, "train")
        for (name, t), neg_leaf in zip(params.named().items(),
                                       leaves[1].named().values()):
            t.grad = np.add(t.grad, neg_leaf.grad, out=grads[name])
    return pair_parts(*parts, weights)


def _model_loss(config: TrainConfig, weights: LossWeights,
                key: Tuple[int, int], side: int, bag, params: ModelParams):
    """The model's ``loss_of`` once given its first three arguments: the
    bag's forward draws its dropout masks from ``_dropout_rng`` with
    ``key``, the pair's (epoch, pair index)."""
    trace = bag_forward(bag, params, training=True,
                        rng=_dropout_rng(config.seed, *key, side),
                        dropout=config.dropout,
                        pem_residual=config.pem_residual)
    return bag_loss(trace, 1 - side, weights, config.fm_squared)


def _head_loss(side: int, bag, params: ComparatorParams):
    """A pooling head's ``loss_of``: half the bag's cross-entropy."""
    loss = mul(bce_loss(comparator_forward(params, bag), 1 - side), 0.5)
    zero = np.float32(0.0)
    return loss, {"bag": loss.data, "max": zero, "fm": zero}


def train(store: BagStore, split: Dict[str, List[str]], config: TrainConfig,
          kind: str = "frmil") -> TrainResult:
    """Train on the train split, tracking val each epoch. kind "frmil" is
    the full model on the weighted objective, "mean_pool" and "max_pool"
    are pooling heads on plain bag cross-entropy; each steps by
    ``_pair_step``, the model on one CPU or two with the same bytes."""
    config.validate()
    if config.dim is not None and config.dim != store.dim:
        raise ConfigError(f"config dim {config.dim} != store dim {store.dim}")
    if kind == "frmil" and store.dim < MIN_DIM:
        raise ShapeError(f"store dim {store.dim} is below the model's floor "
                         f"of {MIN_DIM} channels")
    if store.dim % config.heads != 0:
        raise ConfigError(f"store dim {store.dim} not divisible by "
                          f"{config.heads} heads")
    train_ids = split["train"]
    val_ids = split.get("val", [])
    labeled = store.labels(train_ids)
    if kind == "frmil":
        params = init_params(store.dim, config.heads, config.seed)
        weights = config.loss_weights()
    else:
        params = init_comparator(kind, store.dim, config.seed)
        weights = LossWeights(1.0, 0.0, 0.0)
    named = params.named()
    state = AdamState.for_params(named)
    result = TrainResult(params=params)
    for epoch in range(config.epochs):
        sums = {"bag": 0.0, "max": 0.0, "fm": 0.0}
        pairs = balanced_batches(labeled, config.seed, epoch)
        for pair, (pos_id, neg_id) in enumerate(pairs):
            pos, neg = store.bag(pos_id), store.bag(neg_id)
            loss_of = (functools.partial(_model_loss, config, weights,
                                         (epoch, pair))
                       if kind == "frmil" else _head_loss)
            parts = _pair_step(pos, neg, params, state.g, loss_of, weights)
            if not np.isfinite(parts["total"]):
                raise TrainingError(f"non-finite loss at epoch {epoch} on "
                                    f"batch ({pos_id}, {neg_id})")
            adam_step(named, {k: t.grad for k, t in named.items()}, state,
                      config.lr)
            for key in sums:
                sums[key] += parts[key]
        parts_mean = {k: v / len(pairs) for k, v in sums.items()}
        train_report = evaluate(store, train_ids, params,
                                threshold=config.threshold,
                                pem_residual=config.pem_residual, split="train")
        val_report = None
        if val_ids:
            val_report = evaluate(store, val_ids, params,
                                  threshold=config.threshold,
                                  pem_residual=config.pem_residual, split="val")
            if val_report.auc is not None and (
                    result.best_val_auc is None
                    or val_report.auc > result.best_val_auc):
                result.best_val_auc = val_report.auc
                result.best_epoch = epoch
                flat, best = arena({k: a.shape for k, a in state.params.items()})
                flat[...] = state.arenas[0]  # one copy, pads included
                result.best_params = _wrap(params, True, best)
        result.history.extend(
            _epoch_rows(epoch, parts_mean, weights, train_report, val_report))
    return result


# ---------------------------------------------------------------------------
# checkpoints


def _header_params(dim: int) -> List[list]:
    return [[name, list(shape)] for name, shape in param_shapes(dim).items()]


def save_checkpoint(params: ModelParams, config: TrainConfig, path) -> None:
    """Write params, and config with its dim taken from them, atomically;
    a config that fails ``TrainConfig.validate`` writes nothing."""
    if config.dim not in (None, params.dim) or config.heads != params.heads:
        raise ValueError(f"config dim {config.dim} and heads {config.heads} "
                         f"disagree with the parameters' dim {params.dim} "
                         f"and heads {params.heads}")
    config = replace(config, dim=params.dim)
    config.validate()
    header = json.dumps({"config": config.to_dict(),
                         "params": _header_params(params.dim)}).encode("utf-8")
    write_atomic(path, b"".join([
        CHECKPOINT_MAGIC, bytes([CHECKPOINT_VERSION]),
        struct.pack("<I", len(header)), header,
        *(np.ascontiguousarray(t.data, dtype="<f4")
          for t in params.named().values())]))


def load_checkpoint(path) -> Tuple[ModelParams, TrainConfig]:
    """Validate and reconstruct a saved model plus its config.

    The header's config fixes dim, and dim fixes every parameter's name,
    shape and place in the blob, so the header's params list must equal
    the table and the blob must be exactly as long as the table says.
    """
    data = Path(path).read_bytes()
    if len(data) < 9 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic "
                                   f"{data[:4]!r} (expected {CHECKPOINT_MAGIC!r})")
    if data[4] != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: unsupported version {data[4]}")
    (header_len,) = struct.unpack("<I", data[5:9])
    if len(data) < 9 + header_len:
        raise CheckpointTruncatedError(f"{path}: truncated header")
    try:
        header = json.loads(data[9:9 + header_len].decode("utf-8"))
    except ValueError as exc:
        raise CheckpointHeaderError(f"{path}: header is not JSON: {exc}") from exc
    require_fields(header, ("config", "params"), f"{path}: header",
                   CheckpointHeaderError)
    require_fields(header["config"], [f.name for f in fields(TrainConfig)],
                   f"{path}: header config", CheckpointHeaderError)
    try:
        config = TrainConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise CheckpointHeaderError(f"{path}: header config: {exc}") from exc
    if config.dim is None:
        raise CheckpointHeaderError(f"{path}: header config dim is null")
    expected = _header_params(config.dim)
    if header["params"] != expected:
        raise CheckpointShapeError(f"{path}: header params must be the "
                                   f"[name, shape] list {expected} for dim "
                                   f"{config.dim}")
    shapes = param_shapes(config.dim)
    sizes = [math.prod(shape) for shape in shapes.values()]  # Python ints
    blob, need = data[9 + header_len:], 4 * sum(sizes)
    if len(blob) != need:
        error = (CheckpointTruncatedError if len(blob) < need
                 else CheckpointHeaderError)
        raise error(f"{path}: blob is {len(blob)} bytes, expected {need} "
                    f"for dim {config.dim}")
    values = np.frombuffer(blob, dtype="<f4")
    _, views = arena(shapes)
    at = 0
    for name, view in views.items():
        view[...] = values[at:at + view.size].reshape(view.shape)
        at += view.size
        if not np.isfinite(view).all():
            raise CheckpointValueError(f"{path}: non-finite values in {name}")
    return ModelParams(dim=config.dim, heads=config.heads, **{
        name: Tensor(view, requires_grad=True)
        for name, view in views.items()}), config
