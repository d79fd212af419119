"""Command-line surface.

Subcommands: gen, tau, baseline, density, train, eval, ablate, selftest.
Exit codes: 0 success, 1 I/O failure or out of memory (one ``error:``
line, no traceback), 2 flag/config validation (``tau --bins`` takes 2 to
``MAX_TAU_BINS``), 3 data validation. Every training run directory
receives an echo of the fully resolved config so the run can be replayed
exactly. The FRMIL_SEED environment variable overrides the built-in
default seed; explicit flags and config files still win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path


from .bagdata import (
    SPLIT_NAME,
    SingleClassError,
    SplitError,
    StoreError,
    StoreMissingFileError,
    SyntheticSpec,
    generate_synthetic,
    read_json,
    read_split,
    read_store,
    split_ids,
    write_atomic,
    write_split,
    write_store,
)
from .baseline import (
    baseline_classify,
    compute_magnitudes,
    estimate_tau,
    write_density_csv,
)
from .model import COMPARATOR_KINDS
from .objectives import BalancedBatchError
from .selftest import run_selftest
from .training import (
    CheckpointDimError,
    CheckpointError,
    ConfigError,
    TrainConfig,
    TrainingError,
    evaluate,
    load_checkpoint,
    metric_text,
    save_checkpoint,
    train,
    write_metrics_csv,
    write_scores_csv,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_FLAGS = 2
EXIT_DATA = 3

MAX_TAU_BINS = 1 << 16  # tau's density grid points

ABLATION_ROWS = (
    ("bag", False, False),
    ("bag+fm", False, True),
    ("bag+max", True, False),
    ("bag+max+fm", True, True),
)


def _default_seed() -> int:
    env = os.environ.get("FRMIL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"FRMIL_SEED must be an integer, got {env!r}") from exc


def _parse_fracs(text: str):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3 or min(parts) < 0 or not abs(sum(parts) - 1.0) <= 1e-9:
        raise argparse.ArgumentTypeError("expected three non-negative "
                                         "comma-separated fractions summing "
                                         "to 1, e.g. 0.6,0.2,0.2")
    return tuple(parts)


def _split_bag_ids(store, data_dir, split_name):
    if split_name == "all":
        return store.ids()
    split = read_split(Path(data_dir) / SPLIT_NAME)
    ids = split.get(split_name, [])
    if not ids:
        raise SplitError(f"split {split_name!r} is empty")
    return ids


def _resolve_config(args) -> TrainConfig:
    """Config file first, then flag overrides; flags win."""
    data = {}
    if getattr(args, "config", None):
        data = read_json(Path(args.config), "config file", ConfigError)
    config = TrainConfig.from_dict(data)
    if data.get("seed") is None:
        config.seed = _default_seed()
    overrides = {
        "epochs": args.epochs, "lr": args.lr, "seed": args.seed,
        "tau": args.tau, "heads": args.heads, "dropout": args.dropout,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    config.validate()
    return config


def _echo_config(config: TrainConfig, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(run_dir / "config.json",
                 json.dumps(config.to_dict(), indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    spec = SyntheticSpec(n_bags=args.bags, dim=args.dim, bag_min=args.bag_min,
                         bag_max=args.bag_max, witness_rate=args.witness_rate,
                         pos_frac=args.pos_frac, separation=args.separation,
                         noise_scale=args.noise,
                         seed=args.seed if args.seed is not None
                         else _default_seed())
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bags = generate_synthetic(spec)
    # split before writing, so a split that cannot be made leaves no store
    split = split_ids([(b.bag_id, b.label) for b in bags], args.split_fracs,
                      spec.seed)
    write_store(bags, args.out)
    write_split(split, Path(args.out) / SPLIT_NAME)
    n_pos = sum(b.label for b in bags)
    print(f"wrote {len(bags)} bags ({n_pos} positive, {len(bags) - n_pos} "
          f"negative), dim {spec.dim}, to {args.out}")
    print(f"splits: train {len(split['train'])}, val {len(split['val'])}, "
          f"test {len(split['test'])}")
    return EXIT_OK


def cmd_tau(args) -> int:
    if not 2 <= args.bins <= MAX_TAU_BINS:
        raise ConfigError(f"--bins must be from 2 to {MAX_TAU_BINS}, "
                          f"got {args.bins}")
    store = read_store(args.data)
    ids = _split_bag_ids(store, args.data, args.split)
    records = compute_magnitudes([store.bag(i) for i in ids],
                                 squared=not args.unsquared)
    est = estimate_tau(records, bins=args.bins, recalibrated=args.recalibrate)
    payload = {"tau": est.tau, "method": est.method,
               "recalibrated": bool(args.recalibrate)}
    text = json.dumps(payload, indent=1)
    if args.out:
        write_atomic(args.out, text)
    print(text)
    return EXIT_OK


def cmd_baseline(args) -> int:
    taus = {}
    if args.tau is not None:
        taus[args.recalibrate] = args.tau
    elif args.tau_file:
        loaded = read_json(Path(args.tau_file), "tau file", ConfigError)
        tau = loaded.get("tau") if isinstance(loaded, dict) else None
        if isinstance(tau, bool) or not isinstance(tau, (int, float)):
            raise ConfigError(f"tau file {args.tau_file} has no numeric "
                              f"\"tau\" value")
        recal = loaded.get("recalibrated", args.recalibrate)
        if not isinstance(recal, bool):
            raise ConfigError(f"tau file {args.tau_file} has a non-boolean "
                              f"\"recalibrated\" value {recal!r}")
        taus[recal] = float(tau)
    for tau in taus.values():
        if not 0 < tau < float("inf"):
            raise ConfigError(f"tau must be finite and positive, got {tau}")

    store = read_store(args.data)
    ids = _split_bag_ids(store, args.data, args.split)
    bags = [store.bag(i) for i in ids]
    chosen = bool(args.recalibrate)
    no_tau = {}  # variant -> why the train split gives it no tau
    records = None  # the train split's, read only for a variant without tau
    for recal in [r for r in (False, True) if r not in taus]:
        # a missing split file or an empty train split gives no tau, an
        # error only for the chosen variant
        try:
            if records is None:
                train = read_split(Path(args.data) / SPLIT_NAME)["train"]
                records = compute_magnitudes([store.bag(i) for i in train])
            taus[recal] = estimate_tau(records, recalibrated=recal).tau
        except (StoreMissingFileError, SingleClassError) as exc:
            if recal == chosen:
                raise
            no_tau[recal] = str(exc)

    reports = {recal: baseline_classify(bags, tau, recalibrate=recal)
               for recal, tau in taus.items()}
    for recal in (False, True):
        name = "recalibrated" if recal else "raw"
        if recal in no_tau:
            print(f"{name:>12s}: no tau: {no_tau[recal]}")
            continue
        rep = reports[recal]
        print(f"{name:>12s}: tau {rep.tau:10.4f}  accuracy {rep.accuracy:.4f}")
    selected = reports[chosen]
    if args.out:
        lines = ["bag_id,label,mu,probability,prediction"]
        lines += [f"{r[0]},{r[1]},{r[2]:.6f},{r[3]:.6f},{r[4]}"
                  for r in selected.rows]
        write_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_density(args) -> int:
    store = read_store(args.data)
    records = compute_magnitudes([store.bag(i) for i in store.ids()],
                                 squared=not args.unsquared)
    write_density_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    return EXIT_OK


def _train_run(store, split, config: TrainConfig, run_dir=None,
               kind="frmil"):
    """Train one config, fill run_dir (config, metrics, final and best
    checkpoints) when given, and score the test split if it has bags.
    Checkpoints hold only the full model, so pooling heads get no run_dir."""
    if run_dir is not None:
        _echo_config(config, run_dir)
    result = train(store, split, config, kind)
    if run_dir is not None:
        write_metrics_csv(result.history, run_dir / "metrics.csv")
        save_checkpoint(result.params, config, run_dir / "final.ckpt")
        if result.best_params is not None:
            save_checkpoint(result.best_params, config, run_dir / "best.ckpt")
    report = None
    if split["test"]:
        report = evaluate(store, split["test"], result.params,
                          threshold=config.threshold,
                          pem_residual=config.pem_residual, split="test")
    return result, report


def cmd_train(args) -> int:
    store = read_store(args.data)
    split = read_split(Path(args.data) / SPLIT_NAME)
    config = _resolve_config(args)
    run_dir = Path(args.out)
    result, report = _train_run(store, split, config, run_dir)
    if result.best_params is not None:
        print(f"best val AUC {result.best_val_auc:.4f} at epoch "
              f"{result.best_epoch} -> best.ckpt")
    last_train = [r for r in result.history if r["split"] == "train"][-1]
    print(f"final train acc {last_train['acc']:.4f} "
          f"auc {metric_text(last_train['auc'], 4)}")
    if report is not None:
        print(f"test acc {report.accuracy:.4f} auc {metric_text(report.auc, 4)}")
    print(f"run artifacts in {run_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    store = read_store(args.data)
    ids = _split_bag_ids(store, args.data, args.split)
    ckpt = Path(args.ckpt)
    if not ckpt.exists():
        raise FileNotFoundError(f"no checkpoint at {ckpt}")
    params, config = load_checkpoint(ckpt)
    if params.dim != store.dim:
        raise CheckpointDimError(f"checkpoint {ckpt} has dim {params.dim}, "
                                 f"store {args.data} has dim {store.dim}")
    report = evaluate(store, ids, params, threshold=config.threshold,
                      pem_residual=config.pem_residual, split=args.split)
    print(f"split {args.split}: acc {report.accuracy:.4f} "
          f"auc {metric_text(report.auc, 4)}")
    if args.out:
        write_scores_csv(report, args.out)
        print(f"per-bag scores in {args.out}")
    else:
        for bag_id, label, prob in report.rows:
            print(f"{bag_id},{label},{prob:.6f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    store = read_store(args.data)
    split = read_split(Path(args.data) / SPLIT_NAME)
    if not split["test"]:
        raise SplitError("split 'test' is empty")
    config = _resolve_config(args)
    run_dir = Path(args.out)
    _echo_config(config, run_dir)
    runs = [(name, replace(config, use_max_loss=use_max, use_fm_loss=use_fm),
             run_dir / name.replace("+", "_"), "frmil")
            for name, use_max, use_fm in ABLATION_ROWS]
    if args.comparators:
        runs += [(kind, config, None, kind) for kind in COMPARATOR_KINDS]
    lines = ["config,acc,auc"]
    for name, cfg, sub_dir, kind in runs:
        _, report = _train_run(store, split, cfg, sub_dir, kind)
        print(f"{name:<12s} acc {report.accuracy:.4f} "
              f"auc {metric_text(report.auc, 4)}")
        lines.append(f"{name},{report.accuracy:.6f},{metric_text(report.auc)}")
    write_atomic(run_dir / "ablation.csv", "\n".join(lines) + "\n")
    print(f"results table in {run_dir / 'ablation.csv'}")
    return EXIT_OK


def cmd_selftest(_args) -> int:
    return EXIT_OK if run_selftest() else EXIT_DATA


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frmil",
        description="Feature re-calibration MIL engine on instance-feature bags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic bag store")
    p.add_argument("--out", required=True)
    p.add_argument("--bags", type=int, default=200)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--bag-min", type=int, default=20)
    p.add_argument("--bag-max", type=int, default=50)
    p.add_argument("--witness-rate", type=float, default=0.1)
    p.add_argument("--pos-frac", type=float, default=0.5)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split-fracs", type=_parse_fracs, default=(0.6, 0.2, 0.2))
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tau", help="estimate the magnitude margin")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="train",
                   choices=("train", "val", "test", "all"))
    p.add_argument("--recalibrate", action="store_true")
    p.add_argument("--unsquared", action="store_true",
                   help="use unsquared norms for the magnitudes")
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("baseline", help="margin-threshold baseline accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test", "all"))
    tau = p.add_mutually_exclusive_group()
    tau.add_argument("--tau", type=float, default=None)
    tau.add_argument("--tau-file", default=None)
    p.add_argument("--recalibrate", action="store_true")
    p.add_argument("--out", default=None, help="per-bag probability CSV")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("density", help="export per-bag magnitudes as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--unsquared", action="store_true")
    p.set_defaults(func=cmd_density)

    def add_train_flags(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--heads", type=int, default=None)
        p.add_argument("--dropout", type=float, default=None)

    p = sub.add_parser("train", help="train the full model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="run directory")
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test", "all"))
    p.add_argument("--out", default=None, help="per-bag score CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the four loss configurations")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--comparators", action="store_true",
                   help="also train mean-/max-pooling heads")
    add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("selftest", help="gradient and oracle checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except (StoreMissingFileError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_IO
    except (StoreError, SingleClassError, SplitError, BalancedBatchError,
            CheckpointError, TrainingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
