"""Command-line surface: exit codes, artifacts, and wrapper fidelity."""

import filecmp
import json
import os
import resource
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import frmil
from frmil.baseline import baseline_classify, compute_magnitudes, estimate_tau
from frmil.bagdata import (
    make_bag,
    read_split,
    read_store,
    split_ids,
    write_split,
    write_store,
)
from frmil.cli import MAX_TAU_BINS, main
from frmil.model import init_params, param_shapes
from frmil.training import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)

CONFIG_FIELDS = [f.name for f in fields(TrainConfig)]


def run_cli(*argv):
    return main(list(argv))


def run_cli_limited(*argv):
    """The command line in a child process under a 1 GiB address-space
    limit, so that a size no check bounds fails there instead of taking
    the host's memory: (exit code, stderr)."""
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    env = dict(os.environ, PYTHONPATH=str(
        Path(frmil.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "frmil.cli", *map(str, argv)],
                          env=env, preexec_fn=limit_address_space,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stderr.decode()


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_store") / "store"
    code = run_cli("gen", "--out", str(root), "--bags", "36", "--dim", "8",
                   "--bag-min", "3", "--bag-max", "9",
                   "--witness-rate", "0.25", "--separation", "2.0",
                   "--seed", "11")
    assert code == 0
    return root


@pytest.fixture(scope="module")
def one_channel_store(tmp_path_factory):
    """A valid store of 12 D=1 bags with a split: the baseline and the
    pooling heads take it, the model does not."""
    root = tmp_path_factory.mktemp("one_channel") / "store"
    rng = np.random.default_rng(3)
    bags = [make_bag(f"b{i:02d}", i % 2, rng.normal(size=(4 + i, 1)))
            for i in range(12)]
    write_store(bags, root)
    write_split(split_ids([(b.bag_id, b.label) for b in bags],
                          (0.5, 0.25, 0.25), seed=3), root / "splits.json")
    return root


class TestGen:
    def test_deterministic_directories(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("gen", "--out", str(tmp_path / sub), "--bags", "12",
                           "--dim", "6", "--seed", "7") == 0
        cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
        assert not cmp.diff_files
        feats = filecmp.dircmp(tmp_path / "a" / "features",
                               tmp_path / "b" / "features")
        assert not feats.diff_files and not feats.left_only

    def test_regen_into_same_dir_leaves_only_manifest_files(self, tmp_path):
        out = tmp_path / "store"
        for bags in ("16", "10"):
            assert run_cli("gen", "--out", str(out), "--bags", bags,
                           "--dim", "4", "--seed", "7") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = sorted(p.relative_to(out).as_posix()
                         for p in (out / "features").iterdir())
        assert on_disk == sorted(e["path"] for e in manifest["bags"])
        assert len(read_store(out)) == 10

    def test_zero_witness_rate_is_flag_error(self, tmp_path):
        assert run_cli("gen", "--out", str(tmp_path / "x"), "--bags", "10",
                       "--witness-rate", "0") == 2

    def test_impossible_split_writes_nothing(self, tmp_path):
        # three bags cannot give every split a bag of each label
        out = tmp_path / "s"
        assert run_cli("gen", "--out", str(out), "--bags", "3", "--dim", "4",
                       "--bag-min", "2", "--bag-max", "3") == 3
        assert not out.exists()

    def test_summary_counts(self, store_dir, capsys):
        store = read_store(store_dir)
        assert len(store) == 36
        n_pos = sum(lab for _, lab in store.labels())
        assert n_pos == 18  # pos_frac 0.5 of 36

    def test_split_file_written(self, store_dir):
        split = read_split(store_dir / "splits.json")
        total = sum(len(v) for v in split.values())
        assert total == 36


class TestTau:
    def test_writes_json_payload(self, store_dir, tmp_path):
        out = tmp_path / "tau.json"
        assert run_cli("tau", "--data", str(store_dir), "--recalibrate",
                       "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"tau", "method", "recalibrated"}
        assert payload["recalibrated"] is True
        assert payload["tau"] > 0

    def test_matches_library_call(self, store_dir, tmp_path):
        out = tmp_path / "tau.json"
        run_cli("tau", "--data", str(store_dir), "--recalibrate",
                "--out", str(out))
        store = read_store(store_dir)
        split = read_split(store_dir / "splits.json")
        recs = compute_magnitudes([store.bag(i) for i in split["train"]])
        est = estimate_tau(recs, recalibrated=True)
        assert json.loads(out.read_text())["tau"] == pytest.approx(est.tau)

    def test_deterministic_across_reruns(self, store_dir, tmp_path):
        outs = []
        for name in ("t1.json", "t2.json"):
            out = tmp_path / name
            run_cli("tau", "--data", str(store_dir), "--out", str(out))
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_single_class_store_exits_3(self, tmp_path, store_dir):
        # build a store whose train split holds one class only
        from frmil.bagdata import write_store, write_split, make_bag
        rng = np.random.default_rng(0)
        bags = [make_bag(f"b{i}", 1, rng.normal(size=(4, 6))) for i in range(6)]
        root = tmp_path / "mono"
        write_store(bags, root)
        write_split({"train": [b.bag_id for b in bags], "val": [], "test": []},
                    root / "splits.json")
        assert run_cli("tau", "--data", str(root)) == 3

    def test_missing_store_exits_1(self, tmp_path):
        assert run_cli("tau", "--data", str(tmp_path / "absent")) == 1

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak resident set from /proc")
    def test_largest_grid_keeps_the_default_grids_memory(self, tmp_path):
        """``tau --bins`` at the ceiling peaks near the 256-point run and
        prints what the density over the whole grid at once gives; that
        whole grid took 6.5 times the memory on this store.

        Each run is a child process that reports its own peak resident
        set, ``VmHWM``. Its ``ru_maxrss`` would not do: Linux carries the
        forking process's resident set over into it, so every child of a
        large test process would read that process's size."""
        root = tmp_path / "store"
        assert run_cli("gen", "--out", str(root), "--bags", "400", "--dim",
                       "8", "--bag-min", "3", "--bag-max", "9",
                       "--seed", "1") == 0
        child = ("import re, sys\n"
                 "from frmil import baseline\n"
                 "from frmil.cli import main\n"
                 "if sys.argv[1] == 'whole':\n"
                 "    from oracles import kde_whole_grid\n"
                 "    baseline._kde = kde_whole_grid\n"
                 "code = main(sys.argv[2:])\n"
                 "status = open('/proc/self/status').read()\n"
                 "print(re.search(r'VmHWM:\\s*(\\d+)', status)[1],"
                 " file=sys.stderr)\n"
                 "sys.exit(code)\n")
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(frmil.__file__).resolve().parents[1]), str(here)]))

        def tau(kde, bins):
            proc = subprocess.run(
                [sys.executable, "-c", child, kde, "tau", "--data", str(root),
                 "--bins", str(bins)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout, int(proc.stderr.splitlines()[-1])

        _, default_kb = tau("banded", 256)
        out, ceiling_kb = tau("banded", MAX_TAU_BINS)
        assert ceiling_kb < 1.2 * default_kb
        assert out == tau("whole", MAX_TAU_BINS)[0]


class TestBaselineAndDensity:
    def test_baseline_matches_library(self, store_dir, tmp_path, capsys):
        out = tmp_path / "probs.csv"
        assert run_cli("baseline", "--data", str(store_dir), "--tau", "60",
                       "--recalibrate", "--out", str(out)) == 0
        store = read_store(store_dir)
        split = read_split(store_dir / "splits.json")
        recs = compute_magnitudes([store.bag(i) for i in split["train"]])
        taus = (estimate_tau(recs, recalibrated=False).tau, 60.0)
        test = [store.bag(i) for i in split["test"]]
        want = ""
        for recal, name in ((False, "raw"), (True, "recalibrated")):
            report = baseline_classify(test, taus[recal], recalibrate=recal)
            want += (f"{name:>12s}: tau {taus[recal]:10.4f}  "
                     f"accuracy {report.accuracy:.4f}\n")
        assert capsys.readouterr().out == want
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + len(split["test"])

    @pytest.mark.parametrize("recal", [False, True])
    @pytest.mark.parametrize("fracs, n_train", [("1,0,0", 1), ("0,0,1", 0)])
    def test_given_tau_runs_when_the_other_has_none(self, tmp_path, capsys,
                                                    recal, fracs, n_train):
        root = tmp_path / "two"
        assert run_cli("gen", "--out", str(root), "--bags", "2", "--dim", "8",
                       "--split-fracs", fracs, "--seed", "3") == 0
        out = tmp_path / "probs.csv"
        flags = ["--recalibrate"] if recal else []
        capsys.readouterr()
        assert run_cli("baseline", "--data", str(root), "--split", "all",
                       "--tau", "20", "--out", str(out), *flags) == 0
        lines = capsys.readouterr().out.splitlines()
        names = ["         raw", "recalibrated"]
        assert lines[recal].startswith(f"{names[recal]}: tau    20.0000  "
                                       f"accuracy ")
        assert lines[not recal] == (f"{names[not recal]}: no tau: tau "
                                    f"estimation needs >= 2 bags of label "
                                    f"0, got {n_train}")
        report = baseline_classify(list(read_store(root).bags.values()),
                                   20.0, recal)
        assert out.read_text().splitlines() == (
            ["bag_id,label,mu,probability,prediction"]
            + [f"{r[0]},{r[1]},{r[2]:.6f},{r[3]:.6f},{r[4]}"
               for r in report.rows])
        # with no tau given, the chosen variant's own estimate still fails
        assert run_cli("baseline", "--data", str(root), "--split", "all",
                       *flags) == 3

    @pytest.mark.parametrize("recal", [False, True])
    def test_given_tau_runs_without_a_split_file(self, tmp_path, capsys,
                                                 recal):
        root = tmp_path / "nosplit"
        assert run_cli("gen", "--out", str(root), "--bags", "20", "--dim", "4",
                       "--seed", "3") == 0
        (root / "splits.json").unlink()
        flags = ["--recalibrate"] if recal else []
        capsys.readouterr()
        assert run_cli("baseline", "--data", str(root), "--split", "all",
                       "--tau", "1.0", *flags) == 0
        lines = capsys.readouterr().out.splitlines()
        names = ["         raw", "recalibrated"]
        report = baseline_classify(list(read_store(root).bags.values()),
                                   1.0, recal)
        assert lines[recal] == (f"{names[recal]}: tau     1.0000  "
                                f"accuracy {report.accuracy:.4f}")
        assert lines[not recal] == (f"{names[not recal]}: no tau: no split "
                                    f"file at {root / 'splits.json'}")
        # with no tau given, the chosen variant still needs the file
        assert run_cli("baseline", "--data", str(root), "--split", "all",
                       *flags) == 1
        assert "no split file" in capsys.readouterr().err

    def test_density_row_count(self, store_dir, tmp_path):
        out = tmp_path / "density.csv"
        assert run_cli("density", "--data", str(store_dir),
                       "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 36
        assert lines[0] == "bag_id,label,mu_raw,mu_recal"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, store_dir):
    out = tmp_path_factory.mktemp("cli_run") / "run"
    code = run_cli("train", "--data", str(store_dir), "--out", str(out),
                   "--epochs", "3", "--heads", "2", "--tau", "30",
                   "--lr", "1e-3", "--seed", "5")
    assert code == 0
    return out


class TestTrainEval:
    def test_run_artifacts(self, run_dir):
        assert (run_dir / "config.json").exists()
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "final.ckpt").exists()
        config = json.loads((run_dir / "config.json").read_text())
        assert config["epochs"] == 3 and config["heads"] == 2

    def test_metrics_csv_shape(self, run_dir):
        lines = (run_dir / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,split,loss,loss_bag,loss_max,loss_fm,acc,auc"
        # 3 epochs x (train + val) rows
        assert len(lines) == 1 + 6

    def test_eval_reproduces_training_eval(self, store_dir, run_dir, capsys):
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(run_dir / "final.ckpt"),
                       "--split", "val") == 0
        out = capsys.readouterr().out
        params, config = load_checkpoint(run_dir / "final.ckpt")
        store = read_store(store_dir)
        split = read_split(store_dir / "splits.json")
        report = evaluate(store, split["val"], params,
                          threshold=config.threshold,
                          pem_residual=config.pem_residual)
        assert f"acc {report.accuracy:.4f}" in out
        # final-epoch val metrics in the CSV match the fresh eval exactly
        val_rows = [l for l in (run_dir / "metrics.csv").read_text().splitlines()
                    if l.startswith("2,val")]
        assert val_rows[0].split(",")[6] == f"{report.accuracy:.6f}"

    def test_eval_scores_csv(self, store_dir, run_dir, tmp_path):
        out = tmp_path / "scores.csv"
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(run_dir / "final.ckpt"),
                       "--split", "test", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bag_id,label,probability"
        assert len(lines) > 1

    def test_missing_checkpoint_exits_1_with_path(self, store_dir, capsys):
        missing = "/nonexistent/model.ckpt"
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", missing) == 1
        assert missing in capsys.readouterr().err

    def test_config_file_with_flag_override(self, store_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 2, "heads": 2, "tau": 25.0,
                                        "lr": 1e-3, "seed": 9}))
        out = tmp_path / "run2"
        assert run_cli("train", "--data", str(store_dir), "--out", str(out),
                       "--config", str(cfg_path), "--epochs", "1") == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["epochs"] == 1   # flag wins
        assert echoed["tau"] == 25.0   # file survives

    def test_unknown_config_key_exits_2(self, store_dir, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
        assert run_cli("train", "--data", str(store_dir),
                       "--out", str(tmp_path / "r"),
                       "--config", str(cfg_path)) == 2

    def test_env_seed_default(self, store_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("FRMIL_SEED", "77")
        out = tmp_path / "envrun"
        assert run_cli("train", "--data", str(store_dir), "--out", str(out),
                       "--epochs", "1", "--heads", "2", "--tau", "30") == 0
        assert json.loads((out / "config.json").read_text())["seed"] == 77

    def test_train_determinism_via_cli(self, store_dir, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            assert run_cli("train", "--data", str(store_dir), "--out",
                           str(out), "--epochs", "2", "--heads", "2",
                           "--tau", "30", "--seed", "3") == 0
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() \
            == (outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "final.ckpt").read_bytes() \
            == (outs[1] / "final.ckpt").read_bytes()


class TestAblate:
    def test_four_rows_all_finite(self, store_dir, tmp_path):
        out = tmp_path / "ablation"
        assert run_cli("ablate", "--data", str(store_dir), "--out", str(out),
                       "--epochs", "2", "--heads", "2", "--tau", "30",
                       "--lr", "1e-3") == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == "config,acc,auc"
        assert len(lines) == 5
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["bag", "bag+fm", "bag+max", "bag+max+fm"]
        for line in lines[1:]:
            _, acc, area = line.split(",")
            assert np.isfinite(float(acc)) and np.isfinite(float(area))

    def test_comparator_rows_optional(self, store_dir, tmp_path):
        out = tmp_path / "ablation_c"
        assert run_cli("ablate", "--data", str(store_dir), "--out", str(out),
                       "--epochs", "1", "--heads", "2", "--tau", "30",
                       "--comparators") == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 7
        assert lines[-2].startswith("mean_pool")
        assert lines[-1].startswith("max_pool")

    def test_full_row_matches_train_run(self, store_dir, tmp_path):
        flags = ["--data", str(store_dir), "--epochs", "3", "--heads", "2",
                 "--tau", "30"]
        assert run_cli("train", "--out", str(tmp_path / "run"), *flags) == 0
        assert run_cli("ablate", "--out", str(tmp_path / "abl"), *flags) == 0
        for name in ("config.json", "metrics.csv", "final.ckpt", "best.ckpt"):
            assert (tmp_path / "abl" / "bag_max_fm" / name).read_bytes() \
                == (tmp_path / "run" / name).read_bytes(), name


def _rewrite_header(src, dst, edit):
    """Copy a checkpoint with edit() applied to its JSON header."""
    data = src.read_bytes()
    (length,) = struct.unpack("<I", data[5:9])
    header = json.loads(data[9:9 + length])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    dst.write_bytes(data[:5] + struct.pack("<I", len(raw)) + raw
                    + data[9 + length:])


class TestMalformedInputs:
    """Malformed stores, splits and checkpoints exit 3, conflicting flags 2
    and sizes too large for memory 1, each without a traceback."""

    @pytest.mark.parametrize("key", ["config", "params", *CONFIG_FIELDS])
    def test_checkpoint_header_without_key_exits_3(self, store_dir, run_dir,
                                                   tmp_path, capsys, key):
        # the config must hold every field, dim and heads included
        def edit(header):
            (header["config"] if key in CONFIG_FIELDS else header).pop(key)
        ckpt = tmp_path / "bad.ckpt"
        _rewrite_header(run_dir / "final.ckpt", ckpt, edit)
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["name", "shape"])
    def test_checkpoint_param_without_field_exits_3(self, store_dir, run_dir,
                                                    tmp_path, capsys, field):
        ckpt = tmp_path / "bad.ckpt"
        _rewrite_header(run_dir / "final.ckpt", ckpt,
                        lambda h: h["params"][0].pop(["name", "shape"].index(field)))
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["manifest.json", "splits.json"])
    @pytest.mark.parametrize("data", [b'{\n "dim": 8,,', b'{"dim": "\xff"}'],
                             ids=["not_json", "not_utf8"])
    def test_unreadable_json_exits_3_naming_the_file(self, store_dir, tmp_path,
                                                     capsys, name, data):
        root = tmp_path / "store"
        shutil.copytree(store_dir, root)
        (root / name).write_bytes(data)
        assert run_cli("tau", "--data", str(root)) == 3
        err = capsys.readouterr().err
        assert str(root / name) in err and "not valid UTF-8 JSON" in err
        assert "Traceback" not in err

    def test_manifest_without_dim_exits_3(self, store_dir, tmp_path, capsys):
        root = tmp_path / "store"
        shutil.copytree(store_dir, root)
        manifest = json.loads((root / "manifest.json").read_text())
        del manifest["dim"]
        (root / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("tau", "--data", str(root)) == 3
        err = capsys.readouterr().err
        assert "dim" in err and "Traceback" not in err

    def test_manifest_null_dim_exits_3(self, store_dir, tmp_path, capsys):
        root = tmp_path / "store"
        shutil.copytree(store_dir, root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["dim"] = None
        (root / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("tau", "--data", str(root)) == 3
        err = capsys.readouterr().err
        assert "dim" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "tau"])
    def test_zero_dim_store_with_bags_exits_3(self, store_dir, tmp_path,
                                               capsys, command):
        # every bag is (n, 0): its feature files are empty
        root = tmp_path / "store"
        shutil.copytree(store_dir, root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["dim"] = 0
        (root / "manifest.json").write_text(json.dumps(manifest))
        for entry in manifest["bags"]:
            (root / entry["path"]).write_bytes(b"")
        flags = (["--out", str(tmp_path / "run"), "--epochs", "1",
                  "--heads", "2"] if command == "train" else [])
        assert run_cli(command, "--data", str(root), *flags) == 3
        err = capsys.readouterr().err
        assert "D >= 1" in err and "Traceback" not in err

    def test_overlapping_splits_exit_3(self, store_dir, tmp_path, capsys):
        root = tmp_path / "store"
        shutil.copytree(store_dir, root)
        split = read_split(root / "splits.json")
        split["test"].append(split["train"][0])
        (root / "splits.json").write_text(json.dumps(split))
        assert run_cli("train", "--data", str(root), "--out",
                       str(tmp_path / "run"), "--epochs", "1", "--heads", "2",
                       "--tau", "30") == 3
        err = capsys.readouterr().err
        assert split["train"][0] in err and "Traceback" not in err

    @pytest.mark.parametrize("config", [{"epochs": "2"}, {"gammas": "abc"},
                                        {"use_fm_loss": None}, []])
    def test_config_of_wrong_type_exits_2(self, store_dir, tmp_path, capsys,
                                          config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("train", "--data", str(store_dir),
                       "--out", str(tmp_path / "r"),
                       "--config", str(cfg_path)) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_config_naming_mu_squared_exits_2(self, store_dir, tmp_path,
                                              capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mu_squared": True}))
        assert run_cli("train", "--data", str(store_dir), "--epochs", "1",
                       "--out", str(tmp_path / "r"),
                       "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert "unknown config keys: ['mu_squared']" in err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_one_channel_store_exits_3_before_training(
            self, one_channel_store, tmp_path, capsys, command):
        # one head, so the store's dim is the only fault
        out = tmp_path / "run"
        assert run_cli(command, "--data", str(one_channel_store), "--out",
                       str(out), "--epochs", "1", "--heads", "1") == 3
        err = capsys.readouterr().err
        assert "store dim 1 is below the model's floor of 2" in err
        assert "Traceback" not in err
        assert not list(out.rglob("metrics.csv"))

    def test_one_channel_checkpoint_header_exits_3(self, one_channel_store,
                                                   tmp_path, capsys):
        # a header, params list and blob that agree with each other at dim 1
        ckpt = tmp_path / "d1.ckpt"
        save_checkpoint(init_params(1, 1, seed=0), TrainConfig(heads=1), ckpt)
        assert run_cli("eval", "--data", str(one_channel_store),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "dim must be >= 2, got 1" in err
        assert "Traceback" not in err

    def test_one_channel_config_exits_2(self, one_channel_store, tmp_path,
                                        capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dim": 1, "heads": 1}))
        assert run_cli("train", "--data", str(one_channel_store), "--out",
                       str(tmp_path / "r"), "--epochs", "1",
                       "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert "dim must be >= 2, got 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_tau_file_non_boolean_recalibrated_exits_2(self, store_dir,
                                                       tmp_path, capsys,
                                                       value):
        tau_path = tmp_path / "tau.json"
        tau_path.write_text(json.dumps({"tau": 39.1, "recalibrated": value}))
        assert run_cli("baseline", "--data", str(store_dir),
                       "--tau-file", str(tau_path)) == 2
        captured = capsys.readouterr()
        assert str(tau_path) in captured.err and "recalibrated" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    def test_tau_file_without_tau_exits_2(self, store_dir, tmp_path, capsys):
        tau_path = tmp_path / "tau.json"
        tau_path.write_text(json.dumps({"method": "density crossing"}))
        assert run_cli("baseline", "--data", str(store_dir),
                       "--tau-file", str(tau_path)) == 2
        err = capsys.readouterr().err
        assert "tau" in err and "Traceback" not in err

    def test_id_repeated_in_one_split_exits_3(self, store_dir, tmp_path,
                                              capsys):
        root = tmp_path / "store"
        shutil.copytree(store_dir, root)
        split = read_split(root / "splits.json")
        split["train"].append(split["train"][0])
        (root / "splits.json").write_text(json.dumps(split))
        assert run_cli("train", "--data", str(root), "--out",
                       str(tmp_path / "run"), "--epochs", "1", "--heads", "2",
                       "--tau", "30") == 3
        err = capsys.readouterr().err
        assert split["train"][0] in err and "Traceback" not in err

    def test_manifest_repeated_id_exits_3(self, store_dir, tmp_path, capsys):
        root = tmp_path / "store"
        shutil.copytree(store_dir, root)
        manifest = json.loads((root / "manifest.json").read_text())
        twin = dict(manifest["bags"][1], id=manifest["bags"][0]["id"])
        manifest["bags"].append(twin)
        (root / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("tau", "--data", str(root)) == 3
        err = capsys.readouterr().err
        assert twin["id"] in err and "Traceback" not in err

    def test_checkpoint_config_of_wrong_type_exits_3(self, store_dir, run_dir,
                                                     tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        _rewrite_header(run_dir / "final.ckpt", ckpt,
                        lambda h: h["config"].update(epochs="2"))
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert "epochs" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("dim", "abc"), ("heads", 0), ("name", 5), ("shape", ["8", 1])])
    def test_checkpoint_field_of_wrong_type_exits_3(self, store_dir, run_dir,
                                                    tmp_path, capsys, field,
                                                    value):
        def edit(header):
            if field in ("dim", "heads"):
                header["config"][field] = value
            else:
                header["params"][0][["name", "shape"].index(field)] = value
        ckpt = tmp_path / "bad.ckpt"
        _rewrite_header(run_dir / "final.ckpt", ckpt, edit)
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_checkpoint_trailing_bytes_exit_3(self, store_dir, run_dir,
                                              tmp_path, capsys):
        data = (run_dir / "final.ckpt").read_bytes()
        (length,) = struct.unpack("<I", data[5:9])
        n = len(data) - 9 - length
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(data + b"\0" * 4)
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert f"blob is {n + 4} bytes, expected {n}" in err
        assert "Traceback" not in err

    def test_checkpoint_repeated_parameter_exits_3(self, store_dir, run_dir,
                                                   tmp_path, capsys):
        # a second conv_b entry over its own copy of the bytes at the end
        data = (run_dir / "final.ckpt").read_bytes()
        (length,) = struct.unpack("<I", data[5:9])
        header = json.loads(data[9:9 + length])
        blob = data[9 + length:]
        offset = 4 * (8 + 1 + 8 * 9)  # after scorer_w, scorer_b and conv_w
        header["params"].append(["conv_b", [8]])
        blob += blob[offset:offset + 4 * 8]
        raw = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(data[:5] + struct.pack("<I", len(raw)) + raw + blob)
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert "must be the [name, shape] list" in err
        assert "Traceback" not in err

    def test_checkpoint_empty_config_exits_3(self, store_dir, run_dir,
                                             tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        _rewrite_header(run_dir / "final.ckpt", ckpt,
                        lambda h: h.update(config={}))
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert "config lacks tau" in err and "Traceback" not in err

    @pytest.mark.parametrize("change", ["renamed", "wrong_shape", "swapped",
                                        "extra", "missing"])
    def test_checkpoint_params_other_than_table_exit_3(self, store_dir, run_dir,
                                                       tmp_path, capsys,
                                                       change):
        def edit(header):
            params = header["params"]
            if change == "renamed":
                params[1][0] = "scorer_bias"
            elif change == "wrong_shape":
                params[2][1] = [8, 9]  # conv_w, as many values as (8, 3, 3)
            elif change == "swapped":
                params[0], params[1] = params[1], params[0]
            elif change == "extra":
                params.append(["w_in", [8, 8]])
            else:
                params.pop()
        ckpt = tmp_path / "bad.ckpt"
        _rewrite_header(run_dir / "final.ckpt", ckpt, edit)
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert "must be the [name, shape] list" in err
        assert "Traceback" not in err

    def test_checkpoint_version_1_exits_3(self, store_dir, run_dir, tmp_path,
                                          capsys):
        data = bytearray((run_dir / "final.ckpt").read_bytes())
        data[4] = 1
        ckpt = tmp_path / "v1.ckpt"
        ckpt.write_bytes(bytes(data))
        assert run_cli("eval", "--data", str(store_dir),
                       "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert "unsupported version 1" in err and "Traceback" not in err

    def test_checkpoint_huge_dim_exits_3_without_allocating(self, store_dir,
                                                            run_dir, tmp_path):
        # a consistent header for dim 10**9: its parameters would take
        # 16 EB, so a loader that sized anything from dim would fail under
        # the 2 GiB address-space limit the child runs with
        dim = 10 ** 9

        def edit(header):
            header["config"]["dim"] = dim
            header["params"] = [[name, list(shape)]
                                for name, shape in param_shapes(dim).items()]
        ckpt = tmp_path / "huge.ckpt"
        _rewrite_header(run_dir / "final.ckpt", ckpt, edit)

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        env = dict(os.environ, PYTHONPATH=str(
            Path(frmil.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "frmil.cli", "eval",
                               "--data", str(store_dir), "--ckpt", str(ckpt)],
                              env=env, preexec_fn=limit_address_space,
                              capture_output=True, timeout=120)
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert f"for dim {dim}" in err and "Traceback" not in err

    def test_tau_and_tau_file_together_exit_2(self, store_dir, tmp_path,
                                              capsys):
        tau_file = tmp_path / "tau.json"
        tau_file.write_text(json.dumps({"tau": 2.0, "recalibrated": True}))
        with pytest.raises(SystemExit) as exc:
            run_cli("baseline", "--data", str(store_dir), "--tau", "1000",
                    "--tau-file", str(tau_file))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with" in captured.err and not captured.out

    @pytest.mark.parametrize("flag", ["--bags", "--dim"])
    def test_gen_out_of_memory_exits_1_without_traceback(self, tmp_path, flag):
        code, err = run_cli_limited("gen", "--out", tmp_path / "s",
                                    flag, 10 ** 9)
        assert code == 1, err
        assert err.startswith("error: out of memory") and "Traceback" not in err
        assert len(err.splitlines()) == 1 and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("outside", ["../other/features/x.f32", "absolute"])
    def test_manifest_path_outside_store_exits_3(self, store_dir, tmp_path,
                                                 capsys, outside):
        root = tmp_path / "store"
        shutil.copytree(store_dir, root)
        manifest = json.loads((root / "manifest.json").read_text())
        target = tmp_path / "other" / "features" / "x.f32"
        target.parent.mkdir(parents=True)
        shutil.copy(root / manifest["bags"][0]["path"], target)
        rel = str(target) if outside == "absolute" else outside
        manifest["bags"][0]["path"] = rel
        (root / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("density", "--data", str(root),
                       "--out", str(tmp_path / "density.csv")) == 3
        err = capsys.readouterr().err
        assert "outside" in err and rel in err and "Traceback" not in err

    def test_checkpoint_dim_other_than_store_exits_3(self, run_dir, tmp_path,
                                                     capsys):
        wide = tmp_path / "wide"
        assert run_cli("gen", "--out", str(wide), "--bags", "12",
                       "--dim", "16", "--seed", "7") == 0
        capsys.readouterr()
        ckpt = run_dir / "final.ckpt"  # trained at dim 8
        assert run_cli("eval", "--data", str(wide), "--ckpt", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and str(wide) in err
        assert "dim 8" in err and "dim 16" in err
        assert "matmul" not in err and "Traceback" not in err

    def test_split_id_missing_from_store_exits_3(self, store_dir, tmp_path,
                                                 capsys):
        root = tmp_path / "store"
        shutil.copytree(store_dir, root)
        split = read_split(root / "splits.json")
        split["train"].append("ghost")
        (root / "splits.json").write_text(json.dumps(split))
        assert run_cli("tau", "--data", str(root)) == 3
        err = capsys.readouterr().err
        assert "ghost" in err and "Traceback" not in err


class TestFlagErrors:
    """Out-of-range flags and config values exit 2 before any work."""

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exits_2(self, store_dir, tmp_path, capsys, lr):
        assert run_cli("train", "--data", str(store_dir),
                       "--out", str(tmp_path / "r"), "--epochs", "1",
                       "--lr", lr) == 2
        assert "lr" in capsys.readouterr().err

    def test_non_finite_gamma_exits_2(self, store_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"gammas": [float("nan"), 0.3, 0.3]}))
        assert run_cli("train", "--data", str(store_dir),
                       "--out", str(tmp_path / "r"), "--epochs", "1",
                       "--config", str(cfg_path)) == 2
        assert "gammas" in capsys.readouterr().err

    def test_one_tau_bin_exits_2(self, store_dir, capsys):
        assert run_cli("tau", "--data", str(store_dir), "--bins", "1") == 2
        assert "bins" in capsys.readouterr().err

    def test_tau_bins_above_the_ceiling_exit_2_before_any_work(self,
                                                               store_dir):
        code, err = run_cli_limited("tau", "--data", store_dir,
                                    "--bins", 10 ** 9)
        assert code == 2, err
        assert f"--bins must be from 2 to {MAX_TAU_BINS}" in err
        assert "Traceback" not in err
        assert run_cli("tau", "--data", str(store_dir),
                       "--bins", str(MAX_TAU_BINS + 1)) == 2
        assert run_cli("tau", "--data", str(store_dir),
                       "--bins", str(MAX_TAU_BINS)) == 0

    @pytest.mark.parametrize("fracs", ["0.5,0.5,0.5", "1.2,-0.1,-0.1",
                                       "nan,0.5,0.5"])
    def test_bad_split_fracs_exit_2(self, tmp_path, capsys, fracs):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--out", str(tmp_path / "s"),
                    "--split-fracs", fracs)
        assert exc.value.code == 2
        assert "split-fracs" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("tau", ["nan", "inf", "-1", "0"])
    def test_bad_baseline_tau_exits_2(self, store_dir, capsys, tau):
        assert run_cli("baseline", "--data", str(store_dir), "--tau", tau) == 2
        captured = capsys.readouterr()
        assert "tau" in captured.err and not captured.out

    def test_nan_tau_file_exits_2(self, store_dir, tmp_path, capsys):
        tau_file = tmp_path / "tau.json"
        tau_file.write_text('{"tau": NaN, "recalibrated": false}')
        assert run_cli("baseline", "--data", str(store_dir),
                       "--tau-file", str(tau_file)) == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--separation", "--noise"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_gen_scale_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "s"
        assert run_cli("gen", "--out", str(out), "--bags", "12", "--dim", "4",
                       flag, value) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestBlasThreads:
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def test_train_checkpoint_independent_of_blas_env(self, tmp_path):
        # at D=512 a two-thread BLAS rounds products differently, so an
        # unset thread count must end up pinned to one
        store = tmp_path / "store"
        assert run_cli("gen", "--out", str(store), "--bags", "12", "--dim",
                       "512", "--bag-min", "900", "--bag-max", "1100",
                       "--seed", "3") == 0
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        env["PYTHONPATH"] = str(Path(frmil.__file__).resolve().parents[1])
        ckpts = []
        for name, pinned in (("unset", {}),
                             ("one", dict.fromkeys(self.BLAS_VARS, "1"))):
            out = tmp_path / name
            subprocess.run([sys.executable, "-m", "frmil.cli", "train",
                            "--data", str(store), "--out", str(out),
                            "--epochs", "2", "--tau", "30"],
                           env={**env, **pinned}, check=True,
                           capture_output=True, timeout=300)
            ckpts.append((out / "final.ckpt").read_bytes())
        assert ckpts[0] == ckpts[1]


class TestSelftestCommand:
    def test_clean_build_exits_0(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        assert "total_loss end-to-end" in out
        assert "grid_positional vs naive conv" in out
        assert "PASS" in out
