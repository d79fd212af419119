"""tools/bench_pairs.py's gain rule, on canned runs instead of benchmarks."""

import importlib.util
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten parent epoch_s runs with median 0.187 s and quartiles 12% of it apart
PARENT = [0.187 * (1 + 0.12 * z) for z in np.linspace(-1, 1, 10).tolist()]


def scaled(factor):
    return [(p, p * factor) for p in PARENT]


def test_parent_figures_have_the_stated_spread():
    assert bench_pairs.spread(PARENT) == pytest.approx(0.12)
    assert np.median(PARENT) == pytest.approx(0.187)


@pytest.mark.parametrize("pairs, better, met", [
    (scaled(0.166 / 0.187), "lower", False),  # 11% cut, 10/10 won
    (scaled(0.80), "lower", True),            # 20% cut, 10/10 won
    (scaled(0.80)[:8] + [(p, p) for p in PARENT[8:]], "lower", False),  # 8/10
    (scaled(1.25), "higher", True),
    (scaled(1.10), "higher", False),
    (scaled(1.25), "lower", False),
])
def test_claim_rule(pairs, better, met):
    assert bench_pairs.claim_met(pairs, better) is met


def test_an_11_percent_cut_against_a_12_percent_spread_prints_not_met(
        tmp_path, monkeypatch, capsys):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        (sides[side] / "perfbench").mkdir(parents=True)
        (sides[side] / "perfbench" / "run.py").touch()
    shutil.copy(ROOT / "BENCHMARK.json", sides["parent"])
    values = {"parent": PARENT, "change": [c for _, c in scaled(0.166 / 0.187)]}

    def run_once(checkout, workload, seed, seconds):
        side = "parent" if checkout == sides["parent"] else "change"
        return {"code": 0, "fingerprint": "f", "stderr": "",
                "result": {"correct": True, "metrics": {
                    "epoch_s": {"value": values[side][seed - 1]}}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--workload", "train-small", "--seeds", "1-10", "--seconds", "30",
            "--claim", "epoch_s"]
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert " 10/10" in out
    assert out.rstrip().splitlines()[-1].startswith("CLAIM NOT MET: epoch_s")
    values["change"] = [c for _, c in scaled(0.80)]
    assert bench_pairs.main(argv) == 0
    assert capsys.readouterr().out.rstrip().splitlines()[-1].startswith(
        "CLAIM MET: epoch_s")


def usage_error(tmp_path, monkeypatch, capsys, *flags):
    """bench_pairs' exit code and stderr for flags against a one-workload,
    one-metric BENCHMARK.json, failing the test if it runs a benchmark."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").touch()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}],
         "end_to_end": [{"name": "epoch_s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail(
        "a run started before the arguments were checked"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--seeds", "1-3", "--seconds", "1", *flags])
    return exc.value.code, capsys.readouterr().err


def test_claim_of_unknown_metric_is_a_usage_error(tmp_path, monkeypatch,
                                                  capsys):
    code, err = usage_error(tmp_path, monkeypatch, capsys,
                            "--workload", "w", "--claim", "speed")
    assert code == 2 and "--claim" in err


def test_unknown_workload_is_a_usage_error_before_any_run(tmp_path,
                                                          monkeypatch, capsys):
    code, err = usage_error(tmp_path, monkeypatch, capsys,
                            "--workload", "bogus")
    assert code == 2 and "--workload" in err and "'bogus'" in err


@pytest.mark.parametrize("seconds", ["0", "-5", "inf", "nan"])
def test_seconds_not_finite_and_positive_is_a_usage_error_before_any_run(
        tmp_path, monkeypatch, capsys, seconds):
    code, err = usage_error(tmp_path, monkeypatch, capsys,
                            "--workload", "w", "--seconds", seconds)
    assert code == 2 and "--seconds" in err


def test_backward_seed_range_is_a_usage_error_before_any_run(
        tmp_path, monkeypatch, capsys):
    code, err = usage_error(tmp_path, monkeypatch, capsys,
                            "--workload", "w", "--seeds", "5-3,7-9")
    assert code == 2 and "--seeds" in err and "'5-3,7-9'" in err


def test_out_writes_runs_and_summary_and_keeps_other_workloads(
        tmp_path, monkeypatch, capsys):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        (sides[side] / "perfbench").mkdir(parents=True)
        (sides[side] / "perfbench" / "run.py").touch()
    shutil.copy(ROOT / "BENCHMARK.json", sides["parent"])
    values = {"parent": PARENT, "change": [c for _, c in scaled(0.80)]}
    env = {"cpu": "test cpu", "numpy": "1.0", "blas_threads": 1}

    def run_once(checkout, workload, seed, seconds):
        side = "parent" if checkout == sides["parent"] else "change"
        return {"code": 0, "fingerprint": f"{workload}-{seed}", "stderr": "",
                "environment": dict(env, side=side),
                "result": {"correct": True, "metrics": {
                    "epoch_s": {"value": values[side][seed - 1]},
                    "peak_rss_mb": {"value": 200.0}}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    base = ["--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--seconds", "30", "--out", str(out)]
    assert bench_pairs.main(base + ["--workload", "train-wsi", "--seeds", "1-10",
                                    "--claim", "epoch_s"]) == 0
    assert bench_pairs.main(base + ["--workload", "score-wsi",
                                    "--seeds", "2-4"]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["score-wsi", "train-wsi"]
    wsi = doc["workloads"]["train-wsi"]
    assert wsi["seeds"] == list(range(1, 11)) and wsi["seconds"] == 30
    assert wsi["claim"] == {"metric": "epoch_s", "met": True}
    assert wsi["fingerprints_differ"] == 0
    for side in ("parent", "change"):
        runs = wsi["runs"][side]
        assert [r["seed"] for r in runs] == list(range(1, 11))
        assert [r["metrics"]["epoch_s"] for r in runs] == values[side]
        assert all(r["fingerprint"] == f"train-wsi-{r['seed']}"
                   and r["environment"] == dict(env, side=side)
                   and r["code"] == 0 and r["correct"] for r in runs)
    epoch = wsi["metrics"]["epoch_s"]
    q1, median, q3 = epoch["parent_quartiles"]
    assert median == pytest.approx(0.187) and (q3 - q1) / median == pytest.approx(0.12)
    assert epoch["change_quartiles"][1] == pytest.approx(0.187 * 0.80)
    assert epoch["ratio"] == pytest.approx(0.80)
    assert (epoch["won"], epoch["pairs"]) == (10, 10)
    assert epoch["spread"] == pytest.approx(0.12) and not epoch["out_of_bound"]
    assert wsi["metrics"]["peak_rss_mb"]["won"] == 0
    assert doc["workloads"]["score-wsi"]["claim"] is None
    assert [r["seed"] for r in doc["workloads"]["score-wsi"]["runs"]["parent"]] \
        == [2, 3, 4]


def canned_stdout(seed, scale, epoch_s):
    """perfbench/run.py's output for an untraced run, trimmed to one metric."""
    probe_ms = 20.0 / scale
    return "\n".join([
        f"workload train-wsi seed {seed} trace 0",
        'environment {"blas_threads": 1, "commit": "abc1234"}',
        f"host speed: probe median {probe_ms:.3f} ms over {40 + seed} probes, "
        f"reference 20.000 ms, scale {scale:.4f}; window timings are scaled",
        f"  epoch_s {epoch_s:14.6f} s      (n=12; raw {epoch_s / scale:.6f})",
        f"fingerprint train-wsi seed {seed}: f{seed}",
        "attempted 96 (train pairs 96, bags scored 0), failed 0",
        json.dumps({"correct": True, "attempted": 96, "failed": 0,
                    "metrics": {"epoch_s": {"value": epoch_s, "unit": "s",
                                            "n": 12}}}),
        ""])


def test_host_speed_of_each_run_is_kept_and_its_median_printed(
        tmp_path, monkeypatch, capsys):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        (sides[side] / "perfbench").mkdir(parents=True)
        (sides[side] / "perfbench" / "run.py").touch()
    shutil.copy(ROOT / "BENCHMARK.json", sides["parent"])
    scales = {"parent": [0.80, 0.84, 0.90], "change": [0.85, 0.95, 0.70]}

    def run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        side = "parent" if cwd == sides["parent"] else "change"
        return SimpleNamespace(returncode=0, stderr="", stdout=canned_stdout(
            seed, scales[side][seed - 1], 0.3))

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    one = bench_pairs.run_once(sides["parent"], "train-wsi", 2, 30)
    assert one["host_speed"] == {"probe_median_ms": 23.81,
                                 "probes": 42, "scale": 0.84}
    assert one["fingerprint"] == "f2" and one["code"] == 0
    assert one["environment"] == {"blas_threads": 1, "commit": "abc1234"}
    assert bench_pairs.host_speed(["no probe here"]) is None

    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]), "--change",
                             str(sides["change"]), "--workload", "train-wsi",
                             "--seeds", "1-3", "--seconds", "30",
                             "--out", str(out)]) == 0
    assert "host speed scale, median: parent 0.8400, change 0.8500" in \
        capsys.readouterr().out
    doc = json.loads(out.read_text())["workloads"]["train-wsi"]
    assert doc["host_speed_scale"] == {"parent": 0.84, "change": 0.85}
    for side in ("parent", "change"):
        assert [r["host_speed"]["scale"] for r in doc["runs"][side]] \
            == scales[side]
        assert [r["host_speed"]["probes"] for r in doc["runs"][side]] \
            == [41, 42, 43]


def proc_stat(*cpus):
    """/proc/stat text with an aggregate line and one line per CPU, each CPU
    given as (user, idle, steal, guest) jiffies."""
    def line(name, user, idle, steal, guest):
        # user nice system idle iowait irq softirq steal guest guest_nice
        return f"{name} {user} 0 5 {idle} 1 0 2 {steal} {guest} 0"
    total = [sum(c[i] for c in cpus) for i in range(4)]
    return "\n".join([line("cpu ", *total)]
                     + [line(f"cpu{i}", *c) for i, c in enumerate(cpus)]
                     + ["intr 1398706 0 0", "ctxt 1989874", "btime 1700000000"])


def test_proc_stat_jiffies_count_user_through_steal():
    jiffies = bench_pairs.cpu_jiffies(proc_stat((100, 50, 7, 40), (10, 300, 0, 0)))
    # guest time is inside user, so it is not added again
    assert jiffies == {"cpu0": (7, 100 + 5 + 50 + 1 + 2 + 7),
                       "cpu1": (0, 10 + 5 + 300 + 1 + 2)}


def test_steal_share_is_per_cpu_over_the_window():
    before = bench_pairs.cpu_jiffies(proc_stat((100, 50, 7, 0), (10, 300, 0, 0)))
    after = bench_pairs.cpu_jiffies(proc_stat((160, 80, 17, 0), (90, 320, 0, 0)))
    assert bench_pairs.steal_shares(before, after) == {
        "cpu0": pytest.approx(10 / 100), "cpu1": 0.0}
    assert bench_pairs.steal_shares(None, after) is None
    assert bench_pairs.steal_marked({"steal": {"cpu0": 0.06}}, {"steal": None})
    assert not bench_pairs.steal_marked({"steal": {"cpu0": 0.05}}, {})


def test_steal_marks_pairs_and_the_claim_is_printed_both_ways(
        tmp_path, monkeypatch, capsys):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        (sides[side] / "perfbench").mkdir(parents=True)
        (sides[side] / "perfbench" / "run.py").touch()
    shutil.copy(ROOT / "BENCHMARK.json", sides["parent"])
    # each run moves 100 jiffies on each CPU: the change's run of seed 3
    # has 20 of cpu1's stolen, every other run 1
    stat = tmp_path / "stat"
    cpu1 = [0, 0]  # user and steal jiffies so far
    runs = [0]

    def run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        side = "parent" if cwd == sides["parent"] else "change"
        stolen = 20 if (side, seed) == ("change", 3) else 1
        runs[0] += 1
        cpu1[0] += 100 - stolen
        cpu1[1] += stolen
        stat.write_text(proc_stat((100 * runs[0], 0, 0, 0),
                                  (cpu1[0], 0, cpu1[1], 0)))
        epoch_s = PARENT[seed - 1] * (1.0 if side == "parent" else 0.80)
        return SimpleNamespace(returncode=0, stderr="",
                               stdout=canned_stdout(seed, 1.0, epoch_s))

    stat.write_text(proc_stat((0, 0, 0, 0), (0, 0, 0, 0)))
    monkeypatch.setattr(bench_pairs, "PROC_STAT", stat)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]), "--change",
                             str(sides["change"]), "--workload", "train-wsi",
                             "--seeds", "1-10", "--seconds", "30",
                             "--claim", "epoch_s", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    lines = text.rstrip().splitlines()
    assert [ln.split()[3] for ln in lines if ln.endswith("STEAL")] == ["3"]
    assert "pairs marked STEAL (a run saw over 5% steal on a CPU): 1 of 10" \
        in text
    assert lines[-3].startswith("claim rule over all pairs: won 10/10")
    assert lines[-2].startswith("claim rule over the pairs not marked STEAL: "
                                "won 9/9")
    assert lines[-1].startswith("CLAIM MET: epoch_s")
    doc = json.loads(out.read_text())["workloads"]["train-wsi"]
    assert doc["steal_pairs"] == [3]
    for side in ("parent", "change"):
        for r in doc["runs"][side]:
            stolen = 0.20 if (side, r["seed"]) == ("change", 3) else 0.01
            assert r["steal"] == {"cpu0": 0.0, "cpu1": pytest.approx(stolen)}


def test_no_proc_stat_records_no_steal(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "PROC_STAT", tmp_path / "no-stat")
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, cwd, **kw: SimpleNamespace(
                            returncode=0, stderr="",
                            stdout=canned_stdout(1, 1.0, 0.3)))
    run = bench_pairs.run_once(tmp_path, "train-wsi", 1, 30)
    assert run["steal"] is None and not bench_pairs.steal_marked(run)


def test_cpu_per_wall_is_user_plus_system_over_the_wall_time():
    before = SimpleNamespace(ru_utime=10.0, ru_stime=2.0)
    after = SimpleNamespace(ru_utime=50.0, ru_stime=7.0)
    assert bench_pairs.cpu_per_wall(before, after, 30.0) == pytest.approx(1.5)
    assert bench_pairs.cpu_per_wall(before, after, 0.0) is None


def test_cpu_per_wall_of_each_run_is_kept_and_its_median_printed(
        tmp_path, monkeypatch, capsys):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        (sides[side] / "perfbench").mkdir(parents=True)
        (sides[side] / "perfbench" / "run.py").touch()
    shutil.copy(ROOT / "BENCHMARK.json", sides["parent"])
    # every run takes 40 s of wall time; the parent's use 1.0, 1.2 and 1.1
    # CPU seconds per second, the change's 1.8, 1.6 and 1.9, split 3:1
    # between user and system time
    shares = {"parent": [1.0, 1.2, 1.1], "change": [1.8, 1.6, 1.9]}
    clock = {"wall": 100.0, "cpu": 5.0}

    def run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        side = "parent" if cwd == sides["parent"] else "change"
        clock["wall"] += 40.0
        clock["cpu"] += 40.0 * shares[side][seed - 1]
        return SimpleNamespace(returncode=0, stderr="",
                               stdout=canned_stdout(seed, 1.0, 0.3))

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(
        perf_counter=lambda: clock["wall"]))
    monkeypatch.setattr(bench_pairs, "resource", SimpleNamespace(
        RUSAGE_CHILDREN=-1, getrusage=lambda who: SimpleNamespace(
            ru_utime=0.75 * clock["cpu"], ru_stime=0.25 * clock["cpu"])))
    monkeypatch.setattr(bench_pairs, "PROC_STAT", tmp_path / "no-stat")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]), "--change",
                             str(sides["change"]), "--workload", "score-wsi",
                             "--seeds", "1-3", "--seconds", "30",
                             "--out", str(out)]) == 0
    assert "CPU seconds per wall second, median: parent 1.100, change 1.800" \
        in capsys.readouterr().out
    doc = json.loads(out.read_text())["workloads"]["score-wsi"]
    assert doc["cpu_per_wall"] == {"parent": pytest.approx(1.1),
                                   "change": pytest.approx(1.8)}
    for side in ("parent", "change"):
        assert [r["cpu_per_wall"] for r in doc["runs"][side]] \
            == pytest.approx(shares[side])


def test_runs_without_cpu_figures_print_na(tmp_path, monkeypatch, capsys):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        (sides[side] / "perfbench").mkdir(parents=True)
        (sides[side] / "perfbench" / "run.py").touch()
    shutil.copy(ROOT / "BENCHMARK.json", sides["parent"])
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: {
        "code": 0, "fingerprint": "f", "stderr": "", "cpu_per_wall": None,
        "result": {"correct": True, "metrics": {"epoch_s": {"value": 0.3}}}})
    assert bench_pairs.main(["--parent", str(sides["parent"]), "--change",
                             str(sides["change"]), "--workload", "train-small",
                             "--seeds", "1-2", "--seconds", "1"]) == 0
    assert "CPU seconds per wall second, median: parent n/a, change n/a" \
        in capsys.readouterr().out
