"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage: python tools/bench_pairs.py --parent DIR --change DIR \\
           --workload W --seeds 71-75 --seconds 30 [--claim METRIC] \\
           [--out FILE]

For each seed, runs ``perfbench/run.py --trace 0`` once in each checkout,
the parent first on even pairs and the change first on odd ones, so a
drift in host speed falls on both sides. Then prints, for every
end-to-end metric of the parent's BENCHMARK.json: the parent median, the
change median, their ratio, the pairs the change won (ties count for
neither), and the parent's quartile spread over its median. A metric whose
change median is worse than the parent median by more than its ``bound``,
as a fraction of the parent median in the direction of ``better``, is
marked OUT OF BOUND. Seeds whose output fingerprints differ between the
two checkouts are flagged. With ``--claim METRIC`` it prints CLAIM MET or
CLAIM NOT MET under the table, by the gain rule of ``claim_met``.

Under the table it prints each side's median host speed scale, read from
every run's ``host speed:`` line (perfbench/hostspeed.py): the run's
window timings were multiplied by that scale, so two sides that ran at
different host speeds show here.

Where ``/proc/stat`` exists, each run records every CPU's steal time (time
a virtual machine's CPU waited for its host) as a share of that CPU's time
over the run's window. A pair either of whose runs saw more than
``STEAL_MARK`` on any CPU is marked STEAL. With ``--claim`` the gain rule
is printed over all pairs and over the unmarked pairs; CLAIM MET is
decided over all pairs, and no pair is dropped.

Each run also records the CPU seconds (user + system) its process used per
second of wall time, from ``getrusage(RUSAGE_CHILDREN)`` before and after
it; under the table it prints each side's median. A run that scores a
large bag on two CPUs reads above 1; one whose second CPU the host took
reads near 1.

With ``--out FILE`` it also writes the table as JSON, under
``"workloads"`` and the workload's name, keeping the other workloads
already in FILE: every run's seed, exit code, metrics, fingerprint,
environment line, host speed (probe median, probe count and scale),
steal shares and CPU seconds per wall second, the seeds of the STEAL pairs,
each side's median scale and median CPU seconds per wall second, and
per metric each side's median and quartiles, the ratio, the pairs won,
the parent's spread and the bound check.

Exits 1 when any run exits non-zero or reports ``"correct": false``,
2 on bad arguments, before any run: among them a ``--workload`` that is
not one of the parent's BENCHMARK.json ``workloads``, a ``--seconds``
that is not finite and positive, and a ``--seeds`` range that runs
backwards.
"""

import argparse
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list:
    """'71-75' or '71,73,80-81' to a list of seeds; ValueError for a range
    whose end is below its start."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"seed range {part!r} runs backwards")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ValueError("no seeds")
    return seeds


HOST_SPEED = re.compile(r"host speed: probe median ([0-9.]+) ms over ([0-9]+) "
                        r"probes, .*scale ([0-9.]+)")


def host_speed(lines: list):
    """The probe median (ms), the probe count and the scale of a run's
    ``host speed:`` line; None without one."""
    for line in lines:
        match = HOST_SPEED.match(line)
        if match:
            return {"probe_median_ms": float(match[1]),
                    "probes": int(match[2]), "scale": float(match[3])}
    return None


# A pair is marked when a run saw more steal than this on any CPU.
STEAL_MARK = 0.05
PROC_STAT = Path("/proc/stat")


def cpu_jiffies(text: str) -> dict:
    """Each CPU's (steal, total) jiffies in ``/proc/stat`` text. The total
    sums user through steal: guest time is already counted in user."""
    jiffies = {}
    for line in text.splitlines():
        name, *values = line.split()
        if name.startswith("cpu") and name != "cpu":
            times = [int(v) for v in values[:8]]
            jiffies[name] = (times[7] if len(times) == 8 else 0, sum(times))
    return jiffies


def read_jiffies():
    """``cpu_jiffies`` of ``/proc/stat`` now; None where there is none."""
    return cpu_jiffies(PROC_STAT.read_text()) if PROC_STAT.exists() else None


def steal_shares(before, after):
    """Each CPU's steal jiffies between two ``cpu_jiffies`` readings over
    all its jiffies between them; None without both readings."""
    if before is None or after is None:
        return None
    shares = {}
    for cpu, (steal, total) in after.items():
        if cpu in before and total > before[cpu][1]:
            shares[cpu] = (steal - before[cpu][0]) / (total - before[cpu][1])
    return shares


def steal_marked(*runs) -> bool:
    """Whether any of the runs saw more than ``STEAL_MARK`` steal on a CPU."""
    return any(share > STEAL_MARK for run in runs
               for share in (run.get("steal") or {}).values())


def cpu_per_wall(before, after, wall: float):
    """CPU seconds (user + system) used by the children waited for between
    two ``getrusage(RUSAGE_CHILDREN)`` readings, per second of ``wall``;
    None for no wall time."""
    used = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return used / wall if wall > 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its result line, fingerprint, environment
    line, host speed, steal shares, CPU seconds per wall second and exit
    code."""
    before = read_jiffies()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    cpu = cpu_per_wall(usage, resource.getrusage(resource.RUSAGE_CHILDREN),
                       time.perf_counter() - start)
    steal = steal_shares(before, read_jiffies())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    prefix = f"fingerprint {workload} seed {seed}: "
    fingerprint = next((ln[len(prefix):] for ln in lines if ln.startswith(prefix)),
                       None)
    env = next((ln[len("environment "):] for ln in lines
                if ln.startswith("environment ")), None)
    return {"code": proc.returncode, "result": result,
            "fingerprint": fingerprint, "stderr": proc.stderr,
            "environment": None if env is None else json.loads(env),
            "host_speed": host_speed(lines), "steal": steal,
            "cpu_per_wall": cpu}


def median_or_none(values: list):
    """The median of the values that are not None; None when none is."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def quartiles(values: list) -> list:
    """[q1, median, q3], inclusive method; all three equal for one value."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def spread(values: list) -> float:
    """Distance between the quartiles over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse new is than old, as a fraction of old (negative when
    better)."""
    diff = new - old if better == "lower" else old - new
    if not old:
        return math.copysign(float("inf"), diff) if diff else 0.0
    return diff / abs(old)


def pairs_won(pairs: list, better: str) -> int:
    """Pairs (parent, change) in which the change is better; ties count
    for neither."""
    return sum((c < p) if better == "lower" else (c > p) for p, c in pairs)


def median_gain(pairs: list, better: str) -> float:
    """How much better the change's median is than the parent's, as a
    fraction of the parent's."""
    return -worse_by(statistics.median([p for p, _ in pairs]),
                     statistics.median([c for _, c in pairs]), better)


def claim_met(pairs: list, better: str) -> bool:
    """The gain rule: the change wins at least 9 in 10 of the pairs, and
    its median beats the parent's by more than the distance between the
    parent's quartiles."""
    return (pairs_won(pairs, better) >= 0.9 * len(pairs)
            and median_gain(pairs, better) > spread([p for p, _ in pairs]))


def claim_line(pairs: list, better: str, which: str) -> str:
    """The gain rule's inputs and verdict over some pairs, as one line."""
    if not pairs:
        return f"claim rule over {which}: no pairs"
    return (f"claim rule over {which}: won {pairs_won(pairs, better)}/"
            f"{len(pairs)}, gain {median_gain(pairs, better):+.1%}, spread "
            f"{spread([p for p, _ in pairs]):.1%}: "
            f"{'met' if claim_met(pairs, better) else 'not met'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--claim", metavar="METRIC",
                        help="end-to-end metric the change claims to improve")
    parser.add_argument("--out", type=Path, metavar="FILE",
                        help="JSON file to write this workload's table into")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"--seeds must look like 71-75 or 71,72, got {args.seeds!r}")
    if not 0 < args.seconds < math.inf:
        parser.error(f"--seconds must be finite and positive, got "
                     f"{args.seconds:g}")
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            parser.error(f"{side} has no perfbench/run.py")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must name one of {sorted(metrics)}, "
                     f"got {args.claim!r}")
    workloads = [w["name"] for w in spec.get("workloads", [])]
    if args.workload not in workloads:
        parser.error(f"--workload must name one of {workloads}, "
                     f"got {args.workload!r}")

    runs = {"parent": [], "change": []}
    ok = True
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(run)
            if run["code"] != 0 or not run["result"].get("correct"):
                ok = False
                print(f"FAILED: {side} seed {seed} exited {run['code']}, correct "
                      f"{run['result'].get('correct')}\n{run['stderr']}",
                      file=sys.stderr)
        parent, change = runs["parent"][-1], runs["change"][-1]
        same = parent["fingerprint"] == change["fingerprint"]
        print(f"pair {i + 1}/{len(seeds)} seed {seed} ({order[0]} first): "
              f"fingerprint {parent['fingerprint']} / {change['fingerprint']}"
              + ("" if same else "  DIFFERENT")
              + ("  STEAL" if steal_marked(parent, change) else ""), flush=True)

    differ = sum(p["fingerprint"] != c["fingerprint"]
                 for p, c in zip(runs["parent"], runs["change"]))
    print(f"\n{args.workload}, {len(seeds)} pairs of {args.seconds:g} s runs; "
          f"fingerprints differ on {differ} of {len(seeds)} pairs")
    print(f"{'metric':22s} {'parent':>12s} {'change':>12s} {'ratio':>7s} "
          f"{'won':>6s} {'spread':>7s}")
    out_of_bound = []
    claim = False  # stays so when no run reported the claimed metric
    claim_lines = []
    table = {}
    for name, metric in metrics.items():
        direction = metric["better"]
        both = [(p, c) for p, c in zip(runs["parent"], runs["change"])
                if name in p["result"].get("metrics", {})
                and name in c["result"].get("metrics", {})]
        pairs = [(p["result"]["metrics"][name]["value"],
                  c["result"]["metrics"][name]["value"]) for p, c in both]
        if not pairs:
            continue
        old = [p for p, _ in pairs]
        new = [c for _, c in pairs]
        old_med, new_med = statistics.median(old), statistics.median(new)
        won = pairs_won(pairs, direction)
        ratio = new_med / old_med if old_med else float("inf")
        worse = worse_by(old_med, new_med, direction)
        flag = ""
        if worse > metric["bound"]:
            out_of_bound.append(name)
            flag = f"  OUT OF BOUND ({worse:+.1%} worse, bound {metric['bound']:.0%})"
        print(f"{name:22s} {old_med:12.6g} {new_med:12.6g} {ratio:7.3f} "
              f"{won:>3d}/{len(pairs):<2d} {spread(old):7.3f}{flag}")
        if name == args.claim:
            claim = claim_met(pairs, direction)
            unmarked = [pair for pair, runs_of_pair in zip(pairs, both)
                        if not steal_marked(*runs_of_pair)]
            claim_lines = [claim_line(pairs, direction, "all pairs"),
                           claim_line(unmarked, direction,
                                      "the pairs not marked STEAL")]
        table[name] = {"better": direction, "bound": metric["bound"],
                       "parent_quartiles": quartiles(old),
                       "change_quartiles": quartiles(new), "ratio": ratio,
                       "won": won, "pairs": len(pairs), "spread": spread(old),
                       "out_of_bound": worse > metric["bound"]}
    scales = {side: [run["host_speed"]["scale"] for run in side_runs
                     if run.get("host_speed")]
              for side, side_runs in runs.items()}
    median_scale = {side: median_or_none(values)
                    for side, values in scales.items()}
    print("host speed scale, median: " + ", ".join(
        f"{side} " + ("n/a" if value is None else f"{value:.4f}")
        for side, value in median_scale.items()))
    cpu = {side: median_or_none([run.get("cpu_per_wall") for run in side_runs])
           for side, side_runs in runs.items()}
    print("CPU seconds per wall second, median: " + ", ".join(
        f"{side} " + ("n/a" if value is None else f"{value:.3f}")
        for side, value in cpu.items()))
    marked = [seed for seed, p, c in zip(seeds, runs["parent"], runs["change"])
              if steal_marked(p, c)]
    print(f"pairs marked STEAL (a run saw over {STEAL_MARK:.0%} steal on a "
          f"CPU): {len(marked)} of {len(seeds)}")
    if out_of_bound:
        print(f"out of bound: {', '.join(out_of_bound)}")
    claim = claim and ok  # a gain does not count over failed runs
    for line in claim_lines:
        print(line)
    if args.claim is not None:
        print(f"CLAIM {'MET' if claim else 'NOT MET'}: {args.claim} "
              f"(at least 9 in 10 pairs won, a median gain above the "
              f"parent's quartile spread, and no failed run)")
    if args.out is not None:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("workloads", {})[args.workload] = {
            "seeds": seeds, "seconds": args.seconds,
            "fingerprints_differ": differ,
            "claim": None if args.claim is None else {"metric": args.claim,
                                                      "met": claim},
            "metrics": table, "host_speed_scale": median_scale,
            "steal_pairs": marked, "cpu_per_wall": cpu,
            "runs": {side: [{"seed": seed, "code": run["code"],
                             "correct": run["result"].get("correct"),
                             "fingerprint": run["fingerprint"],
                             "environment": run["environment"],
                             "host_speed": run.get("host_speed"),
                             "steal": run.get("steal"),
                             "cpu_per_wall": run.get("cpu_per_wall"),
                             "metrics": {k: v["value"] for k, v in
                                         run["result"].get("metrics", {}).items()}}
                            for seed, run in zip(seeds, side_runs)]
                     for side, side_runs in runs.items()}}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
