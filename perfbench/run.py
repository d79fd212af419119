"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout of the repository: the engine is
imported from the checkout's ``src`` directory, never from an installed
package. With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS asks for more; more
threads than the process may use is refused.

Exit codes: 0 success; 1 a correctness check failed; 2 bad arguments, no
engine sources, or too many BLAS threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-small", "train-wsi", "score-wsi")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> tuple:
    """Fix the BLAS thread count before numpy loads; return it and nproc."""
    nproc = len(os.sched_getaffinity(0))
    text = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        raise SystemExit(f"error: OPENBLAS_NUM_THREADS={text!r} is not an integer")
    if not 1 <= threads <= nproc:
        raise SystemExit(f"error: {threads} BLAS threads requested, but this "
                         f"process may use {nproc} CPUs")
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    return threads, nproc


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "frmil" / "__init__.py").is_file():
        print(f"error: no engine sources at {src / 'frmil'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        threads, nproc = pin_blas_threads()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import frmil
    if Path(frmil.__file__).resolve().parent != src / "frmil":
        print(f"error: frmil was imported from {frmil.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    env = harness.environment(ROOT, threads, nproc)
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       ROOT, units, env)


if __name__ == "__main__":
    sys.exit(main())
