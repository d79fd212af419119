"""Digest every output of the frmil command line, to compare two trees.

Usage: python tools/output_digest.py <src-dir>

Runs ``python -m frmil.cli`` with PYTHONPATH=<src-dir> in a fresh
temporary directory: ``gen`` builds a 36-bag D=8 store (seed 11), then
``train``, ``eval --out``, ``ablate --comparators``, ``tau`` (two
variants), ``baseline --out`` (two variants) and ``density`` (two
variants) run on it. A second store of two D=512 bags of 299 and 305
rows (seed 13) is trained for two epochs and scored: its bags cross
``training.PARALLEL_MIN_VALUES``, so where the process may use two CPUs
each step runs ``_pair_step`` with one bag's forward, loss and backward on
each of two threads, and each ``evaluate`` scores the two bags on two
threads; the first store's steps, the pooling heads' included, run on one. A third
store of eight D=512 bags of 130-300 rows (seed 17) runs ``tau`` (two
variants), ``baseline --split all --out`` and ``density``: each of its
bags spans several of the magnitude path's row bands. Prints
the environment (CPU model, numpy, BLAS) on its first line, then the
sha256 of every file written and of each command's stdout, with the
directory path stripped. Each ``.ckpt`` file gets a
second line, ``<sha256>  <path>#params``: the digest of the bytes after
its header. The framing (magic, version byte, uint32 header length)
is the same in every checkpoint version, so this line stays equal across
a change of header format when the parameters are unchanged. Two trees whose
training and scoring arithmetic agree print identical lines, so

    diff <(python tools/output_digest.py old/src) \\
         <(python tools/output_digest.py src)

is the byte-identity check of a refactor.
"""

import contextlib
import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TRAIN = ["--heads", "2", "--tau", "30", "--lr", "1e-3", "--seed", "5"]
COMMANDS = [
    ("gen", ["gen", "--out", "store", "--bags", "36", "--dim", "8",
             "--bag-min", "3", "--bag-max", "9", "--witness-rate", "0.25",
             "--separation", "2.0", "--seed", "11"]),
    ("train", ["train", "--data", "store", "--out", "run", "--epochs", "3"]
     + TRAIN),
    ("eval", ["eval", "--data", "store", "--ckpt", "run/final.ckpt",
              "--out", "scores.csv"]),
    ("ablate", ["ablate", "--data", "store", "--out", "ablate",
                "--comparators", "--epochs", "2"] + TRAIN),
    ("tau", ["tau", "--data", "store", "--recalibrate", "--out", "tau.json"]),
    ("tau-unsquared", ["tau", "--data", "store", "--unsquared", "--bins", "64",
                       "--split", "all", "--out", "tau_unsquared.json"]),
    ("baseline", ["baseline", "--data", "store", "--tau-file", "tau.json",
                  "--out", "baseline.csv"]),
    ("baseline-all", ["baseline", "--data", "store", "--split", "all",
                      "--out", "baseline_all.csv"]),
    ("density", ["density", "--data", "store", "--out", "density.csv"]),
    ("density-unsquared", ["density", "--data", "store", "--unsquared",
                           "--out", "density_unsquared.csv"]),
    ("gen-wide", ["gen", "--out", "wide", "--bags", "2", "--dim", "512",
                  "--bag-min", "290", "--bag-max", "310", "--split-fracs",
                  "1,0,0", "--seed", "13"]),
    ("train-wide", ["train", "--data", "wide", "--out", "wide-run",
                    "--epochs", "2", "--heads", "8", "--tau", "20", "--lr",
                    "1e-3", "--seed", "3"]),
    ("eval-wide", ["eval", "--data", "wide", "--ckpt", "wide-run/final.ckpt",
                   "--split", "all", "--out", "wide_scores.csv"]),
    ("gen-banded", ["gen", "--out", "banded", "--bags", "8", "--dim", "512",
                    "--bag-min", "130", "--bag-max", "300", "--split-fracs",
                    "1,0,0", "--seed", "17"]),
    ("tau-banded", ["tau", "--data", "banded", "--recalibrate",
                    "--out", "banded_tau.json"]),
    ("tau-banded-unsquared", ["tau", "--data", "banded", "--unsquared",
                              "--bins", "64", "--out",
                              "banded_tau_unsquared.json"]),
    ("baseline-banded", ["baseline", "--data", "banded", "--split", "all",
                         "--out", "banded_baseline.csv"]),
    ("density-banded", ["density", "--data", "banded",
                        "--out", "banded_density.csv"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> str:
    """The CPU model, numpy and BLAS build the digests are taken on: BLAS
    kernels differ by CPU, so bytes may differ elsewhere for a sound
    reason."""
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return "# environment " + json.dumps({"blas": blas, "cpu": cpu,
                                         "numpy": np.__version__})


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve()))
    env.pop("FRMIL_SEED", None)
    print(environment())
    with tempfile.TemporaryDirectory() as tmp:
        for label, args in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "frmil.cli", *args],
                                  cwd=tmp, env=env, capture_output=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode())
                print(f"{label} exited {proc.returncode}", file=sys.stderr)
                return 1
            stdout = proc.stdout.replace(os.fsencode(tmp), b"<dir>")
            print(f"{sha256(stdout)}  stdout:{label}")
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                name = path.relative_to(tmp)
                print(f"{sha256(data)}  {name}")
                if path.suffix == ".ckpt":
                    (header_len,) = struct.unpack("<I", data[5:9])
                    print(f"{sha256(data[9 + header_len:])}  {name}#params")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
