"""Every output byte of the command line, pinned: ``tools/output_digest.py``
on this tree must print ``tests/golden_digests.txt``.

The file was taken with ``python tools/output_digest.py src >
tests/golden_digests.txt``. A change that moves output bytes on purpose
takes it again and says why; a refactor never does. BLAS kernels differ by
CPU, so on another CPU model, numpy or BLAS build the test skips."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", TOOL)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_outputs_equal_the_golden_digests():
    golden = (ROOT / "tests" / "golden_digests.txt").read_text().splitlines()
    here = output_digest.environment()
    if here != golden[0]:
        pytest.skip(f"the digests were taken on {golden[0][2:]}, "
                    f"this is {here[2:]}")
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == golden
