"""Host speed probe: fixed work, timed between a run's samples.

On a shared 2-core VM the host's speed drifts by up to ±30% within
minutes, and pure Python, numpy and BLAS drift together, with no change
in the program. A run times a fixed probe between its samples and scales
its timings by the probe's reference time over the probe's median time
in the run. A metric then moves with the program and not with the host.
The raw timings stay in the run's record.

The probe mixes the three kinds of work the workloads do, about 6 ms
each: an interpreter loop, where train-small's step spends its time;
elementwise numpy over a 2 MB array; and single-precision matrix
products. The D=512 workloads spend their time in the last two.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from .stats import median

PROBE_INTERVAL_S = 0.5   # probe at most this often
REFERENCE_S = 0.020      # median probe time on the VM the benchmark was defined on


class HostSpeed:
    """Probe samples of one run and the timing scale they give."""

    def __init__(self):
        self.samples: List[float] = []
        self._last = float("-inf")
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 512)).astype(np.float32)
        self._b = rng.standard_normal((512, 512)).astype(np.float32)
        self._x = rng.standard_normal((1024, 512)).astype(np.float32)

    def probe(self) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(70_000):
            total += i * i % 7
        for _ in range(10):
            y = np.maximum(self._x - 0.5, 0.0)
            y *= 1.01
            y += self._x
        for _ in range(5):
            self._a @ self._b
        end = time.perf_counter()
        self.samples.append(end - t0)
        self._last = end

    def maybe_probe(self) -> None:
        """Probe unless the last probe was under PROBE_INTERVAL_S ago."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()

    def scale(self) -> float:
        """Reference probe time over this run's median probe time: above 1
        when the host ran fast, so scaled times are raw times times this."""
        return REFERENCE_S / median(self.samples)
