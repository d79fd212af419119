"""Desk-scale multiple-instance-learning engine on instance-feature bags.

Subpackages:
  autodiff   tensor arithmetic with reverse-mode differentiation
  bagdata    bag store I/O, synthetic generation, splits, balanced sampling
  baseline   non-parametric magnitude baseline and margin estimation
  model      max-instance selection, re-calibration, positional encoding,
             attention pooling, comparator heads
  objectives bag / max-instance / feature-magnitude losses
  training   Adam, training loop, metrics, checkpoints
  cli        command-line entry point

Importing the package before numpy pins BLAS to one thread unless one of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is already set:
a threaded BLAS splits products differently, so checkpoints written with
two threads differ in their last bits from those written with one.

On glibc, importing the package also fixes the heap's mmap threshold at
32 MiB and its trim threshold at 128 MiB, unless a ``MALLOC_`` variable or
a ``glibc.malloc`` tunable in GLIBC_TUNABLES is set. glibc's defaults hand
each step's freed (n, D) temporaries back to the kernel and fault them in
again on the next step: about 3,000 minor page faults per D=512 training
step with bags of 1,000 instances, against under 50 with the fixed policy.
"""

import ctypes
import os
import platform

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREAD_VARS):
    for name in _BLAS_THREAD_VARS:
        os.environ[name] = "1"

# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# 32 MiB is the largest mmap threshold glibc accepts on 64-bit hosts
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 128 << 20))


def _apply_heap_policy() -> bool:
    """Set ``_HEAP_POLICY`` through glibc's mallopt; True when every
    setting took. Does nothing, and returns False, on another C library
    or when the user tunes malloc through the environment."""
    if (any(name.startswith("MALLOC_") for name in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success and 0 when it rejects a value
    return all([mallopt(param, value) == 1 for param, value in _HEAP_POLICY])


heap_policy_applied = _apply_heap_policy()

__version__ = "0.1.0"
