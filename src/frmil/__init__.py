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
"""

import os

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREAD_VARS):
    for name in _BLAS_THREAD_VARS:
        os.environ[name] = "1"

__version__ = "0.1.0"
