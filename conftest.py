"""Imported by pytest before any test module, so ``frmil`` pins BLAS to one
thread before numpy loads, as it does for the command line."""

import frmil  # noqa: F401
