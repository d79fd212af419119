"""Benchmark of the frmil engine; see README.md in this directory."""
