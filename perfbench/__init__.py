"""Benchmark of the repro pipeline: see README.md."""
