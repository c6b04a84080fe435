"""Benchmark of paper-figure regeneration, end to end and per layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace T``
is the entry point; see ``perfbench/README.md``.
"""
