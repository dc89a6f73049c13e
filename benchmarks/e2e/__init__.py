"""End-to-end benchmark of the Fig. 6 flow: library calls and served jobs.

Run ``python3 benchmarks/e2e/run.py --help``; ``README.md`` in this
directory documents the workloads, the metrics and a baseline.
"""
