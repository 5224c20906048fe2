"""Layered benchmark for meanlab.

    python3 perfbench/run.py --workload orbit-slow --seed 1 --seconds 25 --trace 0

See ``run.py`` for the command line and ``BENCHMARK.json`` at the root of
the repository for the declared workloads and metrics.
"""
