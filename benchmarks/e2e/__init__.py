"""End-to-end benchmark: workloads through the entry points users run.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T
--trace 0|1`` measures one workload in a fresh process and prints the
metrics named in ``BENCHMARK.json``; ``python -m benchmarks.e2e`` runs
every workload (``run``) and compares two run sets (``compare``).  See
``benchmarks/e2e/README.md``.
"""
