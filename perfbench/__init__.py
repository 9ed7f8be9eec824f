"""Certificate benchmark for idealbench: workloads, harness and tracing.

Run it with ``python3 perfbench/run.py --workload NAME --seed N``; see
``perfbench/README.md``.
"""
