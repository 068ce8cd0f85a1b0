"""The repository benchmark: seeded workloads against the public API.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/METHODOLOGY.md``.
"""
