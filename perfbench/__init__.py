"""The repository's benchmark: end-to-end metrics plus per-layer attribution.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.  See ``perfbench/README.md``.
"""
