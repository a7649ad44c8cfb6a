"""The repository benchmark: workloads, oracle, tracer and driver.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
