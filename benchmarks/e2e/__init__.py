"""End-to-end benchmark harness: five workloads, both clocks, per-layer wall.

See ``README.md`` in this directory.  Entry points::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python -m benchmarks.e2e --seed S [--workload W] [--traced] [--record]
"""
