"""End-to-end and per-layer benchmark for the ``qcolour`` command line.

Run ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``bench/README.md``.
"""
