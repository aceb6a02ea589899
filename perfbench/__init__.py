"""End-to-end and per-layer benchmark of the halfheat package.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the package in ``src/`` of the checkout holding this
directory.  The package is driven only through its public functions; the
traced run records spans by wrapping those functions from the outside.
"""
