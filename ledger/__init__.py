"""Performance ledger for the wafer-scale collectives stack.

One command (``python3 ledger/run.py``) runs one of three workloads on
the library in ``src/`` and prints every metric with its unit, ending
with a one-line JSON verdict.  See ``ledger/README.md`` for the
workloads, the metrics and how each is measured.
"""
