"""Repository benchmark: workloads, probes and the ``run.py`` command (see README.md)."""
