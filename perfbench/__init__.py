"""The repo's benchmark: three paper-shaped workloads (see ``run.py``)."""
