"""The repo benchmark: five workloads, measured end to end and layer by layer.

Entry point: ``python3 bench/run.py`` (see ``bench/README.md``).
"""
