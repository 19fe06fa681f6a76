"""End-to-end and per-layer benchmark of the scenario-grid, league and
gossip executors.  Run ``python3 perfbench/run.py --help``; the metric
and workload rationale is in ``perfbench/README.md``."""
