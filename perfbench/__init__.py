"""Benchmark of the fbhardy library: four workloads, end-to-end metrics with
tracing off, and per-layer metrics from an outside-in trace.

Run it from the root of a checkout with ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
