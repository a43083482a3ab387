#!/bin/sh
# Run the simulation-core performance suite (emits BENCH_core.json).
# Pass --quick for the <60s smoke variant used by the tier-1 flow.
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src exec python benchmarks/bench_perf_core.py "$@"
