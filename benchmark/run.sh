#!/usr/bin/env bash
# Runs every benchmark workload: benchmark/run.sh [--seed=N] [--traced] [--smoke]
# (all of benchmark/run.py's options are accepted; see benchmark/README.md).
exec python3 "$(dirname "$0")/run.py" "$@"
