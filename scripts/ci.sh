#!/usr/bin/env bash
# Unit suite and the benchmark's own tests, then property verification, then
# (and only then) benchmarks. Runs from a checkout: exfusion is imported from src/.
# The unit suite already runs every verify suite at seed 0, so verify runs here
# at a second seed.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

python3 -m pytest -q --durations=10
# A numpy overflow or invalid value fails verify, as it fails the unit suite.
python3 -W error::RuntimeWarning -m exfusion._entry verify all --seed 1 --deterministic

if [ "${1:-}" = "--bench" ]; then
    shift
    python3 -m exfusion._entry bench --deterministic "$@"
fi
echo "ci: all checks green"
