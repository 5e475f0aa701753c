#!/usr/bin/env bash
# Unit suite and the benchmark's own tests, then property verification, then
# (and only then) benchmarks. Runs from a checkout: exfusion is imported from src/.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

python3 -m pytest -q --durations=10
python3 -m exfusion._entry verify all --deterministic

if [ "${1:-}" = "--bench" ]; then
    shift
    python3 -m exfusion._entry bench --deterministic "$@"
fi
echo "ci: all checks green"
