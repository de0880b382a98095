#!/usr/bin/env bash
# Runs every workload once per seed without tracing and saves each run's
# output as OUT/<workload>.<seed>.json, the layout --compare reads. Run from
# the root of the repository:
#
#   bash perfbench/runs.sh runs/base 20 1 2 3 4 5 6 7 8 9 10
#   bash perfbench/run.sh --compare runs/base runs/change
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: bash perfbench/runs.sh OUT_DIR SECONDS SEED..." >&2
	exit 2
fi
out=$1
seconds=$2
shift 2
mkdir -p "$out"
for workload in tpch-batch tpch-skew serve-adhoc; do
	for seed in "$@"; do
		bash "$(dirname "$0")/run.sh" --workload "$workload" --seed "$seed" \
			--seconds "$seconds" --trace 0 >"$out/$workload.$seed.json"
	done
done
