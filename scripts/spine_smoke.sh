#!/usr/bin/env bash
# Spine smoke: runs every workload of the wall-clock benchmark (bench/run.sh)
# once over a 3 s window, plus one traced run that exercises the per-layer
# probes, and fails unless each run's last line (the JSON result) reports
# "correct":true and "failed":0.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seconds=3

check() {
	local label="$1"
	shift
	local out last
	if ! out="$(bash bench/run.sh "$@")"; then
		printf '%s\n' "$out" | tail -n 3 >&2
		echo "spine smoke: FAIL ($label exited non-zero)" >&2
		exit 1
	fi
	last="$(printf '%s\n' "$out" | tail -n 1)"
	echo "$label: $last"
	if ! grep -q '"correct":true' <<<"$last" || ! grep -Eq '"failed":0[,}]' <<<"$last"; then
		echo "spine smoke: FAIL ($label is not correct with zero failures)" >&2
		exit 1
	fi
}

for w in bank_paced bank_sat order_sat sim100_fault; do
	check "$w" -workload "$w" -seconds "$seconds" -trace 0
done
check "order_sat traced" -workload order_sat -seconds "$seconds" -trace 1
echo "spine smoke: PASS"
