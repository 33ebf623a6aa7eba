#!/usr/bin/env bash
# The paper's oracles as committed files: runs each fixed-seed experiment
# below, strips the lines that measure the host rather than the protocol
# ("[wall time ...]" and the in-table "wall time" and "scenarios/min" rows),
# and compares the rest byte for byte with testdata/oracles/<name>.txt.
#
#   bash scripts/oracles.sh        regenerate into a temp dir and diff (make oracles)
#   bash scripts/oracles.sh pin    rewrite the pinned files (make oracles-pin)
#
# A re-pin states its reason in CHANGES.md, the same way a golden trace does.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mode="${1:-check}"
pins=testdata/oracles
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

go build -o "$out/sftbench" ./cmd/sftbench

# The three sftbench runs that have a make target keep their flags there; the
# paper's figure, theorem and message-count runs are spelled out.
oracle() {
	local name="$1"
	shift
	local start=$SECONDS
	if ! "$@" >"$out/$name.raw"; then
		tail -n 5 "$out/$name.raw" >&2
		echo "oracles: FAIL ($name exited non-zero)" >&2
		exit 1
	fi
	sed -E '/^[[:space:]]*\[wall time [^]]*\][[:space:]]*$/d; /^[[:space:]]*(wall time|scenarios\/min)[[:space:]]/d' \
		"$out/$name.raw" >"$out/$name.txt"
	echo "oracle $name ($((SECONDS - start))s)"
}

make="${MAKE:-make}"
oracle adversary-fuzz "$make" -s --no-print-directory adversary-fuzz
oracle adversary-fuzz-agg "$make" -s --no-print-directory adversary-fuzz-agg
oracle liveness-attack "$make" -s --no-print-directory liveness-attack
oracle fig7a "$out/sftbench" -experiment fig7a -n 100 -duration 1m -seed 3
oracle crashrecovery "$out/sftbench" -experiment crashrecovery -n 7 -duration 40s -delta 50ms -seed 3
oracle fig7b "$out/sftbench" -experiment fig7b -n 100 -duration 1m -seed 3
oracle fig8 "$out/sftbench" -experiment fig8 -n 100 -duration 1m -seed 3
oracle theorem2 "$out/sftbench" -experiment theorem2 -n 31 -duration 1m
oracle theorem3 "$out/sftbench" -experiment theorem3 -n 31 -duration 1m
oracle msgcomplexity "$out/sftbench" -experiment msgcomplexity

if [ "$mode" = pin ]; then
	mkdir -p "$pins"
	rm -f "$pins"/*.txt
	cp "$out"/*.txt "$pins"/
	echo "oracles: pinned $(ls "$pins" | wc -l) files in $pins"
	exit 0
fi

failed=0
for f in "$out"/*.txt; do
	name="$(basename "$f")"
	if ! diff -u "$pins/$name" "$f"; then
		failed=1
	fi
done
for f in "$pins"/*.txt; do
	if [ ! -f "$out/$(basename "$f")" ]; then
		echo "oracles: $f is pinned but no longer produced" >&2
		failed=1
	fi
done
if [ "$failed" -ne 0 ]; then
	echo "oracles: FAIL (output differs from $pins; rerun with 'make oracles-pin' only for an intended change)" >&2
	exit 1
fi
echo "oracles: all match $pins"
