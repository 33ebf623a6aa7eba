#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke of the sftnode ops surface: start a
# 4-replica local cluster with -obs-addr, then assert /metrics serves
# well-formed Prometheus text exposition, /healthz answers 200, and /tracez
# and /debug/pprof/ respond. Fails on any malformed exposition line, missing
# metric family, or non-200 status.
set -euo pipefail

BIN=$(mktemp -d)/sftnode
OBS_PORT=${OBS_PORT:-17990}
BASE_PORT=${BASE_PORT:-17900}
PEERS="127.0.0.1:${BASE_PORT},127.0.0.1:$((BASE_PORT + 1)),127.0.0.1:$((BASE_PORT + 2)),127.0.0.1:$((BASE_PORT + 3))"

go build -o "$BIN" ./cmd/sftnode

pids=()
cleanup() {
    kill "${pids[@]}" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$(dirname "$BIN")"
}
trap cleanup EXIT

for id in 0 1 2 3; do
    args=(-id "$id" -n 4 -listen "127.0.0.1:$((BASE_PORT + id))" -peers "$PEERS" \
        -timeout 1s -txns 10 -quiet)
    if [ "$id" -eq 0 ]; then
        args+=(-obs-addr "127.0.0.1:${OBS_PORT}")
    fi
    "$BIN" "${args[@]}" &
    pids+=($!)
done

base="http://127.0.0.1:${OBS_PORT}"

# Wait for the ops server, then for consensus to commit something.
for i in $(seq 1 50); do
    if curl -fsS -o /dev/null "$base/healthz" 2>/dev/null; then
        break
    fi
    [ "$i" -eq 50 ] && { echo "FAIL: /healthz never came up"; exit 1; }
    sleep 0.2
done

commits=0
for i in $(seq 1 100); do
    commits=$(curl -fsS "$base/metrics" | awk '$1 == "sft_commits_total" {print $2}')
    [ "${commits:-0}" -gt 0 ] && break
    sleep 0.2
done
if [ "${commits:-0}" -le 0 ]; then
    echo "FAIL: no commits observed via /metrics"
    exit 1
fi
echo "OK: sft_commits_total=$commits"

# /healthz must answer 200 with status ok.
health=$(curl -fsS -w '\n%{http_code}' "$base/healthz")
code=$(tail -n1 <<<"$health")
body=$(head -n1 <<<"$health")
if [ "$code" != "200" ] || ! grep -q '"status":"ok"' <<<"$body"; then
    echo "FAIL: /healthz code=$code body=$body"
    exit 1
fi
echo "OK: /healthz 200 $body"

# Exposition well-formedness: every non-comment line is NAME{labels} VALUE,
# and the families the dashboards key on are present.
metrics=$(curl -fsS "$base/metrics")
bad=$(grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$)' <<<"$metrics" || true)
if [ -n "$bad" ]; then
    echo "FAIL: malformed exposition lines:"
    echo "$bad"
    exit 1
fi
for fam in sft_commits_total sft_rounds_total sft_round sft_votes_sent_total \
    sft_commit_latency_seconds_bucket sft_net_frames_total sft_net_send_dropped_total sft_qcs_observed_total \
    sft_pacemaker_rejected_timeouts_total; do
    if ! grep -q "^$fam" <<<"$metrics"; then
        echo "FAIL: metric family $fam missing from /metrics"
        exit 1
    fi
done
# Failures the engines tolerate are counted instead of dropped; a healthy
# cluster reads 0 on every one of them.
for fam in sft_app_execute_failed_total sft_sync_segments_rejected_total sft_qc_aggregate_failed_total; do
    val=$(awk -v f="$fam" '$1 == f {print $2}' <<<"$metrics")
    if [ "$val" != "0" ]; then
        echo "FAIL: $fam = '${val:-missing}', want 0"
        exit 1
    fi
done
# Every inbound frame is prevalidated exactly once and counted by whoever did
# it (here the TCP reader goroutines), so a live cluster reads > 0.
checked=$(awk '$1 == "sft_prevalidate_checked_total" {print $2}' <<<"$metrics")
if [ "${checked:-0}" -le 0 ]; then
    echo "FAIL: sft_prevalidate_checked_total = '${checked:-missing}', want > 0"
    exit 1
fi
echo "OK: /metrics well-formed ($(grep -cv '^#' <<<"$metrics") samples)"

# /tracez carries block lifecycles; /debug/pprof/ serves the index.
traces=$(curl -fsS "$base/tracez?n=4")
grep -q '"traces":\[{' <<<"$traces" || { echo "FAIL: /tracez empty: $traces"; exit 1; }
echo "OK: /tracez has traces"
curl -fsS -o /dev/null "$base/debug/pprof/" || { echo "FAIL: /debug/pprof/"; exit 1; }
echo "OK: /debug/pprof/"

echo "obs smoke: PASS"
