GO ?= go

# Native fuzz targets: the pinned wire decoders, the TCP frame parser, the
# three engines' message doors (FuzzOnMessage: OnMessage against Prevalidate +
# OnVerifiedMessage on arbitrary decoded messages), the vote history against
# its full-scan reference and the strength trackers against their map-keyed
# references, each on an arbitrary op stream. Each entry is
# <package>:<target>; fuzz-smoke runs every target briefly, fuzz-long (the
# nightly job) runs them for FUZZTIME_LONG each.
FUZZ_TARGETS = \
	./internal/types:FuzzDecodeVote \
	./internal/types:FuzzDecodeQC \
	./internal/types:FuzzDecodeCompactQC \
	./internal/types:FuzzDecodeBlock \
	./internal/types:FuzzDecodeMessage \
	./internal/tcpnet:FuzzServeFrames$$ \
	./internal/tcpnet:FuzzServeFramesMultiPeer \
	./internal/app:FuzzBankApply \
	./internal/gateway:FuzzDecodeEventFrame \
	./internal/gateway:FuzzDecodeSubscribeFrame \
	./internal/diembft:FuzzOnMessage \
	./internal/streamlet:FuzzOnMessage \
	./internal/observer:FuzzOnMessage \
	./internal/core:FuzzHistoryMatchesReference \
	./internal/core:FuzzTrackerMatchesReference
FUZZTIME_SMOKE ?= 20s
FUZZTIME_LONG ?= 10m

.PHONY: all build build-examples vet test test-race bench-micro bench-guard fuzz-smoke fuzz-long adversary-fuzz adversary-fuzz-agg compactcert liveness-attack obs-smoke gateway-smoke spine-smoke oracles oracles-pin loc knobs

all: test

build:
	$(GO) build ./...

# Smoke-compile the facade examples on their own: `go build ./...` covers
# them too, but this target is the CI step that fails loudly when an
# examples-only regression slips in.
build-examples:
	$(GO) build ./examples/...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

# Race-detector run; CI runs this as its own job.
test-race:
	$(GO) test -race ./...

# Micro-benchmarks: PR-1 (QC cache, event core, tracker, signing payloads),
# PR-2 (WAL append/replay, vote-path journal appends), and PR-3 (batched
# signature verification vs the serial cold path), the O(changed)
# bookkeeping steps at three kept-window sizes (BenchmarkMarkerExtend and
# BenchmarkPruneStep must read about the same at 64, 512 and 4096), and the
# tracker at the paper's scale (BenchmarkTrackerOnQCFresh: n=100, each
# certificate new; BenchmarkTrackerOnQC is the already-covered fast path),
# and one timed-out round at n=100 as one replica sees it
# (BenchmarkTimedOutRound: 99 timeouts carrying one certificate, which is
# examined once), one leader-reputation election, window 8, walking the
# ancestry at n=7 and taking the no-walk shortcut at n=100
# (BenchmarkReputationElection), and one app checkpoint of a bank with 4,096
# divergent accounts and 512 kept roots (BenchmarkExecutorCheckpoint).
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkVerifyQCCached|BenchmarkVerifyQCBatch' -benchmem ./internal/crypto/
	$(GO) test -run '^$$' -bench BenchmarkSimnetEventLoop -benchmem ./internal/simnet/
	$(GO) test -run '^$$' -bench 'BenchmarkTrackerOnQC|BenchmarkMarker|BenchmarkJournalAppendVote' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkPruneStep -benchmem ./internal/replica/
	$(GO) test -run '^$$' -bench 'BenchmarkTimedOutRound|BenchmarkReputationElection' -benchmem ./internal/diembft/
	$(GO) test -run '^$$' -bench BenchmarkExecutorCheckpoint -benchmem ./internal/app/
	$(GO) test -run '^$$' -bench BenchmarkSigningPayload -benchmem ./internal/types/
	$(GO) test -run '^$$' -bench 'BenchmarkAppendFlush|BenchmarkReplay' -benchmem ./internal/wal/

# Bench guard: every AllocsPerRun regression guard plus the compact-QC
# wire-size guard (a steady-state certificate must stay O(1) bytes: 100 at
# n=31, 108 at n=103 — one extra bitmap word is the only growth allowed),
# the flat-journal guard (at keep 512, WAL bytes on disk and restart time and
# allocations read the same after 2,000 and 20,000 heights), the footprint
# guard (at keep 512 the store's height ring, the vote history, its chain
# index and the strength feed hold at most keep + max(keep/8, 64) slots, the
# same after 2,000 and 20,000 heights, and the store keeps no map keyed by
# block ID), run as tests so any regression is a hard failure, then the
# micro-benchmarks for the numbers. CI runs this; record results in
# BENCH_PR<n>.json when they move.
bench-guard:
	$(GO) test -run 'Alloc' -count=1 ./internal/types/ ./internal/simnet/ ./internal/core/ ./internal/wal/ ./internal/crypto/ ./internal/obs/ ./internal/app/ ./internal/tcpnet/ ./internal/replica/ ./internal/diembft/ ./internal/window/ ./sft/
	$(GO) test -run 'TestCompactQCSizeFlat' -count=1 ./internal/types/
	$(GO) test -run 'TestRecordFootprint' -count=1 ./internal/core/
	$(GO) test -run 'TestJournalFlat' -count=1 ./internal/core/
	$(GO) test -run 'TestFootprint' -count=1 ./internal/blockstore/ ./sft/
	$(MAKE) bench-micro

# Short native-fuzz pass over the wire decoders, the TCP frame parser and the
# engines' message doors; CI runs this on every push. `go test -fuzz` takes one target per
# invocation, so the loop fans the list out.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "== fuzz $$pkg $$target ($(FUZZTIME_SMOKE))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "$$target" -fuzztime $(FUZZTIME_SMOKE) || exit 1; \
	done

# Long fuzz for the nightly / manual-dispatch workflow.
fuzz-long:
	$(MAKE) fuzz-smoke FUZZTIME_SMOKE=$(FUZZTIME_LONG)

# The adversarial scenario fuzzer at its acceptance setting: 150 seeded
# randomized scenarios plus the weakened-rule canary. 150, not the flag's
# default of 60, so the sweep reaches benign Streamlet scenarios with a healed
# partition (the first at this seed is index 117), which is where the rejoin
# clause of the liveness check binds.
adversary-fuzz:
	$(GO) run ./cmd/sftbench -experiment adversary -seed 1 -n 7 -scenarios 150

# The same sweep with compact certificates on the wire: every QC formed in
# every scenario is an aggregated bitmap certificate under real ed25519.
adversary-fuzz-agg:
	$(GO) run ./cmd/sftbench -experiment adversary -seed 1 -n 7 -scheme ed25519-agg

# The compact-certificate experiment (fig 7a analogue): n=31 vs n=103 wire
# bytes and verify CPU, vector vs aggregated form, under real ed25519.
compactcert:
	$(GO) run ./cmd/sftbench -experiment compactcert -seed 1

# Liveness under attack: f timeout-spam colluders against the pacemaker with
# its per-peer timeout cap lifted (the reference arm UncappedTimeouts) vs the
# default pacemaker (cap 8; leader reputation, window 8, as always) at one
# seed (explicit-only in sftbench; this is its acceptance shape). The
# experiment fails unless the default arm stays live with its per-peer
# timeout buffer bounded while the uncapped arm's grows without bound.
liveness-attack:
	$(GO) run ./cmd/sftbench -experiment livenessattack -seed 1 -n 7 -duration 10s

# The paper's oracles as committed files: adversary-fuzz, adversary-fuzz-agg,
# liveness-attack, fig7a, fig7b and fig8 (n=100, 1m, seed 3), theorem2 and
# theorem3 (n=31, 1m), msgcomplexity and crashrecovery (n=7, 40s, delta 50ms,
# seed 3), each with its wall-time lines stripped, diffed byte for byte
# against testdata/oracles/. CI runs this; oracles-pin rewrites the pins, and
# a re-pin states its reason in CHANGES.md. doc.go maps each to its claim.
oracles:
	bash scripts/oracles.sh

oracles-pin:
	bash scripts/oracles.sh pin

# Ops-surface smoke: start a live 4-node TCP cluster with -obs-addr and
# assert /metrics serves well-formed Prometheus exposition, /healthz is 200,
# and /tracez + /debug/pprof respond. CI runs this.
obs-smoke:
	bash scripts/obs_smoke.sh

# Access-tier smoke: a live 4-node cluster, an sftgateway following it, and
# the sftclient -subscribe probe verifying streamed strength proofs against
# the committee's PKI, plus the gateway's own /metrics + /healthz. CI runs
# this.
gateway-smoke:
	bash scripts/gateway_smoke.sh

# Benchmark-spine smoke: every bench/run.sh workload over a short window
# (-trace 0) plus one traced run that exercises the probes; fails unless each
# result line reads "correct":true and "failed":0. CI runs this.
spine-smoke:
	bash scripts/spine_smoke.sh

# Non-test and test Go line counts per package plus a total, bench/ (its own
# module, not editable by most PRs) excluded. "Net-negative LOC" is read from
# this command, not from a reviewer's shell history.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' | sort | awk -F/ ' \
		{ pkg = $$0; sub(/\/[^\/]*$$/, "", pkg); test = ($$NF ~ /_test\.go$$/); \
		  n = 0; while ((getline line < $$0) > 0) n++; close($$0); \
		  if (!(pkg in seen)) { seen[pkg] = 1; order[++pkgs] = pkg } \
		  if (test) t[pkg] += n; else c[pkg] += n } \
		END { for (i = 1; i <= pkgs; i++) { p = order[i]; printf "%-28s %7d %7d\n", p, c[p], t[p]; C += c[p]; T += t[p] } \
		      printf "%-28s %7d %7d\n", "total (non-test, test)", C, T }'

# Settable values, counted the way loc counts lines: exported fields of every
# configuration struct (a comma list counts once per name; an embedded struct
# is counted under its own name), the With* options of the facade, and the
# flags of each command. "Fewer options" is read from this command.
KNOB_STRUCTS = \
	sft/sft.go:Config:sft.Config \
	sft/sft.go:CommitRule:sft.CommitRule \
	sft/transport.go:TCPConfig:sft.TCPConfig \
	sft/simnet.go:SimnetConfig:sft.SimnetConfig \
	sft/access.go:ObserverConfig:sft.ObserverConfig \
	sft/access.go:GatewayConfig:sft.GatewayConfig \
	sft/access.go:SubscriberConfig:sft.SubscriberConfig \
	internal/replica/replica.go:Config:replica.Config \
	internal/diembft/diembft.go:Config:diembft.Config \
	internal/streamlet/streamlet.go:Config:streamlet.Config \
	internal/observer/observer.go:Config:observer.Config \
	internal/runtime/runtime.go:Options:runtime.Options \
	internal/simnet/simnet.go:Config:simnet.Config \
	internal/tcpnet/tcpnet.go:Config:tcpnet.Config \
	internal/harness/harness.go:Scenario:harness.Scenario \
	internal/harness/experiments.go:Scale:harness.Scale

# The ratchet: knobs fails when the total exceeds KNOB_BUDGET or a listed file
# or struct is missing. A change that removes knobs lowers the budget to the
# new total; one that adds a knob removes another.
KNOB_BUDGET = 162

knobs:
	@{ for s in $(KNOB_STRUCTS); do \
		file=$${s%%:*}; rest=$${s#*:}; \
		if [ ! -f $$file ]; then printf "%-28s MISSING\n" "$${rest#*:}"; continue; fi; \
		awk -v name="$${rest%%:*}" -v label="$${rest#*:}" ' \
			$$0 ~ "^type " name " struct" { on = 1; found = 1; next } \
			on && /^}/ { on = 0 } \
			on && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)* /) { \
				names = substr($$0, RSTART, RLENGTH); n += gsub(/,/, ",", names) + 1 } \
			END { if (found) printf "%-28s %4d\n", label, n; else printf "%-28s MISSING\n", label }' $$file; \
	  done; \
	  printf "%-28s %4d\n" "sft With* options" $$(cat $$(ls sft/*.go | grep -v _test.go) | grep -c '^func With'); \
	  for d in cmd/*/; do \
		printf "%-28s %4d\n" "$${d%/} flags" $$(cat $$d*.go | grep -c 'flag\.[A-Z][A-Za-z0-9]*(".*",'); \
	  done; } | awk -v budget=$(KNOB_BUDGET) ' \
		{ print } $$NF == "MISSING" { missing = 1; next } { total += $$NF } \
		END { printf "%-28s %4d\n", "total", total; \
		      if (missing) { print "knobs: a listed file or struct is missing; fix KNOB_STRUCTS" > "/dev/stderr"; exit 1 } \
		      if (total > budget) { printf "knobs: total %d exceeds KNOB_BUDGET %d\n", total, budget > "/dev/stderr"; exit 1 } }'
