// Command sftbench regenerates the paper's evaluation artifacts (Figures
// 7a, 7b, 8, and the companion comparisons) on the discrete-event simulator
// and prints the measured series as tables.
//
// Usage:
//
//	sftbench -experiment fig7a [-n 100] [-duration 5m] [-delta 100ms] [-seed 1]
//	sftbench -experiment all -n 31 -duration 90s
//
// Experiments: fig7a, fig7b, fig8, throughput, msgcomplexity, theorem2,
// theorem3, streamlet, crashrecovery, adversary, compactcert,
// livenessattack, all.
// crashrecovery exercises the durability layer: a replica is killed
// mid-run, restored from its write-ahead log, and re-joins via state sync;
// the report compares its commits against the no-crash baseline. adversary
// runs the randomized Byzantine scenario fuzzer (-scenarios seeded
// scenarios against the invariant checkers, plus the weakened-rule canary;
// it uses its own per-scenario virtual duration, not -duration) — explicit
// only, not under "all": at the default n=100 each scenario simulates a
// full Byzantine cluster (hours), while the acceptance setting
// `-experiment adversary -seed 1 -n 7` takes ~2s.
//
// compactcert measures the compact O(1) certificates at committee sizes
// n=31 vs n=103: quorum-certificate wire bytes and cold verify CPU in
// per-signer vector form vs aggregated bitmap form, plus a fig7a-style
// simulation per size under the ed25519-agg scheme. Explicit-only (real
// crypto at n=103); it ignores -n.
//
// -scheme selects the signature implementation for every experiment: "sim"
// (fast, deterministic, the default), "ed25519" (real crypto; implies full
// signature verification), or their aggregating variants "sim-agg" /
// "ed25519-agg", which additionally compact every formed certificate into
// the constant-size aggregated form.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/crypto"
	"repro/internal/harness"
	"repro/internal/pacemaker"
)

// params is what an experiment reads from the command line.
type params struct {
	sc        harness.Scale
	deltas    []time.Duration
	scenarios int
	workers   int
}

// experiments is every -experiment value, in the order "all" runs them. An
// explicit entry runs only when named: "all" skips it.
var experiments = []struct {
	name     string
	explicit bool
	run      func(p params) error
}{
	{"fig7a", false, func(p params) error { return figure7(p.sc, p.deltas, harness.Figure7a, "symmetric") }},
	{"fig7b", false, func(p params) error { return figure7(p.sc, p.deltas, harness.Figure7b, "asymmetric") }},
	{"fig8", false, func(p params) error { return figure8(p.sc) }},
	{"throughput", false, func(p params) error { return throughput(p.sc, p.deltas[0]) }},
	{"msgcomplexity", false, func(p params) error { return msgComplexity(p.sc) }},
	{"theorem2", false, func(p params) error { return theorem2(p.sc) }},
	{"theorem3", false, func(p params) error { return theorem3(p.sc) }},
	{"streamlet", false, func(p params) error { return streamletExp(p.sc) }},
	{"crashrecovery", false, func(p params) error { return crashRecovery(p.sc, p.deltas[0]) }},
	// At the default n=100 each of the adversary's scenarios simulates a
	// full Byzantine cluster (hours of wall time); its acceptance setting is
	// -n 7 (seconds).
	{"adversary", true, func(p params) error { return adversaryFuzz(p.sc, p.scenarios, p.workers) }},
	// compactcert sweeps committee sizes {31, 103} under real ed25519 vote
	// signatures regardless of -n.
	{"compactcert", true, func(p params) error { return compactCert(p.sc, p.deltas[0]) }},
	// livenessattack's acceptance shape is n=7 over 10 virtual seconds; the
	// paper-scale defaults would simulate two full adversarial clusters for
	// 5 virtual minutes each.
	{"livenessattack", true, func(p params) error { return livenessAttack(p.sc) }},
}

// experimentNames lists the valid -experiment values, "all" last.
func experimentNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run ("+strings.Join(experimentNames(), "|")+")")
		n          = flag.Int("n", 100, "number of replicas (3f+1)")
		duration   = flag.Duration("duration", 5*time.Minute, "virtual run duration")
		delta      = flag.Duration("delta", 0, "inter-region delay; 0 sweeps the paper's {100ms,200ms}")
		seed       = flag.Int64("seed", 1, "simulation seed")
		scheme     = flag.String("scheme", crypto.SchemeSim, "signature scheme (sim|ed25519|sim-agg|ed25519-agg); the ed25519 schemes imply signature verification, the -agg schemes compact certificates")
		scenarios  = flag.Int("scenarios", 60, "randomized scenarios for -experiment adversary")
		workers    = flag.Int("workers", 0, "concurrent scenarios for -experiment adversary (0 = GOMAXPROCS; results are identical at any worker count)")
	)
	flag.Parse()

	if (*n-1)%3 != 0 {
		fmt.Fprintf(os.Stderr, "sftbench: n=%d is not 3f+1\n", *n)
		os.Exit(1)
	}
	// Validate enum flags up front: a typo'd -experiment or -scheme must be
	// a usage error listing the valid choices, not a silent zero-value run.
	if !slices.Contains(experimentNames(), *experiment) {
		fmt.Fprintf(os.Stderr, "sftbench: unknown experiment %q\nvalid choices: %s\n",
			*experiment, strings.Join(experimentNames(), ", "))
		flag.Usage()
		os.Exit(2)
	}
	switch *scheme {
	case crypto.SchemeSim, crypto.SchemeEd25519, crypto.SchemeSimAgg, crypto.SchemeEd25519Agg:
	default:
		fmt.Fprintf(os.Stderr, "sftbench: unknown scheme %q\nvalid choices: %s, %s, %s, %s\n",
			*scheme, crypto.SchemeSim, crypto.SchemeEd25519, crypto.SchemeSimAgg, crypto.SchemeEd25519Agg)
		flag.Usage()
		os.Exit(2)
	}
	p := params{
		sc: harness.Scale{
			N: *n, Duration: *duration, Seed: *seed,
			Scheme: *scheme,
		},
		deltas:    []time.Duration{100 * time.Millisecond, 200 * time.Millisecond},
		scenarios: *scenarios,
		workers:   *workers,
	}
	if *delta != 0 {
		p.deltas = []time.Duration{*delta}
	}

	for _, e := range experiments {
		if *experiment != e.name && (*experiment != "all" || e.explicit) {
			continue
		}
		fmt.Printf("==> %s (n=%d f=%d duration=%v seed=%d scheme=%s)\n",
			e.name, p.sc.N, p.sc.F(), p.sc.Duration, p.sc.Seed, p.sc.Scheme)
		start := time.Now()
		if err := e.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "sftbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("    [wall time %v]\n\n", time.Since(start).Round(time.Millisecond))
	}
}

// adversaryFuzz runs the randomized adversarial scenario fuzzer: `count`
// seeded scenarios sampling engines, Byzantine behavior compositions (up to
// 2f colluders), crash/restart plans and network partitions, each checked
// against the paper's invariants (Definition 1 safety, strength
// monotonicity, chain consistency, benign liveness). It then runs the
// weakened-rule canary: the Appendix C collusion against naive
// (marker-free) endorsement counting must be caught by the same checker,
// while the identical collusion under the real rule stays clean. Scenarios
// use the fuzzer's own per-scenario virtual duration, not -duration.
func adversaryFuzz(sc harness.Scale, count, workers int) error {
	report, err := harness.RunFuzz(harness.FuzzOptions{
		Seed:      sc.Seed,
		Scenarios: count,
		N:         sc.N,
		Scheme:    sc.Scheme,
		Workers:   workers,
	})
	if err != nil {
		return err
	}
	verdict := "SAFE — zero invariant violations"
	if len(report.Failures) > 0 {
		verdict = fmt.Sprintf("VIOLATED — %d scenario(s) failed", len(report.Failures))
	}
	perMin := float64(report.Scenarios) / report.Elapsed.Minutes()
	printTable("Adversarial scenario fuzzer: randomized Byzantine compositions, crashes, partitions",
		[]string{"metric", "value"},
		[][]string{
			{"scenarios", fmt.Sprintf("%d", report.Scenarios)},
			{"with byzantine replicas", fmt.Sprintf("%d", report.ByzantineScenarios)},
			{"with partitions", fmt.Sprintf("%d", report.PartitionScenarios)},
			{"with crash/restart plans", fmt.Sprintf("%d", report.CrashScenarios)},
			{"simulation events", fmt.Sprintf("%d", report.TotalEvents)},
			{"blocks committed", fmt.Sprintf("%d", report.TotalBlocks)},
			{"wall time", report.Elapsed.Round(time.Millisecond).String()},
			{"scenarios/min", fmt.Sprintf("%.0f", perMin)},
			{"verdict", verdict},
		})
	for _, fail := range report.Failures {
		fmt.Printf("    REPLAY %s\n", fail.Spec)
		for _, v := range fail.Violations {
			fmt.Printf("      -> %s\n", v)
		}
	}
	if len(report.Failures) > 0 {
		return fmt.Errorf("adversary fuzzer found %d violating scenario(s)", len(report.Failures))
	}

	// Weakened-rule canary: the checker must have teeth.
	var caughtSeed int64
	caught := false
	var spec harness.FuzzScenario
	for seed := sc.Seed; seed < sc.Seed+8 && !caught; seed++ {
		var violations []string
		spec, violations, err = harness.WeakenedRuleCanary(seed, sc.N, true)
		if err != nil {
			return err
		}
		for _, v := range violations {
			if strings.Contains(v, "Definition 1") {
				caught, caughtSeed = true, seed
				break
			}
		}
	}
	if !caught {
		return fmt.Errorf("weakened (naive) commit rule was NOT caught — checker has no teeth")
	}
	_, markerViolations, err := harness.WeakenedRuleCanary(caughtSeed, sc.N, false)
	if err != nil {
		return err
	}
	if len(markerViolations) > 0 {
		// ANY invariant breach under the real rule — Definition 1,
		// monotonicity, bounds — is a regression, not just the headline one.
		return fmt.Errorf("real marker rule violated an invariant under the canary collusion: %s", markerViolations[0])
	}
	printTable("Weakened-rule canary: Appendix C collusion vs the commit rule",
		[]string{"commit rule", "Definition 1 verdict"},
		[][]string{
			{"naive counting (no markers)", fmt.Sprintf("VIOLATION CAUGHT (replay seed %d)", caughtSeed)},
			{"strengthened rule (markers)", "safe"},
		})
	fmt.Printf("    canary spec: %s\n", spec)

	// Pacemaker canary: the same timeout-spam coalition under one seed,
	// uncapped vs default. The default pacemaker must bound the per-peer
	// timeout buffer the uncapped one lets grow without bound, while staying
	// just as live.
	uSpec, uRes, uViol, err := harness.PacemakerCanary(sc.Seed, sc.N, true)
	if err != nil {
		return err
	}
	_, dRes, dViol, err := harness.PacemakerCanary(sc.Seed, sc.N, false)
	if err != nil {
		return err
	}
	if len(uViol) > 0 || len(dViol) > 0 {
		all := append(append([]string{}, uViol...), dViol...)
		return fmt.Errorf("pacemaker canary violated a safety invariant: %s", all[0])
	}
	uPeak, _ := uRes.PacemakerPeak()
	dPeak, _ := dRes.PacemakerPeak()
	if dPeak > pacemaker.DefaultPerPeerCap {
		return fmt.Errorf("pacemaker canary: default arm's per-peer buffer peaked at %d > cap %d", dPeak, pacemaker.DefaultPerPeerCap)
	}
	if uPeak <= pacemaker.DefaultPerPeerCap {
		return fmt.Errorf("pacemaker canary: uncapped arm peaked at only %d — spam never demonstrated growth", uPeak)
	}
	printTable("Pacemaker canary: timeout-spam, uncapped vs default",
		[]string{"pacemaker", "blocks committed", "peak per-peer timeout buffer"},
		[][]string{
			{"uncapped (unbounded buffer)", fmt.Sprintf("%d", uRes.CommittedBlocks), fmt.Sprintf("%d", uPeak)},
			{"default (cap, reputation)", fmt.Sprintf("%d", dRes.CommittedBlocks), fmt.Sprintf("%d (cap %d)", dPeak, pacemaker.DefaultPerPeerCap)},
		})
	fmt.Printf("    canary spec: %s\n", uSpec)
	return nil
}

// livenessAttack drives the pacemaker A/B (harness.LivenessAttack asserts
// the claim itself — safety both arms, bounded buffers and liveness on the
// default arm, demonstrated growth on the uncapped arm) and renders the
// comparison.
func livenessAttack(sc harness.Scale) error {
	res, err := harness.LivenessAttack(sc)
	if err != nil {
		return err
	}
	row := func(name string, f func(*harness.Result) string) []string {
		return []string{name, f(res.Uncapped), f(res.Default)}
	}
	printTable(fmt.Sprintf("Liveness under attack: f colluders (timeout-spam), per-peer cap %d", res.Cap),
		[]string{"metric", "uncapped (unhardened)", "default (cap, reputation)"},
		[][]string{
			row("blocks committed", func(r *harness.Result) string { return fmt.Sprintf("%d", r.CommittedBlocks) }),
			row("throughput (blocks/s)", func(r *harness.Result) string { return fmt.Sprintf("%.1f", r.BlocksPerSec) }),
			row("regular latency p50 (s)", func(r *harness.Result) string { return fmt.Sprintf("%.3f", r.RegularLatency.P50) }),
			row("messages", func(r *harness.Result) string { return fmt.Sprintf("%d", r.Msgs.Count) }),
			{"peak per-peer timeout buffer", fmt.Sprintf("%d", res.UncappedPeak), fmt.Sprintf("%d", res.DefaultPeak)},
			{"timeouts shed by cap", fmt.Sprintf("%d", res.UncappedDropped), fmt.Sprintf("%d", res.DefaultDropped)},
		})
	fmt.Printf("    verdict: default pacemaker bounded the buffer (%d <= %d) the uncapped one grew to %d\n",
		res.DefaultPeak, res.Cap, res.UncappedPeak)
	return nil
}

// compactCert sweeps committee sizes n=31 and n=103: for each it encodes
// and cold-verifies one genuine quorum certificate in both wire forms, then
// runs the fig7a-style simulation under ed25519-agg. The wire-size check is
// a hard failure — compact certificates must stay O(1) in n (the bitmap
// adds one u64 word per 64 replicas; anything more means a per-signer field
// leaked back into the encoding).
func compactCert(sc harness.Scale, delta time.Duration) error {
	ns := []int{31, 103}
	points, err := harness.CompactCertificates(sc, ns, delta)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%d", p.Quorum),
			fmt.Sprintf("%d", p.VectorQCBytes),
			fmt.Sprintf("%d", p.CompactQCBytes),
			fmt.Sprintf("%.0f", p.VectorVerifyNs/1e3),
			fmt.Sprintf("%.0f", p.CompactVerifyNs/1e3),
		})
	}
	printTable("Compact O(1) certificates: per-signer vote vector vs aggregated bitmap QC",
		[]string{"n", "quorum", "vector bytes", "compact bytes", "vector µs/QC", "compact µs/QC"}, rows)

	simRows := [][]string{}
	for _, p := range points {
		lat := p.Sim.RegularLatency
		simRows = append(simRows, []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%d", p.Sim.CommittedBlocks),
			fmt.Sprintf("%.3f", lat.P50),
			fmt.Sprintf("%.3f", lat.P99),
			fmt.Sprintf("%.0f", p.Sim.BytesPerBlock),
		})
	}
	printTable("fig7a-style run under scheme=ed25519-agg (real vote signatures, compact QCs)",
		[]string{"n", "blocks committed", "regular p50 (s)", "regular p99 (s)", "bytes/block"}, simRows)

	small, large := points[0], points[len(points)-1]
	growth := large.CompactQCBytes - small.CompactQCBytes
	cpuRatio := large.CompactVerifyNs / small.CompactVerifyNs
	fmt.Printf("    compact QC bytes n=%d -> n=%d: +%d (vector: +%d); compact verify CPU ratio %.2fx\n",
		small.N, large.N, growth, large.VectorQCBytes-small.VectorQCBytes, cpuRatio)
	// One extra bitmap word per 64 replicas is the only growth a compact
	// certificate is allowed.
	if allowed := 8 * ((large.N+63)/64 - (small.N+63)/64); growth > allowed {
		return fmt.Errorf("compact QC grew %d bytes from n=%d to n=%d (allowed %d) — not O(1)",
			growth, small.N, large.N, allowed)
	}
	return nil
}

func crashRecovery(sc harness.Scale, delta time.Duration) error {
	res, err := harness.CrashRecovery(sc, delta)
	if err != nil {
		return err
	}
	verdict := "CONSISTENT"
	if !res.Consistent {
		verdict = "INCONSISTENT — safety violation"
	}
	printTable("Crash recovery: kill at T/3, restore from WAL + state-sync rejoin at T/2",
		[]string{"metric", "value"},
		[][]string{
			{"victim replica", fmt.Sprintf("%v", res.Victim)},
			{"killed at", res.CrashAt.String()},
			{"restarted at", res.RestartAt.String()},
			{"shared committed prefix (heights)", fmt.Sprintf("%d", res.SharedPrefix)},
			{"victim final height", fmt.Sprintf("%d", res.VictimHeight)},
			{"observer final height", fmt.Sprintf("%d", res.ObserverHeight)},
			{"baseline blocks committed", fmt.Sprintf("%d", res.Baseline.CommittedBlocks)},
			{"faulty-run blocks committed", fmt.Sprintf("%d", res.Faulty.CommittedBlocks)},
			{"consistency verdict", verdict},
		})
	if !res.Consistent {
		return fmt.Errorf("crash recovery produced inconsistent commits")
	}
	return nil
}

func figure7(sc harness.Scale, deltas []time.Duration, fn func(harness.Scale, time.Duration) (*harness.Result, error), label string) error {
	results := make([]*harness.Result, 0, len(deltas))
	for _, d := range deltas {
		res, err := fn(sc, d)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	f := sc.F()
	if f == 0 {
		f = 33
	}
	header := []string{"x-strong"}
	for _, d := range deltas {
		header = append(header, fmt.Sprintf("latency(s) δ=%v", d))
	}
	rows := [][]string{}
	for _, lv := range harness.DefaultLevels(f) {
		row := []string{harness.LevelLabel(lv, f)}
		for _, res := range results {
			s := res.LevelLatency[lv]
			if s.Count == 0 {
				row = append(row, "unreached")
			} else {
				row = append(row, fmt.Sprintf("%.3f", s.Mean))
			}
		}
		rows = append(rows, row)
	}
	printTable(fmt.Sprintf("Figure 7 (%s): strong commit latency vs resilience", label), header, rows)

	// The operator's view of the same data: once a block is (f-strong)
	// committed locally, how much longer until it tolerates x faults.
	delayRows := [][]string{}
	for _, lv := range harness.DefaultLevels(f) {
		row := []string{harness.LevelLabel(lv, f)}
		any := false
		for _, res := range results {
			s := res.LevelCommitDelay[lv]
			if s.Count == 0 {
				row = append(row, "unreached", "-", "-")
			} else {
				any = true
				row = append(row, fmt.Sprintf("%.3f", s.P50), fmt.Sprintf("%.3f", s.P95), fmt.Sprintf("%.3f", s.P99))
			}
		}
		if any {
			delayRows = append(delayRows, row)
		}
	}
	delayHeader := []string{"x-strong"}
	for _, d := range deltas {
		delayHeader = append(delayHeader,
			fmt.Sprintf("p50 δ=%v", d), fmt.Sprintf("p95 δ=%v", d), fmt.Sprintf("p99 δ=%v", d))
	}
	printTable("Commit → x-strong delay (s): extra wait per resilience level after the regular commit", delayHeader, delayRows)

	for i, res := range results {
		fmt.Printf("    δ=%v: %d blocks committed, regular latency %.3fs, %.1f msgs/commit\n",
			deltas[i], res.CommittedBlocks, res.RegularLatency.Mean, res.MsgsPerCommit)
	}
	return nil
}

func figure8(sc harness.Scale) error {
	waits := []time.Duration{
		0, 25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		150 * time.Millisecond, 200 * time.Millisecond, 250 * time.Millisecond, 300 * time.Millisecond,
	}
	points, err := harness.Figure8(sc, waits)
	if err != nil {
		return err
	}
	f := sc.F()
	if f == 0 {
		f = 33
	}
	curves := []int{f + 2*f/10, f + 4*f/10, f + 6*f/10, f + 8*f/10, 2 * f}
	header := []string{"extra wait", "regular(s)"}
	for _, lv := range curves {
		header = append(header, harness.LevelLabel(lv, f)+"(s)")
	}
	rows := [][]string{}
	for _, p := range points {
		row := []string{p.ExtraWait.String(), fmt.Sprintf("%.3f", p.Result.RegularLatency.Mean)}
		for _, lv := range curves {
			s := p.Result.LevelLatency[lv]
			if s.Count == 0 {
				row = append(row, "unreached")
			} else {
				row = append(row, fmt.Sprintf("%.3f", s.Mean))
			}
		}
		rows = append(rows, row)
	}
	printTable("Figure 8: regular vs strong commit latency trade-off (δ=100ms)", header, rows)
	return nil
}

func throughput(sc harness.Scale, delta time.Duration) error {
	base, sft, err := harness.ThroughputComparison(sc, delta)
	if err != nil {
		return err
	}
	printTable("Throughput and regular commit latency: DiemBFT vs SFT-DiemBFT",
		[]string{"protocol", "throughput (tps)", "blocks/s", "regular latency (s)", "bytes/block"},
		[][]string{
			{"DiemBFT", fmt.Sprintf("%.0f", base.ThroughputTPS), fmt.Sprintf("%.2f", base.BlocksPerSec),
				fmt.Sprintf("%.3f", base.RegularLatency.Mean), fmt.Sprintf("%.0f", base.BytesPerBlock)},
			{"SFT-DiemBFT", fmt.Sprintf("%.0f", sft.ThroughputTPS), fmt.Sprintf("%.2f", sft.BlocksPerSec),
				fmt.Sprintf("%.3f", sft.RegularLatency.Mean), fmt.Sprintf("%.0f", sft.BytesPerBlock)},
		})
	return nil
}

func msgComplexity(sc harness.Scale) error {
	fs := []int{2, 5, 10, 21}
	if sc.N >= 100 {
		fs = append(fs, 33)
	}
	mcScale := sc
	mcScale.Duration = sc.Duration / 5
	points, err := harness.MessageComplexity(mcScale, fs)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%.1f", p.SFTMsgsPerDec),
			fmt.Sprintf("%.1f", p.FBFTMsgsPer),
			fmt.Sprintf("%.2f", p.FBFTMsgsPer/p.SFTMsgsPerDec),
		})
	}
	printTable("Messages per block decision: SFT-DiemBFT (linear) vs FBFT-adapted (quadratic)",
		[]string{"n", "SFT msgs/decision", "FBFT msgs/decision", "ratio"}, rows)
	return nil
}

func theorem2(sc harness.Scale) error {
	rows := [][]string{}
	for _, c := range []int{0, sc.F() / 2, sc.F()} {
		res, target, err := harness.Theorem2(sc, c)
		if err != nil {
			return err
		}
		s := res.LevelLatency[target]
		lat := "unreached"
		if s.Count > 0 {
			lat = fmt.Sprintf("%.3f", s.Mean)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", c),
			harness.LevelLabel(target, sc.F()),
			lat,
			fmt.Sprintf("%d", s.Count),
		})
	}
	printTable("Theorem 2: (2f-c)-strong commit under c crash faults",
		[]string{"crashes c", "target level", "mean latency (s)", "samples"}, rows)
	return nil
}

func theorem3(sc harness.Scale) error {
	t := max(1, sc.F()/2)
	marker, interval, target, err := harness.Theorem3(sc, t)
	if err != nil {
		return err
	}
	row := func(name string, r *harness.Result) []string {
		s := r.LevelLatency[target]
		lat := "unreached"
		if s.Count > 0 {
			lat = fmt.Sprintf("%.3f", s.Mean)
		}
		return []string{name, harness.LevelLabel(target, sc.F()), lat, fmt.Sprintf("%d", s.Count)}
	}
	printTable(fmt.Sprintf("Theorem 3: (2f-t)-strong commit with t=%d equivocating Byzantine replicas", t),
		[]string{"vote mode", "target level", "mean latency (s)", "samples"},
		[][]string{row("marker (§3.2)", marker), row("intervals (§3.4)", interval)})
	return nil
}

func streamletExp(sc harness.Scale) error {
	res, err := harness.StreamletLatency(sc, 100*time.Millisecond)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, lv := range harness.DefaultLevels(sc.F()) {
		s := res.LevelLatency[lv]
		lat := "unreached"
		if s.Count > 0 {
			lat = fmt.Sprintf("%.3f", s.Mean)
		}
		rows = append(rows, []string{harness.LevelLabel(lv, sc.F()), lat})
	}
	printTable("SFT-Streamlet (Appendix D): strong commit latency vs resilience",
		[]string{"x-strong", "latency (s)"}, rows)
	fmt.Printf("    %d blocks committed, regular latency %.3fs\n",
		res.CommittedBlocks, res.RegularLatency.Mean)
	return nil
}

func printTable(title string, header []string, rows [][]string) {
	fmt.Printf("  %s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Printf("    %s\n", strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}
