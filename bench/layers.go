package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/sft"
)

// perLayer lists the metrics of single layers, reported by a traced run
// (-trace 1). They come from three sources outside the program under test:
// counters the nodes already export, the CPU profile folded by package, and
// probes that time public functions on a proposal captured from the run. A
// layer that does not run on a workload reports 0 there. moves names the
// end-to-end metric each one is expected to move (README, "How the metrics
// interact").
var perLayer = []metricDef{
	// Counters, per committed block unless named otherwise.
	{name: "diembft.rounds_per_commit", unit: "count", better: "lower", moves: "bank_paced/commit_ms_p50"},
	{name: "diembft.local_timeouts", unit: "count", better: "lower", moves: "every latency; sim100_fault/commit_ms_p90"},
	{name: "diembft.txns_per_block", unit: "count", better: "higher", moves: "lowers frames and flushes per tx, delays the first tx of a block"},
	{name: "diembft.empty_block_frac", unit: "frac", better: "lower", moves: "bank_paced/cpu_ms_per_tx"},
	{name: "tcpnet.frames_per_commit", unit: "count", better: "lower", moves: "order_sat/tps"},
	{name: "tcpnet.bytes_per_commit", unit: "B", better: "lower", moves: "order_sat/tps"},
	{name: "tcpnet.dropped_frames", unit: "count", better: "lower", moves: "correctness; any latency"},
	{name: "wal.flushes_per_commit", unit: "count", better: "lower", moves: "bank_paced/commit_ms_p50"},
	{name: "wal.bytes_per_commit", unit: "B", better: "lower", moves: "order_sat/tps"},
	{name: "wal.fsync_ms_p50", unit: "ms", better: "lower", moves: "bank_paced/commit_ms_p50, strong_ms_p50"},
	{name: "wal.fsync_ms_mean", unit: "ms", better: "lower", moves: "bank_paced/commit_ms_p50, strong_ms_p50"},
	{name: "crypto.verify_batch_ms_p50", unit: "ms", better: "lower", moves: "bank_paced/commit_ms_p50"},
	{name: "crypto.verify_batch_ms_mean", unit: "ms", better: "lower", moves: "bank_paced/commit_ms_p50"},
	{name: "runtime.prevalidate_checked_per_commit", unit: "count", better: "lower", moves: "order_sat/cpu_ms_per_tx"},
	{name: "runtime.prevalidate_dropped", unit: "count", better: "lower", moves: "correctness"},
	{name: "app.blocks_executed_per_commit", unit: "count", better: "lower", moves: "bank_sat/tps (speculation waste)"},
	{name: "core.rises_per_commit", unit: "count", better: "higher", moves: "strong_ms_p50"},
	{name: "txnserver.pending_p50", unit: "count", better: "lower", moves: "bank_sat/commit_ms_p50 (queue wait)"},
	{name: "client.commit_ms_p99", unit: "ms", better: "lower", moves: "promoted to end-to-end once shown to repeat"},
	{name: "client.commit_ms_max", unit: "ms", better: "lower", moves: "promoted to end-to-end once shown to repeat"},
	{name: "client.strong_lag_ms_p50", unit: "ms", better: "lower", moves: "strong_ms_p50 minus commit_ms_p50"},
	{name: "client.gen_late_ms_p99", unit: "ms", better: "lower", moves: "bank_paced latencies are trustworthy only while this is small"},
	{name: "client.late_frac", unit: "frac", better: "lower", moves: "share of txns over 500 ms; tail of commit latency"},
	{name: "client.pool_used_frac", unit: "frac", better: "lower", moves: "1.0 fails the run: the pool constant needs re-freezing"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower", moves: "live_heap_mb plus garbage awaiting collection; moves with GC timing"},
	{name: "simnet.msgs_per_commit", unit: "count", better: "lower", moves: "sim100_fault/tps"},
	{name: "simnet.bytes_per_commit", unit: "B", better: "lower", moves: "sim100_fault/tps"},
	{name: "sim.events_per_s", unit: "1/s", better: "higher", moves: "sim100_fault/tps"},
	{name: "sim.vcommit_ms_p50", unit: "ms", better: "lower", moves: "sim100_fault/commit_ms_p50 (virtual)"},
	{name: "sim.vstrong_ms_p50", unit: "ms", better: "lower", moves: "sim100_fault/strong_ms_p50 (virtual)"},
	{name: "sim.vstall_ms", unit: "ms", better: "lower", moves: "pacemaker; sim100_fault/commit_ms_p90 (virtual)"},
	{name: "sim.vcatchup_ms", unit: "ms", better: "lower", moves: "statesync (virtual)"},
	{name: "obs.trace_overhead_frac", unit: "frac", better: "lower", moves: "1 - traced tps / timed tps; ROADMAP item 5's obs-on/off overhead"},

	// CPU share by layer, from the profile of the measured window.
	{name: "cpu_share.tcpnet", unit: "frac", better: "lower", moves: "order_sat/tps most, bank_sat/tps less"},
	{name: "cpu_share.gob", unit: "frac", better: "lower", moves: "order_sat/tps most, bank_sat/tps less"},
	{name: "cpu_share.crypto", unit: "frac", better: "lower", moves: "bank_paced/cpu_ms_per_tx, order_sat/tps"},
	{name: "cpu_share.app", unit: "frac", better: "lower", moves: "bank_sat/tps; no movement on order_sat"},
	{name: "cpu_share.wal", unit: "frac", better: "lower", moves: "order_sat/tps"},
	{name: "cpu_share.core", unit: "frac", better: "lower", moves: "sim100_fault/tps"},
	{name: "cpu_share.diembft", unit: "frac", better: "lower", moves: "sim100_fault/tps, bank_paced/cpu_ms_per_tx"},
	{name: "cpu_share.types", unit: "frac", better: "lower", moves: "order_sat/tps (block hashing and pinned encodings)"},
	{name: "cpu_share.runtime_pkg", unit: "frac", better: "lower", moves: "bank_paced/cpu_ms_per_tx"},
	{name: "cpu_share.simnet", unit: "frac", better: "lower", moves: "sim100_fault/tps"},
	{name: "cpu_share.gc", unit: "frac", better: "lower", moves: "every tps"},
	{name: "cpu_share.syscall", unit: "frac", better: "lower", moves: "order_sat/tps, bank_paced/cpu_ms_per_tx"},
	{name: "cpu_share.bench", unit: "frac", better: "lower", moves: "the generator's own cost; not the system's"},
	{name: "cpu_share.other", unit: "frac", better: "lower", moves: "scheduler, facade, obs; makes the shares sum to 1"},

	// Probes: public functions timed on one captured proposal.
	{name: "types.proposal_gob_encode_us", unit: "us", better: "lower", moves: "order_sat/tps, bank_paced/commit_ms_p50"},
	{name: "types.proposal_pinned_encode_us", unit: "us", better: "lower", moves: "order_sat/tps (what ROADMAP item 2 puts on the wire)"},
	{name: "tcpnet.send_us", unit: "us", better: "lower", moves: "order_sat/tps, bank_paced/commit_ms_p50"},
	{name: "crypto.vote_sign_us", unit: "us", better: "lower", moves: "bank_paced/commit_ms_p50, strong_ms_p50"},
	{name: "crypto.vote_verify_us", unit: "us", better: "lower", moves: "bank_paced/commit_ms_p50, strong_ms_p50"},
	{name: "crypto.qc_verify_cold_us", unit: "us", better: "lower", moves: "bank_paced/commit_ms_p50"},
	{name: "crypto.qc_verify_cached_us", unit: "us", better: "lower", moves: "bank_paced/cpu_ms_per_tx"},
	{name: "wal.append_flush_us", unit: "us", better: "lower", moves: "bank_paced/commit_ms_p50"},
	{name: "app.bank_apply_us_per_tx", unit: "us", better: "lower", moves: "bank_sat/tps; no movement on order_sat"},
	{name: "mempool.batch_us", unit: "us", better: "lower", moves: "bank_sat/tps"},
	{name: "core.tracker_onqc_ns", unit: "ns", better: "lower", moves: "sim100_fault/tps"},
	{name: "core.marker_ns", unit: "ns", better: "lower", moves: "sim100_fault/tps"},
	{name: "simnet.event_ns", unit: "ns", better: "lower", moves: "sim100_fault/tps"},
	{name: "streamlet.sim31_events_per_s", unit: "1/s", better: "higher", moves: "the second engine's only number until it gets a workload"},
}

// layerCapture brackets the measured window of a traced run: counter
// snapshots at both ends, a CPU profile across it, and the transaction
// server's queue depth sampled every 10 ms.
type layerCapture struct {
	nodes   []*sft.Node
	srv     *sft.TxnServer // nil under simnet
	profile string

	before, after promSnapshot
	stopProfile   func()

	stopSampler chan struct{}
	samplerDone sync.WaitGroup
	pending     []float64
}

func newLayerCapture(c *cluster, outDir, name string) *layerCapture {
	return &layerCapture{nodes: c.nodes, srv: c.srv, profile: filepath.Join(outDir, name+".pprof")}
}

func newSimLayerCapture(nodes []*sft.Node, outDir, name string) *layerCapture {
	return &layerCapture{nodes: nodes, profile: filepath.Join(outDir, name+".pprof")}
}

// startProfile begins a CPU profile into path; the returned func stops it
// and closes the file.
func startProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func (lc *layerCapture) begin() error {
	stop, err := startProfile(lc.profile)
	if err != nil {
		return err
	}
	lc.stopProfile = stop
	lc.before = scrapeNodes(lc.nodes)
	if lc.srv != nil {
		lc.stopSampler = make(chan struct{})
		lc.samplerDone.Add(1)
		go func() {
			defer lc.samplerDone.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-lc.stopSampler:
					return
				case <-tick.C:
					lc.pending = append(lc.pending, float64(lc.srv.Pending()))
				}
			}
		}()
	}
	return nil
}

func (lc *layerCapture) end() {
	lc.after = scrapeNodes(lc.nodes)
	lc.stopProfile()
	if lc.stopSampler != nil {
		close(lc.stopSampler)
		lc.samplerDone.Wait()
	}
}

func (lc *layerCapture) pendingP50() float64 { return newSample(lc.pending).q(0.5) }

// delta returns how much the cluster-wide sum of a counter family grew over
// the window, over the children whose labels contain labelSubstr ("" = all).
func (lc *layerCapture) delta(family string, labelSubstr string) float64 {
	return lc.after.sum(family, labelSubstr) - lc.before.sum(family, labelSubstr)
}

// promSnapshot is the nodes' Prometheus exposition, parsed: every sample
// line, summed across nodes, keyed by "name{labels}".
type promSnapshot map[string]float64

// scrapeNodes renders each node's registry the way /metrics would and sums
// the samples. Reading the counters through the text exposition keeps the
// benchmark on the outside of the program: it sees what an operator sees.
func scrapeNodes(nodes []*sft.Node) promSnapshot {
	snap := promSnapshot{}
	var buf bytes.Buffer
	for _, node := range nodes {
		reg := node.Obs().Registry()
		if reg == nil {
			continue
		}
		buf.Reset()
		if err := reg.WritePrometheus(&buf); err != nil {
			continue
		}
		parseProm(buf.Bytes(), snap)
	}
	return snap
}

// parseProm adds every sample line of a text exposition into snap.
func parseProm(text []byte, snap promSnapshot) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:sp]] += v
	}
}

// sum adds every sample of a family whose label set contains labelSubstr
// ("" matches all).
func (s promSnapshot) sum(family, labelSubstr string) float64 {
	total := 0.0
	for key, v := range s {
		name, labels, _ := strings.Cut(key, "{")
		if name == family && strings.Contains(labels, labelSubstr) {
			total += v
		}
	}
	return total
}

// histDelta returns the window's growth of a histogram family as ascending
// (upper bound, cumulative count) pairs, plus its sum and count.
func histDelta(before, after promSnapshot, family string) (bounds, cum []float64, sum, count float64) {
	type bucket struct{ le, n float64 }
	byLE := map[float64]float64{}
	for key, v := range after {
		name, labels, _ := strings.Cut(key, "{")
		if name != family+"_bucket" {
			continue
		}
		_, rest, ok := strings.Cut(labels, `le="`)
		if !ok {
			continue
		}
		leStr, _, _ := strings.Cut(rest, `"`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				continue
			}
		}
		byLE[le] += v - before[key]
	}
	buckets := make([]bucket, 0, len(byLE))
	for le, n := range byLE {
		buckets = append(buckets, bucket{le, n})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for _, b := range buckets {
		bounds = append(bounds, b.le)
		cum = append(cum, b.n)
	}
	sum = after.sum(family+"_sum", "") - before.sum(family+"_sum", "")
	count = after.sum(family+"_count", "") - before.sum(family+"_count", "")
	return bounds, cum, sum, count
}

// histQuantile estimates a quantile from cumulative buckets by linear
// interpolation inside the bucket that holds it — the same estimate
// Prometheus's histogram_quantile gives. With the registry's coarse latency
// buckets (0.5, 1, 2.5, 5 ms, ...) it is a bucket position, not a reading;
// the *_mean metrics beside it come from the exact sum and count.
func histQuantile(bounds, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * cum[len(cum)-1]
	for i, c := range cum {
		if c < rank {
			continue
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = bounds[i-1], cum[i-1]
		}
		hi := bounds[i]
		if math.IsInf(hi, 1) {
			return lo
		}
		if c == below {
			return hi
		}
		return lo + (hi-lo)*(rank-below)/(c-below)
	}
	return bounds[len(bounds)-1]
}

// counterLayers turns the window's counter growth into the per-commit layer
// metrics shared by the real and the simulated workloads. commits is the
// cluster-wide number of replica-level commits in the window.
func (lc *layerCapture) counterLayers(m map[string]float64) {
	commits := lc.delta("sft_commits_total", "")
	perReplica := commits / float64(len(lc.nodes)) // committed blocks
	div := func(x, by float64) float64 {
		if by == 0 {
			return 0
		}
		return x / by
	}
	m["diembft.rounds_per_commit"] = div(lc.delta("sft_rounds_total", ""), commits)
	m["diembft.local_timeouts"] = lc.delta("sft_round_timeouts_total", "")
	m["tcpnet.frames_per_commit"] = div(lc.delta("sft_net_frames_total", `dir="out"`), perReplica)
	m["tcpnet.bytes_per_commit"] = div(lc.delta("sft_net_bytes_total", `dir="out"`), perReplica)
	m["wal.flushes_per_commit"] = div(lc.delta("sft_wal_flushes_total", ""), perReplica)
	m["wal.bytes_per_commit"] = div(lc.delta("sft_wal_flush_bytes_total", ""), perReplica)
	bounds, cum, sum, count := histDelta(lc.before, lc.after, "sft_wal_fsync_seconds")
	m["wal.fsync_ms_p50"] = histQuantile(bounds, cum, 0.5) * 1e3
	m["wal.fsync_ms_mean"] = div(sum, count) * 1e3
	bounds, cum, sum, count = histDelta(lc.before, lc.after, "sft_verify_batch_seconds")
	m["crypto.verify_batch_ms_p50"] = histQuantile(bounds, cum, 0.5) * 1e3
	m["crypto.verify_batch_ms_mean"] = div(sum, count) * 1e3
	m["runtime.prevalidate_checked_per_commit"] = div(lc.delta("sft_prevalidate_checked_total", ""), perReplica)
	m["runtime.prevalidate_dropped"] = lc.delta("sft_prevalidate_dropped_total", "")
	m["app.blocks_executed_per_commit"] = div(lc.delta("sft_app_blocks_executed_total", ""), commits)
	m["core.rises_per_commit"] = div(lc.delta("sft_strength_rises_total", ""), commits)
	dropped := 0.0
	for _, node := range lc.nodes {
		s := node.Metrics()
		dropped += float64(s.SpoofedFrames + s.MalformedFrames + s.VerifyDroppedFrames)
	}
	m["tcpnet.dropped_frames"] = dropped
}

// cpuBuckets maps a function-name prefix to its cpu_share bucket. A sample
// is charged to the first frame, walking from the leaf towards the root,
// that matches: standard-library work (ed25519, sha512, memmove, malloc) is
// thereby charged to the repository layer that asked for it, so the bank's
// signature checks count as app and the consensus ones as crypto.
var cpuBuckets = []struct{ prefix, bucket string }{
	{"syscall.", "syscall"},
	{"internal/runtime/syscall.", "syscall"},
	{"runtime/internal/syscall.", "syscall"},
	{"runtime.gcBgMarkWorker", "gc"},
	{"runtime.gcDrain", "gc"},
	{"runtime.gcAssistAlloc", "gc"},
	{"runtime.gcMark", "gc"},
	{"runtime.gcStart", "gc"},
	{"runtime.gcSweep", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.bgscavenge", "gc"},
	{"runtime.sweepone", "gc"},
	{"runtime.(*mspan).sweep", "gc"},
	{"runtime.(*sweepLocked).sweep", "gc"},
	{"runtime.scanobject", "gc"},
	{"runtime.greyobject", "gc"},
	{"runtime.markroot", "gc"},
	{"runtime.wbBufFlush", "gc"},
	{"encoding/gob.", "gob"},
	{"repro/internal/tcpnet.", "tcpnet"},
	{"repro/internal/crypto.", "crypto"},
	{"repro/internal/app.", "app"},
	{"repro/internal/wal.", "wal"},
	{"repro/internal/core.", "core"},
	{"repro/internal/intervals.", "core"},
	{"repro/internal/blockstore.", "core"},
	{"repro/internal/diembft.", "diembft"},
	{"repro/internal/pacemaker.", "diembft"},
	{"repro/internal/statesync.", "diembft"},
	{"repro/internal/streamlet.", "diembft"},
	{"repro/internal/types.", "types"},
	{"repro/internal/runtime.", "runtime_pkg"},
	{"repro/internal/simnet.", "simnet"},
	{"main.", "bench"},
}

// cpuBucketNames lists every cpu_share bucket, "other" included.
var cpuBucketNames = []string{"tcpnet", "gob", "crypto", "app", "wal", "core", "diembft", "types", "runtime_pkg", "simnet", "gc", "syscall", "bench", "other"}

func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, b := range cpuBuckets {
			if strings.HasPrefix(fn, b.prefix) {
				return b.bucket
			}
		}
	}
	return "other"
}

// foldTraces folds the text `go tool pprof -traces` prints — one block per
// distinct stack, value then leaf on the first line, callers below — into
// each bucket's share of the total.
func foldTraces(traces []byte) (map[string]float64, error) {
	totals := map[string]float64{}
	var stack []string
	var value float64
	flush := func() {
		if len(stack) > 0 {
			totals[bucketOf(stack)] += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody {
			continue // header: file, type, time, duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			if len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value %q", fields[0])
			}
			value = d.Seconds()
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	grand := 0.0
	for _, v := range totals {
		grand += v
	}
	if grand == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(cpuBucketNames))
	for _, name := range cpuBucketNames {
		shares[name] = totals[name] / grand
	}
	return shares, nil
}

// cpuShares folds the window's CPU profile into the cpu_share.* metrics.
func cpuShares(profile string, m map[string]float64) error {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Env = append(os.Environ(), "PPROF_NO_BROWSER=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -traces %s: %v: %s", profile, err, stderr.String())
	}
	shares, err := foldTraces(out)
	if err != nil {
		return err
	}
	for name, v := range shares {
		m["cpu_share."+name] = v
	}
	return nil
}

// realLayers assembles the per-layer metrics of a traced real-stack run.
func realLayers(name string, out *realOutcome, e2e map[string]float64, o runOpts) (map[string]float64, error) {
	m := map[string]float64{}
	out.layers.counterLayers(m)
	if out.blocks > 0 {
		m["diembft.txns_per_block"] = float64(out.inWindow) / float64(out.blocks)
		m["diembft.empty_block_frac"] = float64(out.emptyBlks) / float64(out.blocks)
	}
	m["txnserver.pending_p50"] = out.pendingP50
	m["client.commit_ms_p99"] = out.commitMs.q(0.99)
	m["client.commit_ms_max"] = out.commitMs.max()
	m["client.strong_lag_ms_p50"] = out.strongLag.q(0.5)
	m["client.gen_late_ms_p99"] = out.lateMs.q(0.99)
	m["client.pool_used_frac"] = out.poolUsed
	late := 0
	for _, v := range out.commitMs.sorted {
		if v > 500 {
			late++
		}
	}
	m["client.late_frac"] = float64(late+out.failed) / float64(max(out.attempted, 1))
	m["process.peak_rss_mb"] = peakRSSMB()
	if err := cpuShares(out.layers.profile, m); err != nil {
		return nil, err
	}
	if err := runProbes(m, out.captured, o); err != nil {
		return nil, err
	}
	return m, traceOverhead(m, name, e2e["tps"], o)
}

// simLayers assembles the per-layer metrics of a traced simulated run.
func simLayers(out *simOutcome, e2e map[string]float64, o runOpts) (map[string]float64, error) {
	m := map[string]float64{}
	out.layers.counterLayers(m)
	if out.blocks > 0 {
		m["diembft.txns_per_block"] = float64(out.txns) / float64(out.blocks)
		m["simnet.msgs_per_commit"] = float64(out.msgs.Count) / float64(out.blocks)
		m["simnet.bytes_per_commit"] = float64(out.msgs.Bytes) / float64(out.blocks)
	}
	m["sim.events_per_s"] = float64(out.events) / typicalTotal(out.stepWall)
	m["sim.vcommit_ms_p50"] = out.vcommit.q(0.5)
	m["sim.vstrong_ms_p50"] = out.vstrong.q(0.5)
	m["sim.vstall_ms"] = out.vstallMs
	m["sim.vcatchup_ms"] = out.vcatchup.q(0.5)
	m["process.peak_rss_mb"] = peakRSSMB()
	if err := cpuShares(out.layers.profile, m); err != nil {
		return nil, err
	}
	if err := runProbes(m, nil, o); err != nil {
		return nil, err
	}
	return m, traceOverhead(m, "sim100_fault", e2e["tps"], o)
}

// traceOverhead runs the same workload once more, untraced, in a fresh
// process, and reports how much throughput the tracing cost.
func traceOverhead(m map[string]float64, name string, tracedTPS float64, o runOpts) error {
	ref, err := runChild(runOpts{workload: name, seed: o.seed, seconds: o.seconds, outDir: o.outDir})
	if err != nil {
		return fmt.Errorf("untraced reference run: %w", err)
	}
	if timed := ref.Metrics["tps"].Value; timed > 0 {
		m["obs.trace_overhead_frac"] = 1 - tracedTPS/timed
	}
	return nil
}
