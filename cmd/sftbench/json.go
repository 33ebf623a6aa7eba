package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
)

// benchJSON is the machine-readable result sink behind -json: every
// experiment that produces latency series appends an entry, and main writes
// the collected document on exit. The shape is stable tooling input (CI
// trend lines, BENCH_PRn.json artifacts).
type benchJSON struct {
	Tool        string            `json:"tool"`
	N           int               `json:"n"`
	F           int               `json:"f"`
	Duration    string            `json:"duration"`
	Seed        int64             `json:"seed"`
	Scheme      string            `json:"scheme"`
	Experiments []benchExperiment `json:"experiments"`
}

// benchExperiment is one simulated run's measurements.
type benchExperiment struct {
	Name            string       `json:"name"`
	Delta           string       `json:"delta,omitempty"`
	ExtraWait       string       `json:"extra_wait,omitempty"`
	CommittedBlocks int          `json:"committed_blocks"`
	ThroughputTPS   float64      `json:"throughput_tps,omitempty"`
	MsgsPerCommit   float64      `json:"msgs_per_commit,omitempty"`
	RegularLatency  benchSummary `json:"regular_latency"`
	Levels          []benchLevel `json:"levels,omitempty"`
	// CommitInterval reports wall-clock inter-commit intervals for the
	// real-socket gateway arms (which have no virtual-time latency series).
	CommitInterval *benchSummary `json:"commit_interval_s,omitempty"`
	Gateway        *benchGateway `json:"gateway,omitempty"`
}

// benchGateway is the access-tier scale experiment's verdict data.
type benchGateway struct {
	Subscribers            int     `json:"subscribers"`
	SubscribersServed      int     `json:"subscribers_served"`
	MinEventsPerSubscriber int     `json:"min_events_per_subscriber"`
	EventsVerified         int64   `json:"events_verified"`
	ProvenBlocks           int     `json:"proven_blocks"`
	SlowdownP50            float64 `json:"slowdown_p50"`
	LyingSubscribers       int     `json:"lying_subscribers"`
	LyingRejected          int     `json:"lying_rejected"`
}

// benchGatewayExperiment shapes one gateway arm; res is nil for the
// baseline arm.
func benchGatewayExperiment(name string, arm harness.GatewayArm, res *harness.GatewayScaleResult) benchExperiment {
	interval := toBenchSummary(arm.Interval)
	e := benchExperiment{
		Name:            name,
		CommittedBlocks: arm.Commits,
		CommitInterval:  &interval,
	}
	if res != nil {
		e.Gateway = &benchGateway{
			Subscribers:            res.Subscribers,
			SubscribersServed:      res.SubscribersServed,
			MinEventsPerSubscriber: res.MinEventsPerSubscriber,
			EventsVerified:         res.EventsVerified,
			ProvenBlocks:           res.ProvenBlocks,
			SlowdownP50:            res.SlowdownP50,
			LyingSubscribers:       res.LyingSubscribers,
			LyingRejected:          res.LyingRejected,
		}
	}
	return e
}

// benchLevel reports one strength level's two latency distributions: block
// creation to x-strong (the paper's Figure 7 measurement) and local regular
// commit to x-strong (the operator's "how much longer for more resilience").
type benchLevel struct {
	X              int          `json:"x"`
	Label          string       `json:"label"`
	CreateToStrong benchSummary `json:"create_to_strong_s"`
	CommitToStrong benchSummary `json:"commit_to_strong_s"`
}

// benchSummary mirrors harness.Summary in seconds.
type benchSummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func toBenchSummary(s harness.Summary) benchSummary {
	return benchSummary{Count: s.Count, Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99, Min: s.Min, Max: s.Max}
}

// bench is nil unless -json was given; benchRecord is a no-op then, so the
// experiment drivers record unconditionally.
var bench *benchJSON

func benchInit(sc harness.Scale) {
	bench = &benchJSON{
		Tool:     "sftbench",
		N:        sc.N,
		F:        sc.F,
		Duration: sc.Duration.String(),
		Seed:     sc.Seed,
		Scheme:   sc.Scheme,
	}
}

func benchRecord(e benchExperiment) {
	if bench == nil {
		return
	}
	bench.Experiments = append(bench.Experiments, e)
}

// benchLevels extracts the per-level latency pairs from a harness result,
// in level order, skipping levels with no samples in either distribution.
func benchLevels(res *harness.Result, f int) []benchLevel {
	var out []benchLevel
	for _, lv := range harness.DefaultLevels(f) {
		create := res.LevelLatency[lv]
		delay := res.LevelCommitDelay[lv]
		if create.Count == 0 && delay.Count == 0 {
			continue
		}
		out = append(out, benchLevel{
			X:              lv,
			Label:          harness.LevelLabel(lv, f),
			CreateToStrong: toBenchSummary(create),
			CommitToStrong: toBenchSummary(delay),
		})
	}
	return out
}

func benchExperimentOf(name string, res *harness.Result, f int, delta, wait time.Duration) benchExperiment {
	e := benchExperiment{
		Name:            name,
		CommittedBlocks: res.CommittedBlocks,
		ThroughputTPS:   res.ThroughputTPS,
		MsgsPerCommit:   res.MsgsPerCommit,
		RegularLatency:  toBenchSummary(res.RegularLatency),
		Levels:          benchLevels(res, f),
	}
	if delta > 0 {
		e.Delta = delta.String()
	}
	if wait > 0 {
		e.ExtraWait = wait.String()
	}
	return e
}

func benchWrite(path string) error {
	if bench == nil {
		return nil
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d experiment(s) to %s\n", len(bench.Experiments), path)
	return nil
}
