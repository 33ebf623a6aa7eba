// Geo-distributed latency demo: reproduces a reduced-scale Figure 7a on the
// deterministic simulator — a 31-replica SFT-DiemBFT cluster split over 3
// regions, showing how x-strong commit latency grows with x and spikes at
// 2f (where the out-of-sync stragglers' strong-votes are needed).
//
// The harness builds every replica with sft.New, the public facade's one
// construction path, so these measurements are of exactly the engines
// sft.New constructs.
//
//	go run ./examples/geodistributed [-delta 100ms] [-duration 60s]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		delta    = flag.Duration("delta", 100*time.Millisecond, "inter-region one-way delay")
		duration = flag.Duration("duration", 60*time.Second, "virtual run duration")
	)
	flag.Parse()

	const (
		n = 31
		f = 10
	)
	fmt.Printf("Simulating %d replicas (f=%d) in 3 regions, inter-region delay %v, %v of virtual time...\n\n",
		n, f, *delta, *duration)

	start := time.Now()
	res, err := harness.Figure7a(harness.Scale{N: n, Duration: *duration, Seed: 1}, *delta)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %-14s %s\n", "x-strong", "latency (s)", "meaning")
	for _, lv := range harness.DefaultLevels(f) {
		s := res.LevelLatency[lv]
		lat := "unreached"
		if s.Count > 0 {
			lat = fmt.Sprintf("%.3f", s.Mean)
		}
		fmt.Printf("%-10s %-14s commit survives %d Byzantine replicas\n",
			harness.LevelLabel(lv, f), lat, lv)
	}
	fmt.Printf("\n%d blocks committed; regular commit latency %.3fs; %.1f msgs/commit\n",
		res.CommittedBlocks, res.RegularLatency.Mean, res.MsgsPerCommit)
	fmt.Printf("(simulated %v of cluster time in %v of wall time)\n",
		*duration, time.Since(start).Round(time.Millisecond))
}
