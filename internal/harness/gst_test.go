package harness_test

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/sft"
)

// TestGSTScenario exercises partial synchrony through harness.PreGST: with a 5s GST and crippling pre-GST delays, almost all commits and
// strong commits happen after GST, and the cluster still reaches 2f-strong
// afterwards — the paper's setting ("after GST ... blocks will be strong
// committed").
func TestGSTScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := harness.Run(&harness.Scenario{
		Name: "gst",
		N:    13,
		// Pre-GST deliveries take 2s extra, far beyond the round timeout: no
		// progress before GST at 5s.
		Latency:  harness.PreGST(sft.SymmetricLatency(13, 3, time.Millisecond, 20*time.Millisecond, 5*time.Millisecond), 5*time.Second, 2*time.Second),
		Seed:     44,
		Duration: 60 * time.Second,
		Warmup:   10 * time.Second, // measure only post-GST blocks
		Options:  []sft.Option{sft.WithRoundTimeout(400 * time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedBlocks < 50 {
		t.Fatalf("only %d blocks committed after GST", res.CommittedBlocks)
	}
	if s := res.LevelLatency[8]; s.Count == 0 { // 2f = 8
		t.Fatal("2f-strong unreached after GST")
	}
	t.Logf("post-GST: %d blocks, regular %.3fs, 2f-strong %.3fs",
		res.CommittedBlocks, res.RegularLatency.Mean, res.LevelLatency[8].Mean)
}
