package harness_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestFigure7aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	sc := harness.Scale{N: 31, Duration: 90 * time.Second, Seed: 1}
	res, err := harness.Figure7a(sc, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedBlocks < 50 {
		t.Fatalf("too few committed blocks: %d", res.CommittedBlocks)
	}
	levels := harness.DefaultLevels(10)
	var prev float64
	for i, lv := range levels {
		s := res.LevelLatency[lv]
		t.Logf("x=%s latency %s", harness.LevelLabel(lv, 10), s)
		if s.Count == 0 {
			t.Errorf("level %d unreached", lv)
			continue
		}
		// Latency must be (weakly) monotone in x, modulo 20% noise.
		if i > 0 && s.Mean < prev*0.8 {
			t.Errorf("latency not monotone at level %d: %.3f < %.3f", lv, s.Mean, prev)
		}
		prev = s.Mean
	}
	// The 2f level must be far above f (straggler tail).
	fLat := res.LevelLatency[levels[0]].Mean
	tfLat := res.LevelLatency[levels[len(levels)-1]].Mean
	if !(tfLat > 1.5*fLat) {
		t.Errorf("2f-strong (%.3fs) not clearly above f-strong (%.3fs)", tfLat, fLat)
	}
	t.Logf("regular commit: %s, throughput %.0f tps, msgs/commit %.1f",
		res.RegularLatency, res.ThroughputTPS, res.MsgsPerCommit)
}

func TestFigure7bOutcastCap(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	sc := harness.Scale{N: 31, Duration: 90 * time.Second, Seed: 2}

	// delta=100ms: region C leaders succeed, all levels eventually reached.
	res100, err := harness.Figure7b(sc, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// delta=200ms: region C rounds time out; levels needing C replicas'
	// strong-votes (above ~1.7f) must be unreachable.
	res200, err := harness.Figure7b(sc, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f := 10
	top := 2 * f
	if s := res100.LevelLatency[top]; s.Count == 0 {
		t.Errorf("delta=100ms: 2f-strong unreached, want reachable")
	}
	if s := res200.LevelLatency[top]; s.Count != 0 {
		t.Errorf("delta=200ms: 2f-strong reached %d times, want outcast cap", s.Count)
	}
	// Low levels must still work at delta=200ms.
	if s := res200.LevelLatency[f]; s.Count == 0 {
		t.Errorf("delta=200ms: f-strong unreached; cluster not live")
	}
	for _, lv := range harness.DefaultLevels(f) {
		t.Logf("x=%s  d100: %s | d200: %s", harness.LevelLabel(lv, f),
			res100.LevelLatency[lv], res200.LevelLatency[lv])
	}
}

func TestFigure8Tradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	sc := harness.Scale{N: 31, Duration: 60 * time.Second, Seed: 3}
	// The straggler penalty applies on both legs (proposal in, vote out),
	// so full capture needs waits beyond ~2x the penalty plus jitter.
	waits := []time.Duration{0, 100 * time.Millisecond, 250 * time.Millisecond}
	points, err := harness.Figure8(sc, waits)
	if err != nil {
		t.Fatal(err)
	}
	f := 10
	for _, p := range points {
		t.Logf("wait=%v regular=%.3fs 2f-strong=%s",
			p.ExtraWait, p.Result.RegularLatency.Mean, p.Result.LevelLatency[2*f])
	}
	// Regular commit latency grows with the wait.
	if !(points[2].Result.RegularLatency.Mean > points[0].Result.RegularLatency.Mean) {
		t.Errorf("regular latency did not grow with extra wait")
	}
	// 2f-strong latency shrinks dramatically with a large enough wait.
	l0 := points[0].Result.LevelLatency[2*f]
	l2 := points[2].Result.LevelLatency[2*f]
	if l0.Count > 0 && l2.Count > 0 && !(l2.Mean < l0.Mean*0.6) {
		t.Errorf("2f-strong latency did not improve: %.3f -> %.3f", l0.Mean, l2.Mean)
	}
	// With a wait beyond the straggler penalty the strong curve merges into
	// the regular one (every QC already has all votes).
	if l2.Count > 0 && math.Abs(l2.Mean-points[2].Result.RegularLatency.Mean) > 0.5*points[2].Result.RegularLatency.Mean {
		t.Logf("note: 2f curve not fully merged (%.3f vs regular %.3f)", l2.Mean, points[2].Result.RegularLatency.Mean)
	}
}
