package harness_test

import (
	"testing"
	"time"

	"repro/internal/harness"
)

func TestTheorem2Liveness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// n=13, f=4: under c benign crashes every block must reach (2f-c)-strong.
	sc := harness.Scale{N: 13, F: 4, Duration: 60 * time.Second, Seed: 5}
	for _, c := range []int{0, 2, 4} {
		res, target, err := harness.Theorem2(sc, c)
		if err != nil {
			t.Fatal(err)
		}
		s := res.LevelLatency[target]
		if s.Count == 0 {
			t.Errorf("c=%d: target level %d never reached", c, target)
			continue
		}
		// Theorem 2's bound is n+2 rounds. Crashed leaders cost a round
		// timeout each; a generous wall bound is (n+2) * (timeout).
		bound := float64(13+2) * 0.25 * 2
		if s.Mean > bound {
			t.Errorf("c=%d: mean latency %.3fs exceeds bound %.1fs", c, s.Mean, bound)
		}
		t.Logf("c=%d: (2f-c)=%d-strong latency %s over %d blocks", c, target, s, res.CommittedBlocks)
	}
}

// TestLivenessAttack runs the pacemaker A/B at acceptance scale: the
// experiment itself asserts safety on both arms, liveness and bounded
// per-peer timeout memory on the default arm, and demonstrated unbounded
// growth on the uncapped arm.
func TestLivenessAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := harness.LivenessAttack(harness.Scale{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Default.CommittedBlocks < res.Uncapped.CommittedBlocks/2 {
		t.Errorf("default arm committed %d blocks vs uncapped %d — the cap cost liveness",
			res.Default.CommittedBlocks, res.Uncapped.CommittedBlocks)
	}
	t.Logf("uncapped: %d commits, peak per-peer buffer %d; default: %d commits, peak %d (cap %d)",
		res.Uncapped.CommittedBlocks, res.UncappedPeak,
		res.Default.CommittedBlocks, res.DefaultPeak, res.Cap)
}

// TestPacemakerCanary pins the fuzz-side A/B demo the sftbench adversary
// sweep runs: same seed, the uncapped buffer grows past the cap, the default
// one stays bounded, both safe.
func TestPacemakerCanary(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	_, uncapped, uv, err := harness.PacemakerCanary(3, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	_, def, dv, err := harness.PacemakerCanary(3, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(uv) > 0 || len(dv) > 0 {
		t.Fatalf("canary violated safety: uncapped=%v default=%v", uv, dv)
	}
	if got, _ := def.PacemakerPeak(); got > 8 {
		t.Errorf("default arm per-peer buffer peaked at %d > cap", got)
	}
	if got, _ := uncapped.PacemakerPeak(); got <= 8 {
		t.Errorf("uncapped arm peaked at only %d — spam demonstrated nothing", got)
	}
}

func TestTheorem3IntervalVsMarker(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// t equivocating Byzantine leaders; interval votes (Theorem 3) must
	// reach the (2f-t) target at least as fast as markers, whose liveness
	// is only guaranteed under benign faults.
	sc := harness.Scale{N: 13, F: 4, Duration: 90 * time.Second, Seed: 6}
	marker, interval, target, err := harness.Theorem3(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms := marker.LevelLatency[target]
	is := interval.LevelLatency[target]
	t.Logf("target %d-strong: marker %s | interval %s", target, ms, is)
	if is.Count == 0 {
		t.Fatalf("interval mode never reached the Theorem 3 target %d", target)
	}
	if ms.Count > 0 && is.Count > 0 && is.Mean > ms.Mean*1.25 {
		t.Errorf("interval mode slower than marker mode: %.3f vs %.3f", is.Mean, ms.Mean)
	}
	// Interval votes must cover at least as many blocks as markers.
	if is.Count < ms.Count {
		t.Errorf("interval mode reached target on fewer blocks: %d < %d", is.Count, ms.Count)
	}
}

func TestThroughputParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// §4: SFT-DiemBFT throughput and regular commit latency are essentially
	// identical to DiemBFT (the strong-vote adds one integer per vote).
	sc := harness.Scale{N: 31, F: 10, Duration: 60 * time.Second, Seed: 7}
	base, sft, err := harness.ThroughputComparison(sc, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("DiemBFT:     %.0f tps, regular %.3fs, %.0f bytes/block",
		base.ThroughputTPS, base.RegularLatency.Mean, base.BytesPerBlock)
	t.Logf("SFT-DiemBFT: %.0f tps, regular %.3fs, %.0f bytes/block",
		sft.ThroughputTPS, sft.RegularLatency.Mean, sft.BytesPerBlock)

	ratio := sft.ThroughputTPS / base.ThroughputTPS
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("throughput ratio %.3f outside [0.97, 1.03]", ratio)
	}
	lat := sft.RegularLatency.Mean / base.RegularLatency.Mean
	if lat < 0.95 || lat > 1.05 {
		t.Errorf("regular latency ratio %.3f outside [0.95, 1.05]", lat)
	}
}

func TestMessageComplexityScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	points, err := harness.MessageComplexity(harness.Scale{Duration: 30 * time.Second, Seed: 8}, []int{2, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		t.Logf("n=%d: SFT %.1f msgs/decision, FBFT %.1f msgs/decision",
			p.N, p.SFTMsgsPerDec, p.FBFTMsgsPer)
		if p.FBFTMsgsPer <= p.SFTMsgsPerDec {
			t.Errorf("n=%d: FBFT not more expensive than SFT", p.N)
		}
	}
	// SFT messages per decision grow linearly: per-replica cost
	// (msgs/decision/n) stays roughly constant.
	sftSmall := points[0].SFTMsgsPerDec / float64(points[0].N)
	sftBig := points[len(points)-1].SFTMsgsPerDec / float64(points[len(points)-1].N)
	if sftBig > sftSmall*1.5 {
		t.Errorf("SFT per-replica message cost grew: %.2f -> %.2f", sftSmall, sftBig)
	}
	// FBFT messages per decision grow quadratically: per-replica cost
	// grows with n. Between n=7 and n=31 it should grow clearly.
	fbSmall := points[0].FBFTMsgsPer / float64(points[0].N)
	fbBig := points[len(points)-1].FBFTMsgsPer / float64(points[len(points)-1].N)
	if fbBig < fbSmall*1.5 {
		t.Errorf("FBFT per-replica message cost did not grow: %.2f -> %.2f", fbSmall, fbBig)
	}
}

func TestStreamletLatencyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	sc := harness.Scale{N: 13, F: 4, Duration: 60 * time.Second, Seed: 9}
	res, err := harness.StreamletLatency(sc, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedBlocks < 20 {
		t.Fatalf("streamlet committed only %d blocks", res.CommittedBlocks)
	}
	f := 4
	if s := res.LevelLatency[2*f]; s.Count == 0 {
		t.Error("2f-strong unreached in fault-free SFT-Streamlet")
	}
	fLat := res.LevelLatency[f]
	tfLat := res.LevelLatency[2*f]
	if fLat.Count > 0 && tfLat.Count > 0 && tfLat.Mean < fLat.Mean {
		t.Errorf("2f-strong (%.3f) faster than f-strong (%.3f)", tfLat.Mean, fLat.Mean)
	}
	for _, lv := range harness.DefaultLevels(f) {
		t.Logf("x=%s: %s", harness.LevelLabel(lv, f), res.LevelLatency[lv])
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := harness.Run(&harness.Scenario{N: 5, F: 1}); err == nil {
		t.Error("accepted n != 3f+1")
	}
	if _, err := harness.Run(&harness.Scenario{N: 4, F: 1}); err == nil {
		t.Error("accepted missing latency model")
	}
}

func TestDefaultLevels(t *testing.T) {
	levels := harness.DefaultLevels(33)
	if levels[0] != 33 || levels[len(levels)-1] != 66 {
		t.Fatalf("levels = %v", levels)
	}
	if harness.LevelLabel(36, 33) != "1.1f" {
		t.Fatalf("label = %s", harness.LevelLabel(36, 33))
	}
	// Small f collapses duplicate levels.
	small := harness.DefaultLevels(1)
	if len(small) != 2 || small[0] != 1 || small[1] != 2 {
		t.Fatalf("small levels = %v", small)
	}
}
