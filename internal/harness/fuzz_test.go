package harness_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/types"
)

// TestFuzzSweepHoldsInvariants is the headline adversarial test: a seeded
// sweep of randomized scenarios — both engines, random Byzantine behavior
// compositions up to 2f colluders, crash/restart plans, partitions — must
// produce zero invariant violations under the real commit rule.
func TestFuzzSweepHoldsInvariants(t *testing.T) {
	scenarios := 50
	if testing.Short() {
		scenarios = 12
	}
	report, err := harness.RunFuzz(harness.FuzzOptions{Seed: 1, Scenarios: scenarios})
	if err != nil {
		t.Fatal(err)
	}
	for _, fail := range report.Failures {
		t.Errorf("%s\n  -> %s", fail.Spec, strings.Join(fail.Violations, "\n  -> "))
	}
	t.Logf("%d scenarios (%d byzantine, %d partitioned, %d crashing), %d events, %d blocks in %v",
		report.Scenarios, report.ByzantineScenarios, report.PartitionScenarios,
		report.CrashScenarios, report.TotalEvents, report.TotalBlocks, report.Elapsed)
	if report.ByzantineScenarios == 0 || report.CrashScenarios == 0 {
		t.Fatalf("sweep explored too little: %+v", report)
	}
}

// TestFuzzScenarioReplayDeterminism pins reproducibility: re-running a
// generated scenario from its (seed, index) pair is bit-identical.
func TestFuzzScenarioReplayDeterminism(t *testing.T) {
	opts := harness.FuzzOptions{Seed: 7}
	for _, idx := range []int{0, 3, 9} {
		specA := harness.GenFuzzScenario(7, idx, opts)
		specB := harness.GenFuzzScenario(7, idx, opts)
		if specA.String() != specB.String() {
			t.Fatalf("spec generation not deterministic:\n%s\n%s", specA, specB)
		}
		resA, vioA, err := harness.RunFuzzScenario(specA)
		if err != nil {
			t.Fatal(err)
		}
		resB, vioB, err := harness.RunFuzzScenario(specB)
		if err != nil {
			t.Fatal(err)
		}
		if resA.Events != resB.Events || resA.CommittedBlocks != resB.CommittedBlocks ||
			resA.Msgs.Count != resB.Msgs.Count || len(vioA) != len(vioB) {
			t.Fatalf("scenario %d replay diverged: events %d vs %d, blocks %d vs %d, msgs %d vs %d",
				idx, resA.Events, resB.Events, resA.CommittedBlocks, resB.CommittedBlocks,
				resA.Msgs.Count, resB.Msgs.Count)
		}
	}
}

// TestWeakenedRuleCaught pins the checker's teeth: the directed Appendix C
// collusion against the naive (marker-free) endorsement rule must be
// flagged as a Definition 1 violation, while the identical scenario under
// the real marker rule stays clean.
func TestWeakenedRuleCaught(t *testing.T) {
	var seed int64
	caught := false
	for seed = 1; seed <= 8; seed++ {
		spec, violations, err := harness.WeakenedRuleCanary(seed, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		if hasDef1(violations) {
			caught = true
			t.Logf("naive rule caught at seed %d: %s", seed, spec)
			break
		}
	}
	if !caught {
		t.Fatal("weakened (naive) commit rule produced no Definition 1 violation in 8 seeds")
	}
	// The same collusion under the real marker rule must stay safe — any
	// invariant breach (not just Definition 1) is a regression.
	spec, violations, err := harness.WeakenedRuleCanary(seed, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Fatalf("marker rule violated invariants under the canary collusion: %s\n%v", spec, violations)
	}
}

// TestWeakenedRuleCaughtAtFour pins the canary at n = 4 on fixed seeds, so
// that a change to the election or to the markers cannot take its teeth away
// unseen: the naive rule violates Definition 1 on each (on all of seeds
// 1–64), the marker rule breaks no invariant on any. Seed 1's first finding
// is the counterexample doc.go spells out.
func TestWeakenedRuleCaughtAtFour(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		spec, violations, err := harness.WeakenedRuleCanary(seed, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if !hasDef1(violations) {
			t.Errorf("seed %d: the naive rule broke no Definition 1: %s", seed, spec)
		} else if seed == 1 && !strings.Contains(violations[0], "at height 9 both reached strength >= 2 with 2 byzantine") {
			t.Errorf("seed 1's first finding moved from doc.go's counterexample: %s", violations[0])
		}
		spec, violations, err = harness.WeakenedRuleCanary(seed, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(violations) > 0 {
			t.Errorf("seed %d: marker rule violated invariants under the canary collusion: %s\n%v", seed, spec, violations)
		}
	}
}

func hasDef1(violations []string) bool {
	for _, v := range violations {
		if strings.Contains(v, "Definition 1") {
			return true
		}
	}
	return false
}

// TestPartitionStallsAndHeals sanity-checks the new partition scheduling
// end to end: a majority-less split stops commits, healing restores them.
func TestPartitionStallsAndHeals(t *testing.T) {
	spec := harness.GenFuzzScenario(3, 0, harness.FuzzOptions{N: 4, Duration: 6 * time.Second})
	spec.Adversaries = nil
	spec.Crashes = nil
	spec.Partitions = []harness.PartitionPlan{{
		At:     2 * time.Second,
		Heal:   3 * time.Second,
		Groups: [][]types.ReplicaID{{0, 1}},
	}}
	res, violations, err := harness.RunFuzzScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Fatalf("healed-partition scenario violated invariants: %v", violations)
	}
	if res.PartitionDrops == 0 {
		t.Fatal("partition dropped no deliveries")
	}
	if res.CommittedBlocks < 3 {
		t.Fatalf("cluster never recovered after heal: %d blocks", res.CommittedBlocks)
	}
}
