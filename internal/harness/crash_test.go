package harness

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/sft"
)

// TestCrashRecoveryScenario is the end-to-end durability check: a replica
// killed mid-run and restored from its WAL re-joins via state sync, catches
// back up, and never commits anything inconsistent with the rest of the
// cluster or with the no-crash baseline's committed prefix.
func TestCrashRecoveryScenario(t *testing.T) {
	res, err := CrashRecovery(Scale{N: 7, Duration: 40 * time.Second, Seed: 5}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("SAFETY: recovered replica committed inconsistently with its peers or the baseline prefix")
	}
	if res.SharedPrefix == 0 {
		t.Fatal("runs share no committed prefix; the kill should not perturb pre-crash events")
	}
	if res.VictimHeight <= res.SharedPrefix {
		t.Fatalf("victim never caught up past its crash point: reached h%d, shared prefix h%d",
			res.VictimHeight, res.SharedPrefix)
	}
	// The rejoined replica should track the observer's tip closely by the
	// end of the run (state sync plus live traffic closes the gap).
	if res.ObserverHeight > res.VictimHeight+10 {
		t.Fatalf("victim lagging after rejoin: victim h%d vs observer h%d",
			res.VictimHeight, res.ObserverHeight)
	}
	if res.Faulty.CommittedBlocks == 0 {
		t.Fatal("faulty run committed nothing at the observer")
	}
}

// TestCrashWithoutRestartStaysDown: a CrashPlan with no restart behaves like
// the legacy Crash map — the cluster keeps going (n=7 tolerates f=2).
func TestCrashWithoutRestartStaysDown(t *testing.T) {
	sc := &Scenario{
		Name:         "crash-norestart",
		N:            7,
		Latency:      &simnet.UniformModel{Base: 5 * time.Millisecond, Jitter: time.Millisecond},
		Seed:         3,
		Duration:     15 * time.Second,
		Options:      []sft.Option{sft.WithRoundTimeout(400 * time.Millisecond)},
		RecordChains: true,
		Crashes:      []CrashPlan{{Replica: 6, Crash: 5 * time.Second}},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedBlocks == 0 {
		t.Fatal("cluster stalled after a single tolerated crash")
	}
	victimChain := res.Chains[6]
	obsChain := res.Chains[0]
	if len(victimChain) == 0 {
		t.Fatal("victim committed nothing before its crash")
	}
	for h, id := range victimChain {
		if ref, ok := obsChain[h]; ok && ref != id {
			t.Fatalf("victim's pre-crash commit at h%d disagrees with the observer", h)
		}
	}
	if len(victimChain) >= len(obsChain) {
		t.Fatalf("victim (down from 5s) committed as much as the observer: %d vs %d",
			len(victimChain), len(obsChain))
	}
}

// TestDurableRunMatchesInMemoryRun: attaching journals to every replica
// (DataDir set, no crashes) must not change a fixed-seed run's results —
// the WAL is write-only on the hot path.
func TestDurableRunMatchesInMemoryRun(t *testing.T) {
	base := Scenario{
		Name:         "durable-ab",
		N:            4,
		Latency:      &simnet.UniformModel{Base: 5 * time.Millisecond, Jitter: time.Millisecond},
		Seed:         9,
		Duration:     10 * time.Second,
		Options:      []sft.Option{sft.WithRoundTimeout(400 * time.Millisecond)},
		RecordChains: true,
	}
	plain := base
	plainRes, err := Run(&plain)
	if err != nil {
		t.Fatal(err)
	}
	durable := base
	durable.DataDir = t.TempDir()
	durableRes, err := Run(&durable)
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.CommittedBlocks != durableRes.CommittedBlocks {
		t.Fatalf("journaling changed committed blocks: %d vs %d",
			plainRes.CommittedBlocks, durableRes.CommittedBlocks)
	}
	if plainRes.Events != durableRes.Events {
		t.Fatalf("journaling changed the event sequence: %d vs %d events",
			plainRes.Events, durableRes.Events)
	}
	for rep, chain := range plainRes.Chains {
		other := durableRes.Chains[rep]
		if len(other) != len(chain) {
			t.Fatalf("replica %v: chain length %d vs %d", rep, len(other), len(chain))
		}
		for h, id := range chain {
			if other[h] != id {
				t.Fatalf("replica %v h%d: %v vs %v", rep, h, other[h], id)
			}
		}
	}
}
