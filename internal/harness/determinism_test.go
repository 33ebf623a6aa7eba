package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/reference"
	"repro/internal/simnet"
	"repro/sft"
)

// Determinism is this repository's regression oracle for performance work:
// every optimization must leave fixed-seed experiment results bit-identical.
// These tests pin that property for the PR-1 hot-path changes (verified-QC
// cache, pooled event queue, bitset endorser sets, indexed marker walks).

// fingerprint reduces a Result to the comparable fields: commits, message
// accounting, events, and every latency summary.
type fingerprint struct {
	Blocks  int
	Txns    int64
	Events  int64
	Msgs    simnet.MsgStats
	Regular [5]float64
	Levels  map[int][5]float64
}

func fp(res *Result) fingerprint {
	f := fingerprint{
		Blocks: res.CommittedBlocks,
		Txns:   res.CommittedTxns,
		Events: res.Events,
		Msgs:   res.Msgs,
		Regular: [5]float64{
			res.RegularLatency.Mean, res.RegularLatency.P50, res.RegularLatency.P95,
			res.RegularLatency.Max, float64(res.RegularLatency.Count),
		},
		Levels: make(map[int][5]float64, len(res.LevelLatency)),
	}
	for lv, s := range res.LevelLatency {
		f.Levels[lv] = [5]float64{s.Mean, s.P50, s.P95, s.Max, float64(s.Count)}
	}
	return f
}

func verifyingScenario(seed int64, disableCache bool) *Scenario {
	return &Scenario{
		Name:     "determinism",
		N:        7,
		Latency:  simnet.NewSymmetricModel(7, 3, intraDelay, 50*time.Millisecond, symJitter),
		Seed:     seed,
		Duration: 20 * time.Second,
		Options: []sft.Option{
			sft.WithRoundTimeout(2 * time.Second),
			sft.WithReference(reference.Arms{VerifySignatures: true, DisableQCCache: disableCache}),
		},
	}
}

// TestDeterminismQCCacheOnOff asserts that enabling the verified-QC cache
// (the cache-off arm goes through sft.WithReference) changes nothing about a
// fixed-seed run: commits, per-level latencies,
// message counts, bytes, and processed events are all bit-identical. The
// cache only memoizes a pure predicate, so any divergence is a bug.
func TestDeterminismQCCacheOnOff(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cached, err := Run(verifyingScenario(seed, false))
		if err != nil {
			t.Fatal(err)
		}
		uncached, err := Run(verifyingScenario(seed, true))
		if err != nil {
			t.Fatal(err)
		}
		if cached.CommittedBlocks == 0 {
			t.Fatalf("seed %d: no commits; scenario too short to be meaningful", seed)
		}
		if !reflect.DeepEqual(fp(cached), fp(uncached)) {
			t.Errorf("seed %d: cache-on run differs from cache-off run:\n on=%+v\noff=%+v",
				seed, fp(cached), fp(uncached))
		}
	}
}

// TestDeterminismRepeatRun asserts that the same seed yields the same result
// twice in one process — the pooled event queue and bitset tracker must not
// introduce any iteration-order or reuse sensitivity.
func TestDeterminismRepeatRun(t *testing.T) {
	sc := Scale{N: 13, Duration: 20 * time.Second, Seed: 3}
	a, err := Figure7a(sc, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure7a(sc, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if a.CommittedBlocks == 0 {
		t.Fatal("no commits")
	}
	if !reflect.DeepEqual(fp(a), fp(b)) {
		t.Errorf("repeat run differs:\n a=%+v\n b=%+v", fp(a), fp(b))
	}
}
