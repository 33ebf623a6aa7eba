package sft

import (
	"testing"
	"time"

	"repro/internal/diembft"
	"repro/internal/window"
)

// TestFootprintFlat: a DiemBFT replica set at keep 512 holds its sliding
// windows — the store's height ring, the vote history and its chain index,
// the strength feed — in at most keep + window.Slack(keep) slots each, and in
// exactly as many after 20,000 heights as after 2,000: what a replica holds
// follows what it keeps, not how long it ran.
func TestFootprintFlat(t *testing.T) {
	const n, keep = 4, 512
	world, err := NewSimnet(SimnetConfig{
		N:       n,
		Latency: &UniformLatency{Base: 2 * time.Millisecond, Jitter: time.Millisecond},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	nodes := make([]*Node, n)
	for i := range nodes {
		id := ReplicaID(i)
		if nodes[i], err = New(Config{ID: id, N: n, Seed: 3},
			WithScheme(SchemeSim),
			WithTransport(world.Transport(id)),
			WithRoundTimeout(200*time.Millisecond),
			WithPruneKeep(keep),
		); err != nil {
			t.Fatal(err)
		}
	}
	type footprint struct{ ring, voted, chain, feed int }
	measure := func() []footprint {
		out := make([]footprint, n)
		for i, node := range nodes {
			rep := node.honestEngine().(*diembft.Replica)
			voted, chain := rep.History().Capacity()
			node.mu.Lock()
			out[i] = footprint{rep.Store().Levels(), voted, chain, node.levels.Cap()}
			node.mu.Unlock()
		}
		return out
	}
	runTo := func(h Height) {
		for nodes[0].CommittedHeight() < h {
			world.Run(world.Now() + time.Second)
		}
	}
	runTo(2000)
	short := measure()
	runTo(20000)
	long := measure()
	t.Logf("after 2,000: %+v; after 20,000: %+v", short, long)
	bound := keep + window.Slack(keep)
	for i := range nodes {
		if short[i] != long[i] {
			t.Errorf("node %d holds %+v slots after 2,000 heights and %+v after 20,000", i, short[i], long[i])
		}
		for _, slots := range []int{long[i].ring, long[i].voted, long[i].chain, long[i].feed} {
			if slots > bound || slots < keep {
				t.Errorf("node %d holds %+v slots, want each in %d..%d", i, long[i], keep, bound)
				break
			}
		}
	}
}
