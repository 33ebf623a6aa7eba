package sft

import (
	"testing"
	"time"
)

// TestStrengthBoundedByPruneKeep: under WithPruneKeep the node's own strength
// window follows the engine's cut instead of keeping one entry per block
// forever: after well over a thousand commits it holds about keep entries in
// an array of a few times that, an old block reads -1 again and a recent one
// still reads its level.
func TestStrengthBoundedByPruneKeep(t *testing.T) {
	const n, keep = 4, 64
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
	committed := make([][]BlockID, n)
	for i := range nodes {
		id := ReplicaID(i)
		nodes[i], err = New(Config{ID: id, N: n, Seed: 3},
			WithScheme(SchemeSim),
			WithTransport(world.Transport(id)),
			WithRoundTimeout(200*time.Millisecond),
			WithPruneKeep(keep),
			WithObserver(func(ev CommitEvent) {
				if ev.Regular {
					committed[id] = append(committed[id], ev.Block.ID())
				}
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	world.Run(10 * time.Second)
	for i, node := range nodes {
		ids := committed[i]
		if len(ids) <= 1000 {
			t.Fatalf("node %d committed %d blocks; the bound would be vacuous", i, len(ids))
		}
		node.mu.Lock()
		entries, slots, forks := len(node.window()), node.levels.Cap(), len(node.forks)
		node.mu.Unlock()
		if entries > 2*keep || entries < keep || slots > 4*keep || forks != 0 {
			t.Errorf("node %d holds %d strength entries in %d slots (%d forks) after %d commits, want %d..%d in at most %d",
				i, entries, slots, forks, len(ids), keep, 2*keep, 4*keep)
		}
		if got := node.Strength(ids[0]); got != -1 {
			t.Errorf("node %d: the first committed block still reads strength %d", i, got)
		}
		if got := node.Strength(ids[len(ids)-1]); got < node.cfg.F() {
			t.Errorf("node %d: the last committed block reads strength %d", i, got)
		}
	}
}
