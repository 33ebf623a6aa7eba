package sft_test

import (
	"sync"
	"testing"
	"time"

	"repro/sft"
)

// buildSimCluster attaches n nodes to a fresh Simnet, applying extra per-id
// options, and returns the world plus nodes.
func buildSimCluster(t *testing.T, n int, seed int64, perID func(id sft.ReplicaID) []sft.Option) (*sft.Simnet, []*sft.Node) {
	t.Helper()
	world, err := sft.NewSimnet(sft.SimnetConfig{
		N:       n,
		Latency: &sft.UniformLatency{Base: 2 * time.Millisecond, Jitter: time.Millisecond},
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*sft.Node, n)
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithScheme(sft.SchemeSim),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(200 * time.Millisecond),
		}
		if perID != nil {
			opts = append(opts, perID(id)...)
		}
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...)
		if err != nil {
			t.Fatal(err)
		}
	}
	return world, nodes
}

// TestWithAdversaryWithholding: a facade-built Byzantine node (silent
// voter) caps the cluster's strength at 2f - t without breaking safety —
// the adversary subsystem end to end through the public API.
func TestWithAdversaryWithholding(t *testing.T) {
	const n, f = 4, 1
	world, nodes := buildSimCluster(t, n, 41, func(id sft.ReplicaID) []sft.Option {
		if id == 3 {
			return []sft.Option{sft.WithAdversary(sft.AdversarySpec{Kind: sft.AdversaryWithhold})}
		}
		return nil
	})
	world.Run(6 * time.Second)
	defer world.Close()

	if h := nodes[0].CommittedHeight(); h < 5 {
		t.Fatalf("cluster with one silent Byzantine node committed only to height %d", h)
	}
	if m := nodes[0].Metrics(); m.MaxStrength > 2*f-1 {
		t.Fatalf("strength %d exceeds 2f-t = %d with a withholding replica", m.MaxStrength, 2*f-1)
	}
}

// TestPrevalidateDropsVisibleUnderSimnet: a message an engine's own OnMessage
// drops at Prevalidate is counted like one a TCP reader drops, so a garbage-
// spraying peer shows in an honest node's metrics on every transport.
func TestPrevalidateDropsVisibleUnderSimnet(t *testing.T) {
	world, nodes := buildSimCluster(t, 4, 43, func(id sft.ReplicaID) []sft.Option {
		if id == 3 {
			return []sft.Option{sft.WithAdversary(sft.AdversarySpec{Kind: sft.AdversaryGarbage})}
		}
		return []sft.Option{sft.WithObservability(sft.ObsConfig{})}
	})
	world.Run(3 * time.Second)
	defer world.Close()

	if h := nodes[0].CommittedHeight(); h < 5 {
		t.Fatalf("cluster with one garbage-spraying node committed only to height %d", h)
	}
	if m := nodes[0].Metrics(); m.PrevalidateDrops == 0 {
		t.Fatal("garbage dropped at Prevalidate under Simnet is not counted")
	}
}

// TestWithAdversaryEquivocation: an equivocating facade node must not break
// prefix agreement between honest nodes.
func TestWithAdversaryEquivocation(t *testing.T) {
	const n = 4
	world, nodes := buildSimCluster(t, n, 43, func(id sft.ReplicaID) []sft.Option {
		if id == 2 {
			return []sft.Option{
				sft.WithAdversary(sft.AdversarySpec{Kind: sft.AdversaryEquivocate}),
				sft.WithAdversaryPeers(2),
			}
		}
		return nil
	})
	chains := make(map[sft.ReplicaID]map[sft.Height]sft.BlockID)
	var wg sync.WaitGroup
	for i, node := range nodes {
		id := sft.ReplicaID(i)
		chains[id] = make(map[sft.Height]sft.BlockID)
		events := node.Commits()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range events {
				if ev.Regular {
					chains[id][ev.Height] = ev.Block.ID()
				}
			}
		}()
	}
	world.Run(6 * time.Second)
	_ = world.Close() // closes subscriptions; collector goroutines drain and exit
	wg.Wait()

	honest := []sft.ReplicaID{0, 1, 3}
	ref := chains[0]
	if len(ref) < 5 {
		t.Fatalf("observer committed only %d heights under equivocation", len(ref))
	}
	for _, id := range honest[1:] {
		for h, b := range chains[id] {
			if other, ok := ref[h]; ok && other != b {
				t.Fatalf("SAFETY VIOLATION: replicas 0 and %d disagree at height %d", id, h)
			}
		}
	}
}

// TestSimnetPartitionHeals: PartitionAt splits the cluster below quorum —
// commits stop; HealAt restores them. The facade's partition scheduling end
// to end.
func TestSimnetPartitionHeals(t *testing.T) {
	const n = 4
	world, nodes := buildSimCluster(t, n, 47, nil)
	defer world.Close()

	world.PartitionAt(2*time.Second, []sft.ReplicaID{0, 1})
	world.HealAt(4 * time.Second)

	world.Run(2 * time.Second)
	atSplit := nodes[0].CommittedHeight()
	if atSplit < 3 {
		t.Fatalf("no progress before the partition: height %d", atSplit)
	}
	world.Run(3900 * time.Millisecond)
	duringSplit := nodes[0].CommittedHeight()
	world.Run(8 * time.Second)
	afterHeal := nodes[0].CommittedHeight()

	if world.PartitionDrops() == 0 {
		t.Fatal("partition dropped no deliveries")
	}
	if duringSplit > atSplit+2 {
		t.Fatalf("commits continued through a quorum-less partition: %d -> %d", atSplit, duringSplit)
	}
	if afterHeal <= duringSplit+2 {
		t.Fatalf("cluster did not recover after heal: %d -> %d", duringSplit, afterHeal)
	}
}
