package sft_test

import (
	"testing"
	"time"

	"repro/sft"
)

// TestRejoinAfterHeal: a replica cut off from the cluster and reconnected
// catches up through state sync and endorses again, under either engine.
// The short cut leaves a gap one response segment (128 blocks) covers; the
// long cut leaves a larger one, which heals over several request/response
// rounds. The cut-off replica must end within a few heights of the others,
// every node must see some block reach 2f-strong after the heal — that level
// takes all 3f+1 endorsers, so it proves the replica votes again — and a block
// the replica proposed must commit after the heal: its leader slots count.
func TestRejoinAfterHeal(t *testing.T) {
	const (
		n      = 7
		f      = 2
		victim = sft.ReplicaID(4)
		cutAt  = time.Second
		settle = 3 * time.Second // from the heal to the end of the run
	)
	engines := []struct {
		name string
		opts []sft.Option
	}{
		{"diembft", []sft.Option{sft.WithEngine(sft.DiemBFT), sft.WithRoundTimeout(100 * time.Millisecond)}},
		{"streamlet-echo", []sft.Option{sft.WithEngine(sft.Streamlet), sft.WithDelta(5 * time.Millisecond)}},
		{"streamlet-noecho", []sft.Option{sft.WithEngine(sft.Streamlet), sft.WithDelta(5 * time.Millisecond), sft.WithoutEcho()}},
	}
	gaps := []struct {
		name     string
		healAt   time.Duration
		overACap bool
	}{
		{"within-segment", 2 * time.Second, false},
		{"beyond-segment", 9 * time.Second, true},
	}
	for ei, eng := range engines {
		for gi, gap := range gaps {
			t.Run(eng.name+"/"+gap.name, func(t *testing.T) {
				seed := int64(230 + 2*ei + gi)
				world, err := sft.NewSimnet(sft.SimnetConfig{N: n, Latency: &sft.UniformLatency{Base: 2 * time.Millisecond, Jitter: time.Millisecond}, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				nodes := make([]*sft.Node, n)
				ceilingAfterHeal := make([]bool, n)
				ledAfterHeal := false
				for i := range nodes {
					id := sft.ReplicaID(i)
					opts := append([]sft.Option{
						sft.WithScheme(sft.SchemeSim),
						sft.WithTransport(world.Transport(id)),
						sft.WithObserver(func(ev sft.CommitEvent) {
							if ev.Time > gap.healAt && ev.Strength == 2*f {
								ceilingAfterHeal[id] = true
							}
							if id == 0 && ev.Time > gap.healAt && ev.Regular && ev.Block.Proposer == victim {
								ledAfterHeal = true
							}
						}),
					}, eng.opts...)
					if nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...); err != nil {
						t.Fatal(err)
					}
				}
				world.PartitionAt(cutAt, []sft.ReplicaID{victim})
				world.HealAt(gap.healAt)

				world.Run(gap.healAt)
				missed := nodes[0].CommittedHeight() - nodes[victim].CommittedHeight()
				if missed == 0 || (missed > 128) != gap.overACap {
					t.Fatalf("the cut left a gap of %d blocks (front %d): the case does not test what its name says",
						missed, nodes[0].CommittedHeight())
				}
				world.Run(gap.healAt + settle)

				front := nodes[0].CommittedHeight()
				if got := nodes[victim].CommittedHeight(); got+8 < front {
					t.Fatalf("replica %d never rejoined: height %d, front %d (gap at heal %d)", victim, got, front, missed)
				}
				for i, ok := range ceilingAfterHeal {
					if !ok {
						t.Errorf("node %d saw no 2f-strong block after the heal", i)
					}
				}
				if !ledAfterHeal {
					t.Errorf("no block proposed by replica %d committed after the heal", victim)
				}
				if err := world.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
