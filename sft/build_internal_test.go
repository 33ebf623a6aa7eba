package sft

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
)

// TestAdversaryWrapping pins how New builds Byzantine replicas under both
// engines: an honest node's engine is unwrapped (the honest hot path never
// pays for the adversary subsystem), a WithAdversary node's is wrapped and
// still restores from a journal, and a Simnet restart rebuilds it through
// the same builder, wrapped again.
func TestAdversaryWrapping(t *testing.T) {
	for _, eng := range []Engine{DiemBFT, Streamlet} {
		t.Run(eng.String(), func(t *testing.T) {
			const n, byz = 4, ReplicaID(1)
			world, err := NewSimnet(SimnetConfig{N: n, Latency: &UniformLatency{Base: 2 * time.Millisecond}, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer world.Close()
			nodes := make([]*Node, n)
			for i := range nodes {
				id := ReplicaID(i)
				opts := []Option{WithEngine(eng), WithScheme(SchemeSim), WithTransport(world.Transport(id)),
					WithRoundTimeout(200 * time.Millisecond), WithDelta(20 * time.Millisecond)}
				if id == byz {
					opts = append(opts, WithWAL(t.TempDir()),
						WithAdversary(AdversarySpec{Kind: AdversaryEquivocate}, AdversarySpec{Kind: AdversaryWithhold}))
				}
				if nodes[i], err = New(Config{ID: id, N: n, Seed: 3}, opts...); err != nil {
					t.Fatal(err)
				}
			}
			if _, wrapped := nodes[0].eng.(*adversary.Replica); wrapped {
				t.Fatal("honest node built a wrapped engine")
			}
			first, wrapped := nodes[byz].eng.(*adversary.Replica)
			if !wrapped {
				t.Fatal("byzantine node built an unwrapped engine")
			}
			if _, ok := nodes[byz].eng.(interface{ Restore(*core.Recovery) error }); !ok {
				t.Fatal("wrapped engine lost the Restore hook")
			}
			world.CrashAt(byz, time.Second)
			if err := world.RestartAt(byz, 2*time.Second, nil); err != nil {
				t.Fatal(err)
			}
			world.Run(3 * time.Second)
			again, wrapped := nodes[byz].eng.(*adversary.Replica)
			if !wrapped || again == first {
				t.Fatalf("restart kept the first incarnation or dropped the wrapper (wrapped %v)", wrapped)
			}
		})
	}
}
