package diembft_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/types"
)

// buildCluster wires n SFT-DiemBFT replicas into a fresh simulator.
func buildCluster(t testing.TB, n, f int, cfgMut func(id types.ReplicaID, c *diembft.Config), simCfg simnet.Config) (*simnet.Sim, []*diembft.Replica) {
	t.Helper()
	ring, err := crypto.NewKeyRing(n, 42, crypto.SchemeSim)
	if err != nil {
		t.Fatalf("keyring: %v", err)
	}
	simCfg.N = n
	if simCfg.Latency == nil {
		simCfg.Latency = &simnet.UniformModel{Base: 5 * time.Millisecond, Jitter: time.Millisecond}
	}
	sim := simnet.New(simCfg)
	replicas := make([]*diembft.Replica, n)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		cfg := diembft.Config{
			Config: replica.Config{
				ID:               id,
				N:                n,
				Signer:           ring.Signer(id),
				Verifier:         ring,
				VerifySignatures: true,
			},
			RoundTimeout: 500 * time.Millisecond,
		}
		if cfgMut != nil {
			cfgMut(id, &cfg)
		}
		rep, err := diembft.New(cfg)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		replicas[i] = rep
		sim.SetEngine(id, rep)
	}
	return sim, replicas
}

func TestClusterCommitsBlocks(t *testing.T) {
	commits := make(map[types.ReplicaID][]*types.Block)
	simCfg := simnet.Config{
		Seed: 1,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			commits[rep] = append(commits[rep], b)
		},
	}
	sim, replicas := buildCluster(t, 4, 1, nil, simCfg)
	sim.Run(3 * time.Second)

	for id, reps := range commits {
		if len(reps) == 0 {
			t.Fatalf("replica %v committed nothing", id)
		}
	}
	if len(commits) != 4 {
		t.Fatalf("only %d replicas committed", len(commits))
	}
	// All replicas must agree on the committed prefix (safety).
	ref := commits[0]
	for id := types.ReplicaID(1); id < 4; id++ {
		other := commits[id]
		n := min(len(ref), len(other))
		for i := 0; i < n; i++ {
			if ref[i].ID() != other[i].ID() {
				t.Fatalf("divergent commit at index %d: %v vs %v", i, ref[i], other[i])
			}
		}
	}
	// Rounds should have advanced well beyond the timeout path.
	for _, rep := range replicas {
		if rep.Round() < 20 {
			t.Fatalf("replica %v stuck at round %d", rep.ID(), rep.Round())
		}
	}
	t.Logf("committed %d blocks, final round %d", len(ref), replicas[0].Round())
}

func TestStrengthReaches2F(t *testing.T) {
	// In a fault-free 4-replica cluster every block should eventually be
	// 2f-strong committed (Theorem 2 with c = 0).
	best := make(map[types.BlockID]int)
	simCfg := simnet.Config{
		Seed: 2,
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			if rep == 0 && x > best[b.ID()] {
				best[b.ID()] = x
			}
		},
	}
	sim, _ := buildCluster(t, 4, 1, nil, simCfg)
	sim.Run(3 * time.Second)

	reached := 0
	for _, x := range best {
		if x == 2 { // 2f = 2 for f = 1
			reached++
		}
	}
	if reached < 10 {
		t.Fatalf("only %d blocks reached 2f-strong, want >= 10 (tracked %d)", reached, len(best))
	}
}

func TestCrashedLeaderRotatesOut(t *testing.T) {
	commits := make(map[types.ReplicaID]int)
	simCfg := simnet.Config{
		Seed: 3,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			commits[rep]++
		},
	}
	sim, _ := buildCluster(t, 4, 1, nil, simCfg)
	// Crash replica 1 early; the protocol must keep committing through
	// timeouts when replica 1's turns come up.
	sim.CrashAt(1, 200*time.Millisecond)
	sim.Run(8 * time.Second)

	for _, id := range []types.ReplicaID{0, 2, 3} {
		if commits[id] < 5 {
			t.Fatalf("replica %v committed only %d blocks after leader crash", id, commits[id])
		}
	}
}
