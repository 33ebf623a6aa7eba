package streamlet_test

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/simnet"
	"repro/internal/streamlet"
	"repro/internal/types"
)

// corrupt swaps replica id's engine for one wrapped with the given
// adversary behaviors — the composable subsystem that replaced the old
// streamlet.Config.WithholdVotes knob and gives Streamlet the leader
// misbehaviors (equivocation included) that previously only DiemBFT had.
func corrupt(t *testing.T, sim *simnet.Sim, rep *streamlet.Replica, n int, specs ...adversary.Spec) {
	t.Helper()
	ring, err := crypto.NewKeyRing(n, 7, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	var eng engine.Engine
	eng, err = adversary.Wrap(rep, adversary.Config{
		ID: rep.ID(), N: n, Signer: ring.Signer(rep.ID()), Seed: int64(rep.ID()) + 1,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetEngine(rep.ID(), eng)
}

// TestStreamletWithholdingCapsStrength: one silent Byzantine replica
// (t = f = 1 at n = 4) caps SFT-Streamlet's strength at 2f - t, mirroring
// Definition 2 and Theorem 5.
func TestStreamletWithholdingCapsStrength(t *testing.T) {
	best := make(map[types.BlockID]int)
	simCfg := simnet.Config{
		Seed: 31,
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			if rep == 0 && x > best[b.ID()] {
				best[b.ID()] = x
			}
		},
	}
	sim, reps := buildCluster(t, 4, 1, nil, simCfg)
	corrupt(t, sim, reps[3], 4, adversary.Spec{Kind: adversary.Withhold})
	sim.Run(6 * time.Second)

	if len(best) == 0 {
		t.Fatal("no strong commits with one silent replica")
	}
	for id, x := range best {
		if x > 1 { // 2f - t = 1
			t.Fatalf("block %v reached %d-strong with a silent replica", id, x)
		}
	}
}

// TestStreamletEquivocatingLeaderSafety: Streamlet misbehavior parity with
// DiemBFT — one equivocating leader (t = f = 1 at n = 4) forks its led
// rounds, yet honest replicas never commit divergent prefixes and the
// cluster keeps committing (the counterpart of the DiemBFT regression
// test; before the adversary subsystem, only DiemBFT could equivocate).
func TestStreamletEquivocatingLeaderSafety(t *testing.T) {
	commits := make(map[types.ReplicaID][]types.BlockID)
	simCfg := simnet.Config{
		Seed: 33,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			commits[rep] = append(commits[rep], b.ID())
		},
	}
	sim, reps := buildCluster(t, 4, 1, nil, simCfg)
	corrupt(t, sim, reps[2], 4, adversary.Spec{Kind: adversary.Equivocate})
	sim.Run(8 * time.Second)

	honest := []types.ReplicaID{0, 1, 3}
	for _, id := range honest {
		if len(commits[id]) < 5 {
			t.Fatalf("replica %v committed only %d blocks under an equivocating leader", id, len(commits[id]))
		}
	}
	ref := commits[0]
	for _, id := range honest[1:] {
		other := commits[id]
		for i := 0; i < min(len(ref), len(other)); i++ {
			if ref[i] != other[i] {
				t.Fatalf("SAFETY VIOLATION: divergence at %d between 0 and %v", i, id)
			}
		}
	}
}

// TestStreamletCommitNeedsConsecutiveRounds: a certified-but-gapped chain
// must not commit (the commit rule demands three adjacent certified blocks
// with consecutive round numbers).
func TestStreamletCommitNeedsConsecutiveRounds(t *testing.T) {
	// Crash one replica mid-run: with n=4 and a crash, rounds led by the
	// crashed replica produce no block, creating round gaps. Liveness
	// eventually resumes (consecutive honest-led rounds exist), and safety
	// must hold throughout.
	commits := make(map[types.ReplicaID][]types.BlockID)
	simCfg := simnet.Config{
		Seed: 32,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			commits[rep] = append(commits[rep], b.ID())
		},
	}
	sim, _ := buildCluster(t, 4, 1, nil, simCfg)
	sim.CrashAt(1, 500*time.Millisecond)
	sim.Run(8 * time.Second)

	for _, id := range []types.ReplicaID{0, 2, 3} {
		if len(commits[id]) < 5 {
			t.Fatalf("replica %v committed only %d blocks after crash", id, len(commits[id]))
		}
	}
	ref := commits[0]
	for _, id := range []types.ReplicaID{2, 3} {
		other := commits[id]
		for i := 0; i < min(len(ref), len(other)); i++ {
			if ref[i] != other[i] {
				t.Fatalf("divergence at %d between 0 and %v", i, id)
			}
		}
	}
}
