package diembft_test

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/types"
)

// TestHealHandsLeadToCutSide: a partition leaves exactly 2f+1 replicas
// connected, and the heal lands while they time out a round led by a cut
// replica, so the next round's leader is a formerly cut replica too (a cut
// replica skipped for a failed slot leads its next one again). It
// learns that round and a high QC from the timeouts, but not the certified
// block, which it lacks: it must fetch the block from a voter of the
// certificate and propose in its round, instead of letting the round time
// out because no proposal arrives to start its catch-up.
func TestHealHandsLeadToCutSide(t *testing.T) {
	const n, f = 7, 2
	cut := []types.ReplicaID{5, 6}
	type commit struct {
		proposer types.ReplicaID
		round    types.Round
	}
	var commits []commit
	sim, reps := buildCluster(t, n, f, nil, simnet.Config{
		Seed: 4,
		OnCommit: func(rep types.ReplicaID, _ time.Duration, b *types.Block) {
			if rep == 0 {
				commits = append(commits, commit{b.Proposer, b.Round})
			}
		},
	})
	sim.PartitionAt(2*time.Second, cut)
	sim.Run(6 * time.Second)
	// Heal while the connected side waits out a round replica 5 leads.
	for reps[0].CurrentLeader() != 5 {
		if sim.Now() > 20*time.Second {
			t.Fatal("the connected side never reached a round led by replica 5")
		}
		sim.Run(sim.Now() + time.Millisecond)
	}
	next := reps[0].Round() + 1
	if reps[6].Store().Has(reps[0].HighQC().Height, reps[0].HighQC().Block) {
		t.Fatal("replica 6 already holds the high QC's block; the heal tests nothing")
	}
	sim.HealAt(sim.Now())
	sim.Run(sim.Now() + 5*time.Second)
	for _, c := range commits {
		if c.round == next {
			if c.proposer != 6 {
				t.Fatalf("round %d committed a block by %d, want the leader 6", next, c.proposer)
			}
			return
		}
	}
	t.Fatalf("nothing committed for round %d, the first round replica 6 leads after the heal", next)
}
