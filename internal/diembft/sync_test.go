package diembft_test

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/types"
)

// TestPartitionedReplicaCatchesUpViaSync: replica 3 is fully partitioned
// for two seconds (all its traffic dropped in both directions), missing
// dozens of blocks. After healing, catch-up must let it fetch the
// missing ancestry, resume voting, and commit the same chain.
func TestPartitionedReplicaCatchesUpViaSync(t *testing.T) {
	const (
		healAt = 2 * time.Second
		end    = 8 * time.Second
	)
	commits := make(map[types.ReplicaID][]types.BlockID)
	var victimCommitsAfterHeal int
	simCfg := simnet.Config{
		Seed: 51,
		Drop: func(from, to types.ReplicaID, msg types.Message, now time.Duration) bool {
			if now >= healAt {
				return false
			}
			return from == 3 || to == 3
		},
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			commits[rep] = append(commits[rep], b.ID())
			if rep == 3 && now > healAt {
				victimCommitsAfterHeal++
			}
		},
	}
	sim, replicas := buildCluster(t, 4, 1, nil, simCfg)
	sim.Run(end)

	// The victim must have caught up: hundreds of blocks committed after
	// the heal, not just post-heal proposals.
	if victimCommitsAfterHeal < 100 {
		t.Fatalf("victim committed only %d blocks after healing", victimCommitsAfterHeal)
	}
	// Its committed chain must be a prefix-consistent copy of the others.
	ref := commits[0]
	victim := commits[3]
	if len(victim) == 0 {
		t.Fatal("victim committed nothing")
	}
	// The victim's first commit after healing sits deep in the chain; all
	// its commits must appear at the same position in replica 0's log.
	offset := -1
	for i, id := range ref {
		if id == victim[0] {
			offset = i
			break
		}
	}
	if offset < 0 {
		t.Fatal("victim's first commit not in replica 0's chain")
	}
	for i := 0; i < min(len(victim), len(ref)-offset); i++ {
		if victim[i] != ref[offset+i] {
			t.Fatalf("victim diverges at its commit %d", i)
		}
	}
	// And it should be participating again (voting), i.e. near the tip.
	if replicas[3].CommittedHeight()+10 < replicas[0].CommittedHeight() {
		t.Fatalf("victim stuck at height %d vs %d", replicas[3].CommittedHeight(), replicas[0].CommittedHeight())
	}
	t.Logf("victim recovered: %d commits after heal, height %d vs %d",
		victimCommitsAfterHeal, replicas[3].CommittedHeight(), replicas[0].CommittedHeight())
}

// TestSyncRequestBounded: sync responses are capped, so a freshly joining
// replica pulls the chain in segments rather than one giant message.
func TestSyncResponsesServeSegments(t *testing.T) {
	var srvSegments, maxBlocks int
	simCfg := simnet.Config{
		Seed: 52,
		Drop: func(from, to types.ReplicaID, msg types.Message, now time.Duration) bool {
			return now < 4*time.Second && (from == 3 || to == 3)
		},
		OnCommit: func(types.ReplicaID, time.Duration, *types.Block) {},
	}
	// Count sync traffic via a message-inspecting drop hook on the healed
	// phase (Drop sees every delivery).
	simCfg.Drop = func(from, to types.ReplicaID, msg types.Message, now time.Duration) bool {
		if sr, ok := msg.(*types.StateSyncResponse); ok {
			srvSegments++
			if len(sr.Blocks) > maxBlocks {
				maxBlocks = len(sr.Blocks)
			}
		}
		return now < 4*time.Second && (from == 3 || to == 3)
	}
	sim, _ := buildCluster(t, 4, 1, nil, simCfg)
	sim.Run(8 * time.Second)

	if srvSegments == 0 {
		t.Fatal("no sync responses were served")
	}
	if maxBlocks > 128 {
		t.Fatalf("sync segment of %d blocks exceeds the cap", maxBlocks)
	}
	t.Logf("%d sync segments served, largest %d blocks", srvSegments, maxBlocks)
}
