package diembft_test

import (
	"testing"
	"time"

	"repro/internal/diembft"
	"repro/internal/simnet"
	"repro/internal/types"
)

// TestSyncHealsGapBeyondSegmentCap partitions one replica of a 7-node
// cluster long enough that the missed chain exceeds one sync segment (128
// blocks); recovery must proceed through multiple request/response rounds.
func TestSyncHealsGapBeyondSegmentCap(t *testing.T) {
	const healAt = 14 * time.Second
	var segs, maxseg int
	simCfg := simnet.Config{
		Seed: 53,
		Drop: func(from, to types.ReplicaID, msg types.Message, now time.Duration) bool {
			if sr, ok := msg.(*types.StateSyncResponse); ok {
				segs++
				if len(sr.Blocks) > maxseg {
					maxseg = len(sr.Blocks)
				}
			}
			return now < healAt && (from == 6 || to == 6)
		},
	}
	sim, replicas := buildCluster(t, 7, 2, func(id types.ReplicaID, c *diembft.Config) {
		c.RoundTimeout = 150 * time.Millisecond
	}, simCfg)
	sim.Run(20 * time.Second)

	gapAtHeal := replicas[0].CommittedHeight() // rough upper bound marker
	if replicas[6].CommittedHeight()+10 < replicas[0].CommittedHeight() {
		t.Fatalf("victim stuck at %d vs %d (segs=%d maxseg=%d)",
			replicas[6].CommittedHeight(), replicas[0].CommittedHeight(), segs, maxseg)
	}
	if maxseg > 128 {
		t.Fatalf("segment cap violated: %d", maxseg)
	}
	if segs < 2 {
		t.Fatalf("expected multiple sync segments for a long gap, got %d", segs)
	}
	t.Logf("victim healed to %d/%d via %d segments (max %d blocks)",
		replicas[6].CommittedHeight(), gapAtHeal, segs, maxseg)
}
