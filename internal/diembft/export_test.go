package diembft

import (
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

// CurrentLeader is the leader the replica elects for its current round on
// its high QC's chain, for the external tests.
func (r *Replica) CurrentLeader() types.ReplicaID { return r.leaderFor(r.pm.Round(), r.qchigh) }

// AdvanceRound runs one round entry as an event of its own, for the external
// tests, and returns what the entry emitted.
func (r *Replica) AdvanceRound(now time.Duration, round types.Round) []engine.Output {
	r.Begin(now)
	r.advanceRound(now, round, false)
	return r.Take()
}
