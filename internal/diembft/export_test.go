package diembft

import "repro/internal/types"

// CurrentLeader is the leader the replica elects for its current round on
// its high QC's chain, for the external tests.
func (r *Replica) CurrentLeader() types.ReplicaID { return r.leaderFor(r.pm.Round(), r.qchigh) }
