package tcpnet

import (
	"encoding/gob"
	"sync"

	"repro/internal/types"
)

// Nothing on the wire is gob any more: no reader, writer or handshake in this
// package touches it. RegisterMessages survives only because the benchmark's
// types.proposal_gob_encode_us probe (bench/probes.go, which this repository's
// changes may not edit) still gob-encodes a *types.Proposal and calls it
// first. It goes, with the GobEncode shims on types.QC and intervals.Set, when a benchmark issue retires that probe.

var registerOnce sync.Once

// RegisterMessages registers the consensus message types with encoding/gob.
// Safe to call multiple times.
func RegisterMessages() {
	registerOnce.Do(func() {
		gob.Register(&types.Proposal{})
		gob.Register(&types.VoteMsg{})
		gob.Register(&types.Timeout{})
		gob.Register(&types.Echo{})
		gob.Register(&types.ExtraVote{})
		gob.Register(&types.StateSyncRequest{})
		gob.Register(&types.StateSyncResponse{})
	})
}
