package diembft

import (
	"time"

	"repro/internal/engine"
	"repro/internal/statesync"
	"repro/internal/types"
)

// requestSync asks peer for the chain ending at the missing block.
func (r *Replica) requestSync(peer types.ReplicaID, missing types.BlockID) {
	if peer == r.cfg.ID {
		return
	}
	r.Outs = append(r.Outs, engine.Send{To: peer, Msg: &types.SyncRequest{
		Block:  missing,
		Have:   r.CommittedHeight(),
		Sender: r.cfg.ID,
	}})
}

// onSyncRequest serves a chain segment toward the requested block, starting
// just above the requester's committed height so the segment always
// connects to something the requester has. Responses are capped; a
// requester whose gap exceeds the cap heals in multiple rounds of
// request/response as its committed height advances.
func (r *Replica) onSyncRequest(m *types.SyncRequest) {
	end := r.Store().Block(m.Block)
	if end == nil {
		return
	}
	chain := statesync.Segment(r.Store(), end, m.Have, syncMaxBlocks)
	if len(chain) > syncMaxBlocks {
		chain = chain[:syncMaxBlocks] // the walk hit a pruned gap; keep the lowest
	}
	if len(chain) == 0 {
		return
	}
	r.Outs = append(r.Outs, engine.Send{To: m.Sender, Msg: &types.SyncResponse{
		Blocks: chain,
		Sender: r.cfg.ID,
	}})
}

// installSegment installs a fetched chain segment, whether it answers a
// per-block SyncRequest or a state-sync request: each block's justify QC
// certifies its parent, so the segment is validated link by link, each
// installed block is journaled, and its certificate is routed through the
// regular QC pipeline — locks, commits, endorsement tracking and round
// synchronization catch up exactly as if the blocks had arrived as
// proposals — before the orphaned proposals waiting on it are adopted.
func (r *Replica) installSegment(now time.Duration, m *types.StateSyncResponse) {
	r.ApplySegment(m,
		func(b *types.Block) { r.adoptOrphans(now, b.ID()) },
		// A standalone certificate (the responder's high QC; no block embeds
		// it) is not fromChain, which routes it into the journal.
		func(qc *types.QC, standalone bool) { r.processQC(now, qc, !standalone) })
}
