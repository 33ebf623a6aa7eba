// Package statesync implements the catch-up protocol a recovered or lagging
// replica uses to rejoin the cluster: it asks peers for the certified chain
// above its committed height (types.StateSyncRequest) and installs the
// returned segment link by link (types.StateSyncResponse), each block
// validated by its successor's embedded justify QC and the segment tip by
// the responder's high QC. It is the only catch-up protocol: a replica
// restarted from its WAL broadcasts the request, one that meets a proposal
// whose parent it does not hold sends it to that proposal's sender, and an
// observer whose feed stalls sends it to its upstreams in turn.
//
// The package is engine-agnostic: the replica chassis (and through it both
// the DiemBFT and Streamlet engines) and the observer serve requests with
// Serve and install responses with an Applier, over whichever transport
// hosts them (the discrete-event simulator or the TCP runtime — the messages
// are ordinary wire messages).
package statesync

import (
	"fmt"

	"repro/internal/blockstore"
	"repro/internal/types"
)

// DefaultMaxBlocks caps one response segment. A requester whose gap exceeds
// it heals over multiple request/response rounds as its tip advances.
const DefaultMaxBlocks = 128

// NewRequest builds the catch-up request advertising the requester's
// committed height.
func NewRequest(have types.Height, self types.ReplicaID) *types.StateSyncRequest {
	return &types.StateSyncRequest{Have: have, Sender: self}
}

// Serve answers a catch-up request from the local store: the chain from just
// above req.Have to the high-QC block, ascending. The segment is capped to
// its LOWEST maxBlocks entries so its first block always connects to
// something the requester has; the responder's high QC rides along and
// certifies the tip when the segment reaches it. Returns nil when the store
// has nothing the requester lacks.
func Serve(store *blockstore.Store, req *types.StateSyncRequest, self types.ReplicaID, maxBlocks int) *types.StateSyncResponse {
	if maxBlocks <= 0 {
		maxBlocks = DefaultMaxBlocks
	}
	high := store.HighQC()
	tip := store.Block(high.Block)
	if tip == nil {
		return nil
	}
	chain := segment(store, tip, req.Have, maxBlocks)
	if len(chain) == 0 {
		return nil
	}
	resp := &types.StateSyncResponse{Blocks: chain, Sender: self}
	if chain[len(chain)-1].ID() == high.Block {
		resp.HighQC = high
	}
	return resp
}

// segment returns the chain from just above height have up to tip,
// ascending. It holds the LOWEST maxBlocks of that range, so its first block
// connects to something a requester at height have holds: the walk starts at
// tip's ancestor at have+maxBlocks, which keeps the collected slice
// O(maxBlocks) however large the gap is (a deep catch-up issues many
// requests; each must not pay for the whole gap in allocation). Only when a
// pruned gap hides that ancestor does the walk start at tip itself.
func segment(store *blockstore.Store, tip *types.Block, have types.Height, maxBlocks int) []*types.Block {
	if tip.Height <= have {
		return nil
	}
	end := tip
	if cut := have + types.Height(maxBlocks); cut < tip.Height {
		if a := store.AncestorAtHeight(tip.ID(), cut); a != nil {
			end = a
		}
	}
	chain := make([]*types.Block, 0, min(maxBlocks, int(end.Height-have)))
	for b := end; b != nil && !b.IsGenesis() && b.Height > have; b = store.Parent(b.ID()) {
		chain = append(chain, b)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Applier installs fetched chain segments into a replica's store. The
// engine owns validation policy through the hooks; Applier enforces the
// structural chain: each response block's justify must certify its parent,
// pass the structure check, and (when VerifyQC is set) carry valid
// signatures before the block is inserted.
type Applier struct {
	Store *blockstore.Store
	// Quorum is the 2f+1 structure-check threshold.
	Quorum int
	// VerifyQC, if non-nil, cryptographically verifies a certificate (the
	// engine passes its cached verifier); nil skips signature checks.
	VerifyQC func(*types.QC) error
	// OnInstall, if non-nil, observes each block after insertion — engines
	// use it to journal the block, feed trackers, and flush orphaned
	// proposals that were waiting on it.
	OnInstall func(b *types.Block)
	// OnCert, if non-nil, receives the segment's certificates. An embedded
	// justify arrives after the applier registered it (standalone false);
	// engines route it through their usual QC processing for locks, commits
	// and round sync. The response's high QC arrives after validation with
	// standalone true and is NOT registered: the engine routes it through
	// its standalone-QC path, which is also what lands it in the durability
	// journal (no block record carries it).
	OnCert func(qc *types.QC, standalone bool)
}

// Apply validates and installs one response segment, returning how many new
// blocks were inserted. A malformed segment is rejected at the first bad
// link; everything installed before that point remains (it was
// independently certified).
func (a *Applier) Apply(m *types.StateSyncResponse) (int, error) {
	if m == nil {
		return 0, nil
	}
	installed := 0
	for _, b := range m.Blocks {
		if b == nil || b.Justify == nil {
			return installed, fmt.Errorf("statesync: segment block without justify")
		}
		if a.Store.Has(b.ID()) {
			continue
		}
		if b.Justify.Block != b.Parent {
			return installed, fmt.Errorf("statesync: justify for %v does not certify parent", b.Justify.Block)
		}
		if err := b.Justify.CheckStructure(a.Quorum); err != nil {
			return installed, fmt.Errorf("statesync: %w", err)
		}
		if a.VerifyQC != nil {
			if err := a.VerifyQC(b.Justify); err != nil {
				return installed, fmt.Errorf("statesync: %w", err)
			}
		}
		if !a.Store.Has(b.Parent) {
			return installed, fmt.Errorf("statesync: segment does not connect at %s", b)
		}
		if err := a.Store.Insert(b); err != nil {
			return installed, fmt.Errorf("statesync: %w", err)
		}
		installed++
		if _, _, err := a.Store.RegisterQC(b.Justify); err == nil && a.OnCert != nil {
			a.OnCert(b.Justify, false)
		}
		if a.OnInstall != nil {
			a.OnInstall(b)
		}
	}
	if qc := m.HighQC; qc != nil && a.Store.Has(qc.Block) {
		if err := qc.CheckStructure(a.Quorum); err != nil {
			return installed, fmt.Errorf("statesync: high qc: %w", err)
		}
		if a.VerifyQC != nil {
			if err := a.VerifyQC(qc); err != nil {
				return installed, fmt.Errorf("statesync: high qc: %w", err)
			}
		}
		if a.OnCert != nil {
			a.OnCert(qc, true)
		}
	}
	return installed, nil
}
