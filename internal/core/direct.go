package core

import (
	"repro/internal/blockstore"
	"repro/internal/types"
)

// DirectTracker implements the Appendix B baseline ("FBFT adapted to
// DiemBFT"): strong commits are driven purely by *direct* signed votes per
// block — x-strong commit requires a 3-chain whose blocks each carry at
// least x+f+1 distinct direct votes. Late votes beyond the initial 2f+1 are
// multicast by the round's leader (ExtraVote messages), which is what costs
// the baseline O(n^2) messages per decision.
//
// It is the SFT tracker's bookkeeping with the indirect part left out: a vote
// is credited to its own block's record and to no ancestor, and the same
// strong 3-chain rule is re-run after each one. The records are the
// tracker's, so a store carries an SFT tracker or a direct one, not both.
type DirectTracker struct{ t *Tracker }

// NewDirectTracker creates a direct-vote strength tracker.
func NewDirectTracker(store *blockstore.Store, f int, onStrength func(b *types.Block, x int)) *DirectTracker {
	return &DirectTracker{NewTracker(store, Config{N: 3*f + 1, F: f, Mode: ModeRound, OnStrength: onStrength})}
}

// OnQC credits every vote inside the certificate as a direct vote.
func (d *DirectTracker) OnQC(qc *types.QC) {
	if n := d.t.store.Node(qc.Height, qc.Block); n != nil {
		for i := range qc.Votes {
			d.addVote(n, qc.Votes[i].Voter)
		}
	}
}

// AddVote credits one direct vote (from a QC or a relayed ExtraVote) and
// re-evaluates the 3-chains around the voted block. A vote for a block the
// store does not hold at the vote's height is not remembered.
func (d *DirectTracker) AddVote(v *types.Vote) {
	if n := d.t.store.Node(v.Height, v.Block); n != nil {
		d.addVote(n, v.Voter)
	}
}

func (d *DirectTracker) addVote(n *blockstore.Node, voter types.ReplicaID) {
	if recordOf(n).add(voter, unconditional, d.t.cfg.N) {
		d.t.reevaluateAround(n, d.t.nextPass())
	}
}

// DirectVotes returns the number of distinct direct votes known for block.
func (d *DirectTracker) DirectVotes(b *types.Block) int { return d.t.Endorsers(b) }

// Strength returns the highest x such that the block is x-strong committed
// under the direct-vote rule, or -1.
func (d *DirectTracker) Strength(b *types.Block) int { return d.t.Strength(b) }
