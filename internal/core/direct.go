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
type DirectTracker struct {
	store *blockstore.Store
	f     int
	votes map[types.BlockID]*VoteSet

	strength   map[types.BlockID]int
	onStrength func(b *types.Block, x int)
}

// NewDirectTracker creates a direct-vote strength tracker.
func NewDirectTracker(store *blockstore.Store, f int, onStrength func(b *types.Block, x int)) *DirectTracker {
	return &DirectTracker{
		store:      store,
		f:          f,
		votes:      make(map[types.BlockID]*VoteSet),
		strength:   make(map[types.BlockID]int),
		onStrength: onStrength,
	}
}

// OnQC credits every vote inside the certificate as a direct vote.
func (t *DirectTracker) OnQC(qc *types.QC) {
	for i := range qc.Votes {
		t.AddVote(qc.Block, qc.Votes[i].Voter)
	}
}

// AddVote credits one direct vote (from a QC or a relayed ExtraVote) and
// re-evaluates the 3-chains around the block. A vote for a block the store
// does not hold is not remembered, so every key is a stored block.
func (t *DirectTracker) AddVote(block types.BlockID, voter types.ReplicaID) {
	b := t.store.Block(block)
	if b == nil {
		return
	}
	set, ok := t.votes[block]
	if !ok {
		set = &VoteSet{}
		t.votes[block] = set
	}
	if !set.Mark(voter) {
		return
	}
	// The changed block can be the 1st, 2nd or 3rd element of a 3-chain.
	t.evaluate(b)
	if p := t.store.Parent(block); p != nil {
		t.evaluate(p)
		if gp := t.store.Parent(p.ID()); gp != nil {
			t.evaluate(gp)
		}
	}
}

// DirectVotes returns the number of distinct direct votes known for block.
func (t *DirectTracker) DirectVotes(block types.BlockID) int { return t.votes[block].Count() }

// Strength returns the highest x such that the block is x-strong committed
// under the direct-vote rule, or -1.
func (t *DirectTracker) Strength(block types.BlockID) int {
	if x, ok := t.strength[block]; ok {
		return x
	}
	return -1
}

func (t *DirectTracker) evaluate(bk *types.Block) {
	best := -1
	t.store.VisitChildren(bk.ID(), func(b1 *types.Block) bool {
		if b1.Round != bk.Round+1 {
			return true
		}
		t.store.VisitChildren(b1.ID(), func(b2 *types.Block) bool {
			if b2.Round != bk.Round+2 {
				return true
			}
			e := min(t.DirectVotes(bk.ID()), t.DirectVotes(b1.ID()), t.DirectVotes(b2.ID()))
			if x := e - t.f - 1; x > best {
				best = x
			}
			return true
		})
		return true
	})
	if best < t.f {
		return
	}
	for cur := bk; cur != nil && !cur.IsGenesis(); cur = t.store.Parent(cur.ID()) {
		old, ok := t.strength[cur.ID()]
		if ok && old >= best {
			return
		}
		t.strength[cur.ID()] = best
		if t.onStrength != nil {
			t.onStrength(cur, best)
		}
	}
}

// Forget releases the bookkeeping of one block the store removed.
func (t *DirectTracker) Forget(id types.BlockID) {
	delete(t.votes, id)
	delete(t.strength, id)
}
