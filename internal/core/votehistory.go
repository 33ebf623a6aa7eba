package core

import (
	"slices"

	"repro/internal/blockstore"
	"repro/internal/intervals"
	"repro/internal/types"
)

// VotedBlock is one entry of a replica's voting history.
type VotedBlock struct {
	ID     types.BlockID
	Round  types.Round
	Height types.Height
}

// openVote is a voted block that the last judgement did not settle.
type openVote struct {
	VotedBlock
	fork bool // see VoteHistory
}

// VoteHistory records the blocks this replica voted for, so that each new
// strong-vote can carry the marker (Section 3.2) or the interval set I
// (Section 3.4) summarizing which earlier blocks the vote must not endorse.
//
// The paper's local state is "for every fork in the blockchain, the highest
// voted block on that fork". Here that is the open list: the voted blocks
// that can still conflict with a block extending base, the last target
// queried. Every voted block in the window is in one of three states:
//
//   - settled: stored and on base's ancestor chain, so an ancestor of every
//     block extending base. It conflicts with none and is not in the list.
//   - fork: stored, at or below base's height and off its chain (or below
//     where the chain's parent links end). The store only ever cuts parent
//     links, it never re-attaches one, so the entry is off the chain of every
//     block extending base too: it conflicts with all of them, its flag is
//     sticky and it is never walked again.
//   - open: above base, or not in the store. Nothing lasting is known, so it
//     is judged again at each query, as a full scan would judge it.
//
// A query whose target extends base judges only the open entries and the
// votes recorded since; any other target, and Restore, start over from the
// whole window. Every result still filters on store.Has (a pruned block
// cannot come back: its parent went first), so results equal a scan of the
// window against the target's chain (refHistory in the tests) at a cost that
// follows the forks, not the window. Targets are blocks in the store.
type VoteHistory struct {
	store *blockstore.Store
	// voted is the window, oldest first. Rounds never decrease: an engine
	// votes once per round and rounds only advance (see PruneBelow).
	voted []VotedBlock

	// chain indexes base's ancestors, oldest first: chain[i] is the ancestor
	// at height lo+i and the last element is base itself. It grows upward as
	// targets extend base and downward only as far as a judged entry needs.
	// Empty means there is no base.
	chain []types.BlockID
	lo    types.Height
	// voted[:judged] are settled or in open; the rest were recorded since.
	judged int
	open   []openVote
}

// NewVoteHistory creates an empty history backed by the replica's store.
func NewVoteHistory(store *blockstore.Store) *VoteHistory {
	return &VoteHistory{store: store}
}

// RecordVote notes that the replica voted for b. Call it exactly when the
// engine's voting rule fires.
func (h *VoteHistory) RecordVote(b *types.Block) {
	h.voted = append(h.voted, VotedBlock{ID: b.ID(), Round: b.Round, Height: b.Height})
}

// Restore rebuilds the history from recovered entries (oldest first),
// replacing any current state. It is the crash-recovery hook: a replica
// restarted from its WAL reinstates exactly the voted set its pre-crash
// markers summarized, so post-restart votes can never contradict them.
func (h *VoteHistory) Restore(entries []VotedBlock) {
	h.voted = append(h.voted[:0], entries...)
	h.chain, h.open, h.judged = h.chain[:0], h.open[:0], 0
}

// Len returns the number of recorded votes.
func (h *VoteHistory) Len() int { return len(h.voted) }

// Voted returns a copy of the history (for tests and diagnostics).
func (h *VoteHistory) Voted() []VotedBlock { return slices.Clone(h.voted) }

// rebase makes target the base and reports whether it extends the previous
// one, in which case the chain index grows by the blocks between them and
// earlier judgements stand. Otherwise the index restarts at target.
func (h *VoteHistory) rebase(target *types.Block) bool {
	if n := len(h.chain); n > 0 {
		base, top := h.chain[n-1], h.lo+types.Height(n-1)
		cur := target
		for cur != nil && cur.Height > top {
			h.chain = append(h.chain, cur.ID())
			cur = h.store.Parent(cur.ID())
		}
		if cur != nil && cur.Height == top && cur.ID() == base {
			slices.Reverse(h.chain[n:])
			return true
		}
	}
	h.chain, h.lo = append(h.chain[:0], target.ID()), target.Height
	return false
}

// onChain reports whether the block (id, height), at or below base, is on
// base's ancestor chain, extending the index down to its height if needed.
func (h *VoteHistory) onChain(id types.BlockID, height types.Height) bool {
	if height < h.lo {
		h.extendDown(height)
	}
	return height >= h.lo && h.chain[height-h.lo] == id
}

// extendDown grows the index down to height, or to where the store's parent
// links stop (genesis, or a pruned/detached boundary), exactly like a direct
// IsAncestor walk would.
func (h *VoteHistory) extendDown(height types.Height) {
	n := len(h.chain)
	h.store.WalkAncestors(h.chain[0], func(b *types.Block) bool {
		h.chain = append(h.chain, b.ID())
		return b.Height > height
	})
	if k := len(h.chain) - n; k > 0 {
		// The walk appended newest first behind the old index; swap the two
		// parts and put the new one oldest first.
		slices.Reverse(h.chain)
		slices.Reverse(h.chain[k:])
		h.lo -= types.Height(k)
	}
}

// judge brings the open list up to date for a query on target.
func (h *VoteHistory) judge(target *types.Block) {
	if !h.rebase(target) {
		h.open, h.judged = h.open[:0], 0
	}
	if cut := h.store.PrunedHeight(); cut > h.lo {
		// No stored block is below the store's cut, so no lookup goes there.
		drop := min(int(cut-h.lo), len(h.chain)-1)
		h.chain, h.lo = h.chain[drop:], h.lo+types.Height(drop)
	}
	kept := h.open[:0]
	for _, o := range h.open {
		keep := o.fork
		if !keep {
			keep, o.fork = h.judgeOne(target, &o.VotedBlock)
		}
		if keep {
			kept = append(kept, o)
		}
	}
	for i := h.judged; i < len(h.voted); i++ {
		if keep, fork := h.judgeOne(target, &h.voted[i]); keep {
			kept = append(kept, openVote{h.voted[i], fork})
		}
	}
	h.open, h.judged = kept, len(h.voted)
}

// judgeOne judges a voted block against the base, target: keep is false for
// a settled one (found on the index, which judge trims to stored blocks, so
// without a store lookup), and fork says the one kept conflicts for good.
func (h *VoteHistory) judgeOne(target *types.Block, v *VotedBlock) (keep, fork bool) {
	below := v.Height <= target.Height
	if below && h.onChain(v.ID, v.Height) {
		return false, false
	}
	return true, below && h.store.Has(v.ID)
}

// conflicts reports whether an entry judge left open counts against target,
// matching store.Conflicts on stored blocks exactly: pruned deep history does
// not count (see PruneBelow), a fork entry does, and one above the target (a
// rare fork-switch leftover) takes the full ancestry check.
func (h *VoteHistory) conflicts(target *types.Block, o *openVote) bool {
	if !h.store.Has(o.ID) {
		return false
	}
	return o.fork || h.store.Conflicts(o.ID, target.ID())
}

// Marker computes the Section 3.2 marker for a vote on target:
//
//	marker = max{B'.round | B' conflicts target and replica voted for B'}
//
// with default 0 when the replica never voted on a conflicting fork.
func (h *VoteHistory) Marker(target *types.Block) types.Round {
	var m types.Round
	h.judge(target)
	// Newest first: the first hit is usually the max, and the rest are
	// skipped without a store lookup.
	for i := len(h.open) - 1; i >= 0; i-- {
		if o := &h.open[i]; o.Round > m && h.conflicts(target, o) {
			m = o.Round
		}
	}
	return m
}

// HeightMarker computes the Appendix D (SFT-Streamlet) marker for a vote on
// target: the largest *height* of any conflicting voted block.
func (h *VoteHistory) HeightMarker(target *types.Block) types.Height {
	var m types.Height
	h.judge(target)
	for i := len(h.open) - 1; i >= 0; i-- {
		if o := &h.open[i]; o.Height > m && h.conflicts(target, o) {
			m = o.Height
		}
	}
	return m
}

// Intervals computes the Section 3.4 generalized endorsement set for a vote
// on target:
//
//	I = [1, r] \ ∪_F D_F,   D_F = [rl+1, rh]
//
// where, per fork F the replica voted on, rh is the largest round of a
// conflicting voted block on F and rl is the round of the common ancestor of
// that block and target. Subtracting one D per conflicting voted block is
// equivalent to the per-fork definition because blocks on the same fork
// produce nested intervals.
//
// If window > 0 the set is clipped to [r-window, r], the paper's variant
// that bounds the vote size to the most recent window rounds.
func (h *VoteHistory) Intervals(target *types.Block, window types.Round) intervals.Set {
	r := uint64(target.Round)
	set := intervals.Full(r)
	h.judge(target)
	for i := range h.open {
		o := &h.open[i]
		if !h.conflicts(target, o) {
			continue
		}
		lo := uint64(1)
		if ca := h.commonAncestor(target, o.ID); ca != nil {
			lo = uint64(ca.Round) + 1
		}
		// A nil common ancestor is an unknown relation (pruned ancestry):
		// conservatively refuse to endorse anything up to the conflicting
		// round.
		set = set.Subtract(intervals.Interval{Lo: lo, Hi: uint64(o.Round)})
	}
	if window > 0 && r > uint64(window) {
		set = set.Intersect(intervals.New(intervals.Interval{Lo: r - uint64(window), Hi: r}))
	}
	return set
}

// commonAncestor returns the common ancestor of target and a voted block
// known to conflict with it: the first ancestor of the voted block that does
// not conflict with target, which below the target means "on its chain" and
// above it takes the store's check. Returns nil when the ancestry was pruned
// away, matching store.CommonAncestor.
func (h *VoteHistory) commonAncestor(target *types.Block, id types.BlockID) *types.Block {
	var ca *types.Block
	h.store.WalkAncestors(id, func(b *types.Block) bool {
		if b.Height > target.Height {
			if h.store.Conflicts(b.ID(), target.ID()) {
				return true
			}
		} else if !h.onChain(b.ID(), b.Height) {
			return true
		}
		ca = b
		return false
	})
	return ca
}

// PruneBelow drops history entries below the given round. Engines call it
// together with blockstore pruning; both must use the same cut so that
// Marker never silently loses a conflicting vote that still matters. Votes
// are recorded in round order, so the entries to drop are a prefix; one
// recorded out of order would only be kept longer, which can raise a marker
// and never lower it.
func (h *VoteHistory) PruneBelow(r types.Round) {
	n := 0
	for n < len(h.voted) && h.voted[n].Round < r {
		n++
	}
	h.voted, h.judged = h.voted[n:], max(h.judged-n, 0)
	n = 0
	for n < len(h.open) && h.open[n].Round < r {
		n++
	}
	h.open = h.open[n:]
}
