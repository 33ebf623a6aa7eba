package core

import (
	"slices"

	"repro/internal/blockstore"
	"repro/internal/intervals"
	"repro/internal/types"
	"repro/internal/window"
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
	voted window.Of[VotedBlock]

	// chain indexes base's ancestors, oldest first: the i-th live entry is
	// the ancestor at height lo+i and the last one is base itself. It grows
	// upward as targets extend base and downward only as far as a judged
	// entry needs. Empty means there is no base, or base is not stored.
	chain window.Of[*blockstore.Node]
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
	h.voted.Push(VotedBlock{ID: b.ID(), Round: b.Round, Height: b.Height})
}

// Restore rebuilds the history from recovered entries (oldest first),
// replacing any current state. It is the crash-recovery hook: a replica
// restarted from its WAL reinstates exactly the voted set its pre-crash
// markers summarized, so post-restart votes can never contradict them.
func (h *VoteHistory) Restore(entries []VotedBlock) {
	h.voted.Reset()
	for _, v := range entries {
		h.voted.Push(v)
	}
	h.chain.Reset()
	h.open, h.judged = h.open[:0], 0
}

// Len returns the number of recorded votes.
func (h *VoteHistory) Len() int { return h.voted.Len() }

// Voted returns a copy of the history (for tests and diagnostics).
func (h *VoteHistory) Voted() []VotedBlock { return slices.Clone(h.voted.Live()) }

// Capacity returns the slots the window and the chain index hold, live and
// free (for footprint checks).
func (h *VoteHistory) Capacity() (voted, chain int) { return h.voted.Cap(), h.chain.Cap() }

// rebase makes target the base and reports whether it extends the previous
// one, in which case the chain index grows by the blocks between them and
// earlier judgements stand. Otherwise the index restarts at target. It
// returns target's node, nil if the store does not hold it.
func (h *VoteHistory) rebase(target *types.Block) (*blockstore.Node, bool) {
	n := h.chain.Len()
	if n > 0 && h.chain.Live()[n-1].Block() == target {
		return h.chain.Live()[n-1], true // the same base again
	}
	t := h.store.Node(target.Height, target.ID())
	if n > 0 && t != nil {
		base := h.chain.Live()[n-1]
		cur := t
		for cur != nil && cur.Height() > base.Height() {
			h.chain.Push(cur)
			cur = cur.Parent()
		}
		if cur == base {
			slices.Reverse(h.chain.Live()[n:])
			return t, true
		}
	}
	h.chain.Reset()
	if t != nil {
		h.chain.Push(t)
	}
	h.lo = target.Height
	return t, false
}

// onChain reports whether the block (id, height), at or below base, is on
// base's ancestor chain, extending the index down to its height if needed.
func (h *VoteHistory) onChain(id types.BlockID, height types.Height) bool {
	if h.chain.Len() == 0 {
		return false
	}
	if height < h.lo {
		h.extendDown(height)
	}
	return height >= h.lo && h.chain.Live()[height-h.lo].Block().ID() == id
}

// extendDown grows the index down to height, or to where the store's parent
// links stop (genesis, or a pruned/detached boundary), exactly like a direct
// ancestry walk would.
func (h *VoteHistory) extendDown(height types.Height) {
	n := h.chain.Len()
	for a := h.chain.Live()[0].Parent(); a != nil; a = a.Parent() {
		h.chain.Push(a)
		if a.Height() <= height {
			break
		}
	}
	if k := h.chain.Len() - n; k > 0 {
		// The walk appended newest first behind the old index; swap the two
		// parts and put the new one oldest first.
		c := h.chain.Live()
		slices.Reverse(c)
		slices.Reverse(c[k:])
		h.lo -= types.Height(k)
	}
}

// judge brings the open list up to date for a query on target and returns
// target's node (nil if the store does not hold it).
func (h *VoteHistory) judge(target *types.Block) *blockstore.Node {
	t, extends := h.rebase(target)
	if !extends {
		h.open, h.judged = h.open[:0], 0
	}
	if cut := h.store.PrunedHeight(); cut > h.lo && h.chain.Len() > 0 {
		// No stored block is below the store's cut, so no lookup goes there.
		drop := min(int(cut-h.lo), h.chain.Len()-1)
		h.chain.Drop(drop)
		h.lo += types.Height(drop)
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
	voted := h.voted.Live()
	for i := h.judged; i < len(voted); i++ {
		if keep, fork := h.judgeOne(target, &voted[i]); keep {
			kept = append(kept, openVote{voted[i], fork})
		}
	}
	h.open, h.judged = kept, len(voted)
	return t
}

// judgeOne judges a voted block against the base, target: keep is false for
// a settled one (found on the index, which judge trims to stored blocks, so
// without a store lookup), and fork says the one kept conflicts for good.
func (h *VoteHistory) judgeOne(target *types.Block, v *VotedBlock) (keep, fork bool) {
	below := v.Height <= target.Height
	if below && h.onChain(v.ID, v.Height) {
		return false, false
	}
	return true, below && h.store.Has(v.Height, v.ID)
}

// conflicting returns the stored node of an entry judge left open when it
// counts against target (node t), nil otherwise, matching Conflicts on
// stored blocks exactly: pruned deep history does not count (see
// PruneBelow), a fork entry does, and one above the target (a rare
// fork-switch leftover) takes the full ancestry check.
func (h *VoteHistory) conflicting(t *blockstore.Node, o *openVote) *blockstore.Node {
	n := h.store.Node(o.Height, o.ID)
	if n == nil || !o.fork && !n.Conflicts(t) {
		return nil
	}
	return n
}

// Marker computes the Section 3.2 marker for a vote on target:
//
//	marker = max{B'.round | B' conflicts target and replica voted for B'}
//
// with default 0 when the replica never voted on a conflicting fork.
func (h *VoteHistory) Marker(target *types.Block) types.Round {
	var m types.Round
	t := h.judge(target)
	// Newest first: the first hit is usually the max, and the rest are
	// skipped without a store lookup.
	for i := len(h.open) - 1; i >= 0; i-- {
		if o := &h.open[i]; o.Round > m && h.conflicting(t, o) != nil {
			m = o.Round
		}
	}
	return m
}

// HeightMarker computes the Appendix D (SFT-Streamlet) marker for a vote on
// target: the largest *height* of any conflicting voted block.
func (h *VoteHistory) HeightMarker(target *types.Block) types.Height {
	var m types.Height
	t := h.judge(target)
	for i := len(h.open) - 1; i >= 0; i-- {
		if o := &h.open[i]; o.Height > m && h.conflicting(t, o) != nil {
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
	t := h.judge(target)
	for i := range h.open {
		o := &h.open[i]
		n := h.conflicting(t, o)
		if n == nil {
			continue
		}
		lo := uint64(1)
		if ca := h.commonAncestor(target, t, n); ca != nil {
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

// commonAncestor returns the common ancestor of target (node t) and a voted
// block (node n) known to conflict with it: the first ancestor of n that does
// not conflict with target, which below the target means "on its chain" and
// above it takes the full check. Returns nil when the ancestry was pruned
// away.
func (h *VoteHistory) commonAncestor(target *types.Block, t, n *blockstore.Node) *types.Block {
	for a := n.Parent(); a != nil; a = a.Parent() {
		if a.Height() > target.Height {
			if a.Conflicts(t) {
				continue
			}
		} else if !h.onChain(a.Block().ID(), a.Height()) {
			continue
		}
		return a.Block()
	}
	return nil
}

// PruneBelow drops history entries below the given round. Engines call it
// together with blockstore pruning; both must use the same cut so that
// Marker never silently loses a conflicting vote that still matters. Votes
// are recorded in round order, so the entries to drop are a prefix; one
// recorded out of order would only be kept longer, which can raise a marker
// and never lower it.
func (h *VoteHistory) PruneBelow(r types.Round) {
	voted := h.voted.Live()
	n := 0
	for n < len(voted) && voted[n].Round < r {
		n++
	}
	h.voted.Drop(n)
	h.judged = max(h.judged-n, 0)
	n = 0
	for n < len(h.open) && h.open[n].Round < r {
		n++
	}
	h.open = h.open[n:]
}
