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

// relation is what a leaf is known to be to the base.
type relation uint8

const (
	unjudged relation = iota // above the base, or not judged since the flags were cleared
	onChain                  // the base or one of its ancestors
	fork                     // conflicts with the base
)

// leaf is a voted block that no other voted block extends.
type leaf struct {
	node *blockstore.Node
	rel  relation
	// lo is 1 + the round of the leaf's common ancestor with the base, at
	// height ca (1 when their ancestry ends first), 0 until Intervals asks.
	lo uint64
	ca types.Height
}

// VoteHistory records the blocks this replica voted for, so that each new
// strong-vote can carry the marker (Section 3.2) or the interval set I
// (Section 3.4) summarizing which earlier blocks the vote must not endorse.
//
// Its state is the paper's: "for every fork in the blockchain, the highest
// voted block on that fork". Those are the leaves, the voted blocks that no
// other voted block extends. A vote that a later vote extends is dropped
// when that vote is recorded, and the results do not change: if V conflicts
// with a target T and L extends V, then L conflicts with T too, with a higher
// round and height, and V's interval [ca+1, V.round] lies inside L's (their
// common ancestor with T is the same block). L is stored whenever V is,
// because the store prunes by height, and kept whenever V would be, because
// the history prunes by round and rounds rise along a chain.
//
// Each leaf carries its relation to the base, the last block judged
// against: on the base's chain, or a fork of it. Both hold for every block
// that extends the base (conflict is sticky under extension), so a target or
// vote that extends the base moves the base there and judges only the leaves
// still unjudged. Any other block clears the flags, and every leaf is
// judged again by one ancestor lookup. A vote removes the leaves on its
// chain and marks the rest of those below it as forks, so a dead fork is
// walked once per fork switch, not once per vote.
//
// A vote for a block the store does not hold yet waits in pending and joins
// the leaves once the store has it. Every result equals a scan of all votes
// in the window against the target's chain (refHistory in the tests).
// Targets are blocks in the store; one that is not conflicts with every leaf.
type VoteHistory struct {
	store *blockstore.Store
	// base is the block the flags are relative to; nil when none is.
	base    *blockstore.Node
	leaves  []leaf       // in recording order
	pending []VotedBlock // votes whose block the store does not hold yet
}

// NewVoteHistory creates an empty history backed by the replica's store.
func NewVoteHistory(store *blockstore.Store) *VoteHistory {
	return &VoteHistory{store: store}
}

// RecordVote notes that the replica voted for b. Call it exactly when the
// engine's voting rule fires.
func (h *VoteHistory) RecordVote(b *types.Block) {
	h.admit()
	if h.base != nil && h.base.Block() == b {
		h.add(h.base) // the block the marker was just computed for
		return
	}
	h.record(VotedBlock{ID: b.ID(), Round: b.Round, Height: b.Height})
}

// Restore rebuilds the history from recovered entries (oldest first),
// replacing any current state. It is the crash-recovery hook: a replica
// restarted from its WAL reinstates exactly the voted set its pre-crash
// markers summarized, so post-restart votes can never contradict them. Call
// it after the store is restored: the leaves are found on the store's tree.
func (h *VoteHistory) Restore(entries []VotedBlock) {
	clear(h.leaves)
	h.leaves, h.pending, h.base = h.leaves[:0], h.pending[:0], nil
	for _, v := range entries {
		h.record(v)
	}
}

// record adds v to the leaves if the store holds its block, and otherwise
// keeps it pending unless it is below the store's cut, where no block can
// come back.
func (h *VoteHistory) record(v VotedBlock) {
	if n := h.store.Node(v.Height, v.ID); n != nil {
		h.add(n)
	} else if v.Height >= h.store.PrunedHeight() {
		h.pending = append(h.pending, v)
	}
}

// admit records the pending votes whose blocks the store now holds.
func (h *VoteHistory) admit() {
	if len(h.pending) == 0 {
		return
	}
	waiting := h.pending
	h.pending = h.pending[:0]
	for _, v := range waiting {
		h.record(v)
	}
	clear(waiting[len(h.pending):])
}

// add makes the voted node n a leaf in place of the leaves on its chain.
// Votes arrive in round order, so no leaf extends n; one recorded out of
// order would stay beside the leaf that extends it, which changes no result.
func (h *VoteHistory) add(n *blockstore.Node) {
	h.classify(n)
	h.leaves = slices.DeleteFunc(h.leaves, func(l leaf) bool { return l.rel == onChain })
	h.leaves = append(h.leaves, leaf{node: n, rel: onChain})
}

// query brings the leaves up to date for a vote on target and returns
// target's node, nil if the store does not hold it: then every leaf
// conflicts, as with no common ancestor.
func (h *VoteHistory) query(target *types.Block) *blockstore.Node {
	h.admit()
	t := h.base
	if t == nil || t.Block() != target {
		t = h.store.Node(target.Height, target.ID())
	}
	if t == nil {
		h.base = nil
		for i := range h.leaves {
			h.leaves[i] = leaf{node: h.leaves[i].node, rel: fork}
		}
		return nil
	}
	h.classify(t)
	return t
}

// classify makes t the base, clearing the flags unless t extends the old
// base, and judges the leaves still unjudged: those at or below t are on its
// chain or forks of it, those above it forks unless they extend it.
func (h *VoteHistory) classify(t *blockstore.Node) {
	if t != h.base && !t.Extends(h.base) {
		for i := range h.leaves {
			h.leaves[i] = leaf{node: h.leaves[i].node}
		}
	}
	h.base = t
	for i := range h.leaves {
		l := &h.leaves[i]
		if l.rel != unjudged {
			continue
		}
		if height := l.node.Height(); height <= t.Height() {
			if t.Ancestor(height) == l.node {
				l.rel = onChain
			} else {
				l.rel = fork
			}
		} else if l.node.Ancestor(t.Height()) != t {
			l.rel = fork
		}
	}
}

// Marker computes the Section 3.2 marker for a vote on target:
//
//	marker = max{B'.round | B' conflicts target and replica voted for B'}
//
// with default 0 when the replica never voted on a conflicting fork.
func (h *VoteHistory) Marker(target *types.Block) types.Round {
	var m types.Round
	h.query(target)
	for i := range h.leaves {
		if l := &h.leaves[i]; l.rel == fork {
			m = max(m, l.node.Block().Round)
		}
	}
	return m
}

// HeightMarker computes the Appendix D (SFT-Streamlet) marker for a vote on
// target: the largest *height* of any conflicting voted block.
func (h *VoteHistory) HeightMarker(target *types.Block) types.Height {
	var m types.Height
	h.query(target)
	for i := range h.leaves {
		if l := &h.leaves[i]; l.rel == fork {
			m = max(m, l.node.Height())
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
// that block and target. The leaf of a fork is its highest voted block, and
// the intervals of the votes below it lie inside its own.
//
// If window > 0 the set is clipped to [r-window, r], the paper's variant
// that bounds the vote size to the most recent window rounds.
func (h *VoteHistory) Intervals(target *types.Block, window types.Round) intervals.Set {
	r := uint64(target.Round)
	set := intervals.Full(r)
	t := h.query(target)
	for i := range h.leaves {
		l := &h.leaves[i]
		if l.rel != fork {
			continue
		}
		if l.lo == 0 {
			l.lo, l.ca = 1, 0
			if ca := commonAncestor(l.node, t); ca != nil {
				l.lo, l.ca = uint64(ca.Block().Round)+1, ca.Height()
			}
		}
		lo := l.lo
		if l.ca < h.store.PrunedHeight() {
			// A common ancestor pruned away is an unknown relation:
			// conservatively refuse to endorse anything up to the
			// conflicting round.
			lo = 1
		}
		set = set.Subtract(intervals.Interval{Lo: lo, Hi: uint64(l.node.Block().Round)})
	}
	if window > 0 && r > uint64(window) {
		set = set.Intersect(intervals.New(intervals.Interval{Lo: r - uint64(window), Hi: r}))
	}
	return set
}

// commonAncestor returns the highest block both a and b extend, nil when
// their parent links end first. For a leaf that conflicts with the base it
// stays the same for every block that extends the base.
func commonAncestor(a, b *blockstore.Node) *blockstore.Node {
	for a != b && a != nil && b != nil {
		if a.Height() >= b.Height() {
			a = a.Parent()
		} else {
			b = b.Parent()
		}
	}
	if a != b {
		return nil
	}
	return a
}

// PruneBelow drops the votes below the given round and the leaves below the
// store's cut (a pending vote there goes at the next admit). Engines call it
// right after pruning the store, at the round of the block at the cut, so
// that Marker never silently loses a conflicting vote that still matters.
func (h *VoteHistory) PruneBelow(r types.Round) {
	cut := h.store.PrunedHeight()
	h.leaves = slices.DeleteFunc(h.leaves, func(l leaf) bool {
		return l.node.Block().Round < r || l.node.Height() < cut
	})
	h.pending = slices.DeleteFunc(h.pending, func(v VotedBlock) bool { return v.Round < r })
}

// Len returns the number of votes kept: the leaves and the pending votes.
func (h *VoteHistory) Len() int { return len(h.leaves) + len(h.pending) }

// Voted returns the kept votes, the leaves in recording order and then the
// pending votes (for tests and diagnostics).
func (h *VoteHistory) Voted() []VotedBlock {
	out := make([]VotedBlock, 0, h.Len())
	for _, l := range h.leaves {
		b := l.node.Block()
		out = append(out, VotedBlock{ID: b.ID(), Round: b.Round, Height: b.Height})
	}
	return append(out, h.pending...)
}

// Capacity returns the slots the leaves and the pending votes hold, live and
// free (for footprint checks).
func (h *VoteHistory) Capacity() int { return cap(h.leaves) + cap(h.pending) }
